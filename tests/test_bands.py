"""Banded convolutions give the bits of one GEMM over the whole map, at any
worker count. No band is thin enough for OpenBLAS's small-matrix path, and
at one output channel, where numpy calls GEMV, every band but the last covers
whole groups of 4 pixels (``tensor_ops._SMALL_GEMM``). The one-GEMM reference
and the band budgets are set through the module's ``_BAND_BYTES`` and the
worker count through ``_WORKERS`` (test seams, not options). With a threaded
BLAS the one-output cases may fail: OpenBLAS then splits each GEMV itself."""

import numpy as np
import pytest
from support import random_conv_spec

from mcsr import tensor_ops
from mcsr.tensor_ops import conv2d, conv_transpose2d

# (input height, width) and the convolution: odd output widths, or 38 at the
# transpose, and heights that leave a last band of another height
CONVS = {
    "conv2d stride 1": ((70, 37), 1, conv2d),
    "conv2d stride 2": ((140, 73), 2, conv2d),
    "conv_transpose2d": ((35, 19), 2, conv_transpose2d),
}


@pytest.mark.parametrize("name", sorted(CONVS))
@pytest.mark.parametrize("c_in", [8, 32, 64], ids=lambda c: f"K{9 * c}")
@pytest.mark.parametrize("c_out", [1, 8, 32], ids=lambda n: f"N{n}")
@pytest.mark.parametrize("band_bytes", [tensor_ops._BAND_BYTES, 1], ids=["budget", "floor"])
def test_banded_conv_gives_the_bits_of_one_gemm(request, monkeypatch, name, c_in, c_out, band_bytes):
    if c_out == 1 and not tensor_ops._BLAS_PINNED:
        request.applymarker(pytest.mark.xfail(reason=(
            "ROADMAP item 5: a threaded OpenBLAS cuts one GEMV's outputs into a chunk per thread and "
            "sums the last len % 4 of each apart, so one-output bits follow each call's length")))
    (height, width), stride, conv = CONVS[name]
    rng = np.random.default_rng(c_in * c_out)
    spec = random_conv_spec(rng, c_in, c_out, stride, transposed=conv is conv_transpose2d)
    x = rng.standard_normal((c_in, height, width))
    monkeypatch.setattr(tensor_ops, "_BAND_BYTES", 1 << 40)  # one band
    want = conv(x, spec)
    monkeypatch.setattr(tensor_ops, "_BAND_BYTES", band_bytes)
    for count in (1, 2, 3):
        monkeypatch.setattr(tensor_ops, "_WORKERS", count)
        assert np.array_equal(conv(x, spec), want), f"{count} workers"
