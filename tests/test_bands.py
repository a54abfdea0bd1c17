"""Banded convolutions give the bits of one GEMM over the whole map, at any
worker count. No band is thin enough for OpenBLAS's small-matrix path, and
at one output channel, where numpy calls GEMV, every band but the last covers
whole groups of 4 pixels (``tensor_ops._SMALL_GEMM``). The one-GEMM reference
and the band budgets are set through the module's ``_BAND_BYTES`` and the
worker count through ``_WORKERS`` (test seams, not options). With a threaded
BLAS the one-output cases may fail: OpenBLAS then splits each GEMV itself.

Given an epilogue, ``_conv_core`` hands each band's outputs to it in place of
returning full-size outputs; the bands it sees are disjoint, cover every
output pixel once and hold the bits the returned outputs hold.

Given ``over``, ``_conv_core`` writes a stride-1 convolution's result over a
map that may be one of its inputs, and gives the bytes of the out-of-place
result: each band's first and last rows, which its neighbours read, are held
until every band has run.

A convolution of more than one output has the same bits at 1 and 2 OpenBLAS
threads at a depth in (384, 768), or past 768: ``_conv_core``'s GEMM step cuts
every depth into the slabs that one-thread OpenBLAS takes."""

import threading

import numpy as np
import pytest
from support import on_recording_blas, random_conv_spec, run_child

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


def outputs_by_epilogue(maps, specs, dilate, shapes):
    """``_conv_core``'s outputs rebuilt by an epilogue that copies each band into
    full-size arrays; asserts the bands are whole output rows, each written once."""
    outs = [np.full(shape, np.nan) for shape in shapes]
    writes = np.zeros(shapes[0][1], dtype=int)  # per output row
    lock = threading.Lock()  # bands arrive on several threads

    def copy(rows, _, *bands):
        assert [band.shape for band in bands] == [
            (shape[0], rows.stop - rows.start, shape[2]) for shape in shapes]
        with lock:
            writes[rows] += 1
        for out, band in zip(outs, bands):
            out[:, rows] = band

    assert tensor_ops._conv_core(maps, specs, dilate, epilogue=copy) is None
    assert np.all(writes == 1), f"rows written {np.unique(writes)} times"
    return outs


# _conv_core's calls, as (map sizes, output counts, stride, dilation): each
# convolution above, the transpose as a stride-1 pass over the dilated map, and
# SAB's two 64->32 modulation convolutions sharing the im2col of two maps
CORES = [pytest.param([size], [c_out], stride if conv is conv2d else 1, 1 if conv is conv2d else 2,
                      id=f"{name}-N{c_out}")
         for name, (size, stride, conv) in sorted(CONVS.items()) for c_out in (1, 8, 32)]
CORES.append(pytest.param([(70, 37)] * 2, [32, 32], 1, 1, id="SAB modulation"))


@pytest.mark.parametrize("sizes, outs, stride, dilate", CORES)
@pytest.mark.parametrize("band_bytes", [tensor_ops._BAND_BYTES, 1], ids=["budget", "floor"])
def test_epilogue_sees_the_returned_outputs_band_by_band(monkeypatch, sizes, outs, stride, dilate,
                                                         band_bytes):
    rng = np.random.default_rng(sum(outs))
    maps = [rng.standard_normal((32, *size)) for size in sizes]
    specs = [random_conv_spec(rng, 32 * len(maps), n, stride) for n in outs]
    monkeypatch.setattr(tensor_ops, "_BAND_BYTES", band_bytes)
    want = tensor_ops._conv_core(maps, specs, dilate)
    for count in (1, 2, 3):
        monkeypatch.setattr(tensor_ops, "_WORKERS", count)
        got = outputs_by_epilogue(maps, specs, dilate, [out.shape for out in want])
        for g, w in zip(got, want):
            assert np.array_equal(g, w), f"{count} workers"


# 70x40 maps: at 40 columns 32 outputs pass _SMALL_GEMM in one row, so a budget
# of n im2col rows gives bands of n rows, and 3-row bands end in a 1-row band.
# The output goes over the first map, as in SAB and JRFAB, and SAB's epilogue
# reads the second.
@pytest.mark.parametrize("band_rows", [None, 1, 2, 3], ids=["budget", "1 row", "2 rows", "3 rows"])
@pytest.mark.parametrize("modulated", [False, True], ids=["output", "epilogue"])
def test_writing_over_an_input_gives_the_out_of_place_bytes(monkeypatch, band_rows, modulated):
    rng = np.random.default_rng(7)
    maps = [rng.standard_normal((32, 70, 40)) for _ in range(2)]
    specs = [random_conv_spec(rng, 64, 32) for _ in range(1 + modulated)]
    if band_rows:
        monkeypatch.setattr(tensor_ops, "_BAND_BYTES", band_rows * 40 * 64 * 9 * 8)
    want = tensor_ops._conv_core(maps, specs)
    want = np.ascontiguousarray(want[0] * maps[1] + want[1] if modulated else want[0])
    epilogue = (lambda rows, _, alpha, beta: alpha * maps[1][:, rows] + beta) if modulated else None
    for count in (1, 2, 3):
        monkeypatch.setattr(tensor_ops, "_WORKERS", count)
        x = maps[0].copy()
        assert tensor_ops._conv_core([x, maps[1]], specs, epilogue=epilogue, over=x) is x
        assert x.tobytes() == want.tobytes(), f"{count} workers"


# Per convolution and depth K = 9 c_in in (384, 768), or past 768 with a rest in
# (384, 768) after one 384-deep slab, the digest of a 16-output convolution of a
# random map.
CONV_BITS = """
import hashlib, json
import numpy as np
from support import random_conv_spec
from mcsr.tensor_ops import conv2d, conv_transpose2d

bits = {}
for c_in in (43, 50, 60, 70, 85, 100, 110):
    rng = np.random.default_rng(c_in)
    x = rng.standard_normal((c_in, 30, 37))
    for name, stride, conv in (("conv2d stride 1", 1, conv2d), ("conv2d stride 2", 2, conv2d),
                               ("conv_transpose2d", 2, conv_transpose2d)):
        spec = random_conv_spec(rng, c_in, 16, stride, transposed=conv is conv_transpose2d)
        bits[f"{name} K{9 * c_in}"] = hashlib.sha256(conv(x, spec).tobytes()).hexdigest()
print(json.dumps(bits))
"""


@on_recording_blas
def test_conv_bits_do_not_depend_on_blas_threads():
    # OpenBLAS cuts these depths at a thread-dependent point; without the
    # driver's own cuts, 2 threads moved 13-79% of each case's outputs.
    one, two = (run_child(CONV_BITS, threads) for threads in ("1", "2"))
    assert len(one) == 21
    assert [k for k in one if one[k] != two[k]] == [], "the bits depend on the threads"
