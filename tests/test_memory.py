"""Peak memory of the blocked kernels at the reference size (256x256) and of
the whole forward pass, traced with tracemalloc, which sees numpy's buffers.

Run over the whole map at once, each kernel peaked near 370 MB. Blocked, the
shifted Swin layer peaks near 35 MB (51 MB while it still rolled and
partitioned with copies, 85 MB while it also built a full-map shift mask).
The 64->32 convolution peaks near 21 MB at 1 worker and 25 MB at 2 (36 and
54 MB with 16 MiB im2col bands, 68 and 84 MB while it padded a copy of the
whole map and added its bias into a new array).

One residual Swin block over a 256x256 map peaks near 37 MiB at 1 worker and
41 MiB at 2: its layers pass their tokens on in window order, and only the
last gathers them back to a map (49.3 MiB while each layer returned a map).

A default forward peaks in the last aggregation level, where SAB holds three
HR-size maps (the upsampled target, the matched level and the normalized
output it modulates band by band) and one 4 MiB im2col band per worker. It
measured 25.8 MiB at HR 128x128 and 79.3 MiB at 256x256 on 1 worker (81.2 MiB
at UF 2), and 4.0-4.8 MiB more on 2. At 256x256 on 1 worker it was 94.9 MiB
while SAB also held full-size modulation maps, 108.8 MiB with 16 MiB bands,
213.3 MiB before the aggregation stopped concatenating and copying its maps,
and 147.6 MiB before it freed each matched level and SAB output once read.
That last saving needs CPython 3.11+, which hands call arguments over to the
callee, so on 3.10 the bound is the one set before it."""

import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from support import random_conv_spec, random_stg_store, random_stl_params

from mcsr import tensor_ops
from mcsr.config import default_config
from mcsr.pipeline import run_forward
from mcsr.swin import StgConfig, StlConfig, load_rstb_params, rstb_forward, stl_forward
from mcsr.tensor_ops import conv2d
from mcsr.weights import init_random_weights

BOUND_MB = 150
# peak <= FIXED + PER_HR_PIXEL * pixels + PER_EXTRA_WORKER * (workers - 1), on 3.11+
# about 5% above the 1-worker peaks at 128x128 and (UF 2) 256x256 in the docstring
FIXED_BYTES, PER_HR_PIXEL_BYTES = (8 << 20, 1230) if sys.version_info >= (3, 11) else (24 << 20, 1850)
PER_EXTRA_WORKER_BYTES = 5 << 20  # one 4 MiB im2col band and the padded rows it reads
# one more full-size map held per block, as when each layer returned a map, breaks it
RSTB_FIXED_BYTES = 38 << 20


def peak_bytes(func, *args):
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def peak_mb(func, *args):
    return peak_bytes(func, *args) / 1e6


def channels_last(rng, channels, size):
    return np.ascontiguousarray(rng.standard_normal((size, size, channels))).transpose(2, 0, 1)


def test_swin_layer_peak_is_bounded():
    rng = np.random.default_rng(30)
    cfg = StlConfig(embed_dim=32, num_heads=4, window=8, shift=4, mlp_ratio=2.0)
    params = random_stl_params(rng, cfg)
    x = channels_last(rng, 32, 256)
    peak = peak_mb(stl_forward, x, cfg, params)
    assert peak < BOUND_MB, f"stl_forward peaked at {peak:.0f} MB"


def test_residual_swin_block_peak_is_bounded():
    rng = np.random.default_rng(32)
    cfg = StgConfig()
    params = load_rstb_params(random_stg_store("stg.t", cfg, rng, scale=0.1), "stg.t.rstb0", cfg)
    x = channels_last(rng, cfg.embed_dim, 256)
    peak = peak_bytes(rstb_forward, x, cfg, params)
    bound = RSTB_FIXED_BYTES + PER_EXTRA_WORKER_BYTES * (tensor_ops._WORKERS - 1)
    assert peak <= bound, (f"rstb_forward at 256x256 on {tensor_ops._WORKERS} workers peaked at "
                           f"{peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB")


def test_conv_peak_is_bounded():
    rng = np.random.default_rng(31)
    spec = random_conv_spec(rng, 64, 32)
    x = channels_last(rng, 64, 256)
    peak = peak_mb(conv2d, x, spec)
    assert peak < BOUND_MB, f"conv2d peaked at {peak:.0f} MB"


# UF 4 is the default config; UF 2 at HR 256 is the shared-reference benchmark's shape
@pytest.mark.parametrize("hr_size, uf", [(128, 4), (256, 4), (256, 2)], ids=["128", "256", "256-uf2"])
def test_forward_peak_is_bounded_per_hr_pixel(hr_size, uf):
    cfg = replace(default_config(), uf=uf)
    store = init_random_weights(cfg)
    rng = np.random.default_rng(hr_size)
    lr = rng.uniform(size=(hr_size // cfg.uf,) * 2)
    ref = rng.uniform(size=(hr_size, hr_size))
    peak = peak_bytes(run_forward, cfg, store, lr, ref)
    bound = (FIXED_BYTES + PER_HR_PIXEL_BYTES * hr_size**2
             + PER_EXTRA_WORKER_BYTES * (tensor_ops._WORKERS - 1))
    assert peak <= bound, (f"forward at HR {hr_size}x{hr_size} on {tensor_ops._WORKERS} workers "
                           f"peaked at {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB")
