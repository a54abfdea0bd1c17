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

A default forward peaks in the last aggregation level, where SAB holds two
HR-size maps (the matched level and the upsampled target, which it writes its
output over band by band), the first and last rows of each band, held until
every band has run, and one 4 MiB im2col band per worker. It measured 23.4 MiB
at HR 128x128 and 73.8 MiB at 256x256 on 1 worker, and 4.0-4.6 MiB more on 2.
At UF 2 the reference's 256x256 Swin group now sets the peak, 79.1 MiB. At
256x256 on 1 worker the forward was 79.3 MiB while SAB wrote a third HR map
(81.2 MiB at UF 2, and 25.8 MiB at 128x128), 94.9 MiB while SAB also held
full-size modulation maps, 108.8 MiB with 16 MiB bands, 213.3 MiB before the
aggregation stopped concatenating and copying its maps, and 147.6 MiB before it
freed each matched level and SAB output once read. That freeing needs CPython
3.11+, which hands call arguments over to the callee, so on 3.10 the bound is
the one set before it.

SAB alone at the last level (128x128 target, 256x256 matched level) peaks at
31.0 MiB on 1 worker and 35.0 MiB on 2; it was 36.3 and 40.6 MiB while it wrote
its output to a third HR map."""

import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from support import random_conv_spec, random_stg_store, random_stl_params

from mcsr import tensor_ops
from mcsr.aggregation import MabConfig, SabParams, sab_forward
from mcsr.config import default_config
from mcsr.pipeline import run_forward
from mcsr.swin import StgConfig, StlConfig, load_rstb_params, rstb_forward, stl_forward
from mcsr.tensor_ops import conv2d
from mcsr.weights import init_random_weights

BOUND_MB = 150
# peak <= FIXED + PER_HR_PIXEL * pixels + PER_EXTRA_WORKER * (workers - 1), on 3.11+
# about 5% above the 1-worker peaks at 128x128 and (UF 2) 256x256 in the docstring
FIXED_BYTES, PER_HR_PIXEL_BYTES = (8 << 20, 1200) if sys.version_info >= (3, 11) else (24 << 20, 1850)
PER_EXTRA_WORKER_BYTES = 5 << 20  # one 4 MiB im2col band and the padded rows it reads
# one more full-size map held per block, as when each layer returned a map, breaks it
RSTB_FIXED_BYTES = 38 << 20
# a third HR map in the last SAB, as when its output did not go over the upsampled target, breaks it
SAB_FIXED_BYTES = 32 << 20


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


def test_last_sab_peak_is_bounded():
    rng = np.random.default_rng(33)
    params = SabParams(random_conv_spec(rng, 64, 32, scale=0.1),
                       random_conv_spec(rng, 64, 32, scale=0.1),
                       random_conv_spec(rng, 32, 32, 2, transposed=True, scale=0.1))
    x_tar, f_m = channels_last(rng, 32, 128), rng.standard_normal((32, 256, 256))
    peak = peak_bytes(sab_forward, x_tar, f_m, params, MabConfig(3, True, 32))
    bound = SAB_FIXED_BYTES + PER_EXTRA_WORKER_BYTES * (tensor_ops._WORKERS - 1)
    assert peak <= bound, (f"sab_forward at level 3 on {tensor_ops._WORKERS} workers peaked at "
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
