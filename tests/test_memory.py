"""Peak memory of the two blocked kernels at the reference size (256x256),
traced with tracemalloc, which sees numpy's buffers. Run over the whole
map at once, each peaked near 370 MB. Blocked, the shifted Swin layer peaks
near 51 MB (85 MB while it still built a full-map shift mask), and the
64->32 convolution near 84 MB."""

import tracemalloc

import numpy as np
from support import random_conv_spec, random_stl_params

from mcsr.swin import StlConfig, stl_forward
from mcsr.tensor_ops import conv2d

BOUND_MB = 150


def peak_mb(func, *args):
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def channels_last(rng, channels, size):
    return np.ascontiguousarray(rng.standard_normal((size, size, channels))).transpose(2, 0, 1)


def test_swin_layer_peak_is_bounded():
    rng = np.random.default_rng(30)
    cfg = StlConfig(embed_dim=32, num_heads=4, window=8, shift=4, mlp_ratio=2.0)
    params = random_stl_params(rng, cfg)
    x = channels_last(rng, 32, 256)
    peak = peak_mb(stl_forward, x, cfg, params)
    assert peak < BOUND_MB, f"stl_forward peaked at {peak:.0f} MB"


def test_conv_peak_is_bounded():
    rng = np.random.default_rng(31)
    spec = random_conv_spec(rng, 64, 32)
    x = channels_last(rng, 64, 256)
    peak = peak_mb(conv2d, x, spec)
    assert peak < BOUND_MB, f"conv2d peaked at {peak:.0f} MB"
