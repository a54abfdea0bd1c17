"""The rewritten Swin layer and layer norm reproduce the code they replaced,
bit for bit: ``tests/prior_kernels.py`` keeps that code as the oracle. Each
map runs planar and channels-last, on 1, 2 and 3 workers (set through
``tensor_ops._WORKERS``, a test seam)."""

import numpy as np
import pytest
from prior_kernels import layer_norm_two_pass, stl_forward_by_roll
from support import random_stl_params

from mcsr import tensor_ops
from mcsr.swin import StlConfig, stl_forward
from mcsr.tensor_ops import layer_norm

# (rows, cols) and the shifts run there: 256x256 is the default config's
# reference map; 45x77, 17x21 and 9x12 pad; 8x8 is a single window
MAPS = [((256, 256), 0), ((256, 256), 4)] + [
    (size, shift) for size in ((64, 64), (45, 77), (17, 21), (9, 12), (8, 8)) for shift in (0, 4)]


@pytest.mark.parametrize("size,shift", MAPS)
def test_stl_forward_matches_prior_kernel(monkeypatch, size, shift):
    rng = np.random.default_rng(size[0] * 1000 + size[1] + shift)
    cfg = StlConfig(embed_dim=32, num_heads=4, window=8, shift=shift, mlp_ratio=2.0)
    params = random_stl_params(rng, cfg, scale=0.3)
    planar = rng.standard_normal((32, *size))
    channels_last = np.ascontiguousarray(planar.transpose(1, 2, 0)).transpose(2, 0, 1)
    want = stl_forward_by_roll(channels_last, cfg, params)
    for workers in (1, 2, 3):
        monkeypatch.setattr(tensor_ops, "_WORKERS", workers)
        for layout, x in (("planar", planar), ("channels-last", channels_last)):
            got = stl_forward(x, cfg, params)
            assert np.array_equal(got, want), f"{layout}, {workers} workers"


def test_small_config_layer_matches_prior_kernel():
    # the small config's shape: window 4, two heads of 4 channels
    rng = np.random.default_rng(40)
    for shift in (0, 2):
        cfg = StlConfig(embed_dim=8, num_heads=2, window=4, shift=shift, mlp_ratio=2.0)
        params = random_stl_params(rng, cfg, scale=0.3)
        x = rng.standard_normal((8, 17, 21))
        assert np.array_equal(stl_forward(x, cfg, params), stl_forward_by_roll(x, cfg, params))


@pytest.mark.parametrize("dim", [1, 2, 7, 8, 32, 64, 200])
def test_layer_norm_matches_two_pass_formula(dim):
    rng = np.random.default_rng(dim)
    gain, bias = rng.standard_normal(dim), rng.standard_normal(dim)
    tokens = rng.standard_normal((300, dim)) * rng.uniform(0.0, 1e3, size=(300, 1))
    strided = {
        "contiguous": tokens,
        "fortran": np.asfortranarray(tokens),
        "every other token": np.repeat(tokens, 2, axis=0)[::2],
        "transposed": np.ascontiguousarray(tokens.T).T,
    }
    for layout, view in strided.items():
        assert np.array_equal(layer_norm(view, gain, bias),
                              layer_norm_two_pass(view, gain, bias)), layout
