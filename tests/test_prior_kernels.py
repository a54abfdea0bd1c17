"""The rewritten Swin layer, layer norm, convolutions and aggregation blocks
reproduce the code they replaced, bit for bit and in the same memory layout:
``tests/prior_kernels.py`` keeps that code as the oracle. Each map runs on 1,
2 and 3 workers (set through ``tensor_ops._WORKERS``, a test seam)."""

import numpy as np
import pytest
from prior_kernels import (conv2d_by_padded_copy, conv_transpose2d_by_dilated_copy,
                           instance_norm_by_copies, jrfab_forward_by_concatenation,
                           layer_norm_two_pass, sab_forward_by_concatenation,
                           stl_forward_by_roll)
from support import random_conv_spec, random_stl_params, sab_instance_norm

from mcsr import tensor_ops
from mcsr.aggregation import (JrfabParams, MabConfig, SabParams, jrfab_forward, reconstruct,
                              sab_forward)
from mcsr.swin import StlConfig, stl_forward
from mcsr.tensor_ops import (ConvSpec, _conv_core, bicubic_upsample, conv2d, conv_transpose2d,
                             layer_norm)
from mcsr.weights import WeightStore

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


# the maps the convolutions and blocks run at: the default config's HR,
# middle and LR scales, and two ragged sizes whose bands do not divide them
CONV_MAPS = [(256, 256), (128, 128), (64, 64), (17, 21), (45, 77)]
# (level, x_tar size): each map above is the size some block works at
BLOCKS = [(1, (128, 128)), (1, (64, 64)), (1, (17, 21)), (1, (45, 77)),
          (2, (128, 128)), (2, (32, 32)), (2, (17, 21)), (2, (45, 77))]


def channels_last(rng, channels, size):
    return np.ascontiguousarray(rng.standard_normal((*size, channels))).transpose(2, 0, 1)


def assert_same(got, want, what):
    assert np.array_equal(got, want), what
    assert got.strides == want.strides, f"{what}: strides {got.strides} != {want.strides}"


def each_worker_count(monkeypatch, run, want):
    for workers in (1, 2, 3):
        monkeypatch.setattr(tensor_ops, "_WORKERS", workers)
        assert_same(run(), want, f"{workers} workers")


@pytest.mark.parametrize("size", CONV_MAPS)
@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_matches_prior_kernel(monkeypatch, size, stride):
    rng = np.random.default_rng(size[0] * 1000 + size[1] + stride)
    spec = random_conv_spec(rng, 32, 32, stride)
    x = channels_last(rng, 32, size)
    each_worker_count(monkeypatch, lambda: conv2d(x, spec), conv2d_by_padded_copy(x, spec))
    planar = np.ascontiguousarray(x)
    assert_same(conv2d(planar, spec), conv2d_by_padded_copy(planar, spec), "planar input")


@pytest.mark.parametrize("size", [(128, 128), (64, 64), (32, 32), (17, 21), (45, 77)])
def test_conv_transpose2d_matches_prior_kernel(monkeypatch, size):
    rng = np.random.default_rng(size[0] * 1000 + size[1])
    spec = random_conv_spec(rng, 32, 32, 2, transposed=True)
    x = channels_last(rng, 32, size)
    each_worker_count(monkeypatch, lambda: conv_transpose2d(x, spec),
                      conv_transpose2d_by_dilated_copy(x, spec))


def test_shared_im2col_equals_convolutions_of_the_concatenation():
    rng = np.random.default_rng(50)
    maps = [channels_last(rng, 32, (45, 77)), rng.standard_normal((32, 45, 77)),
            channels_last(rng, 5, (45, 77))]
    for stride in (1, 2):
        specs = [random_conv_spec(rng, 69, c_out, stride) for c_out in (32, 32, 1)]
        stacked = np.concatenate(maps, axis=0)
        for got, spec in zip(_conv_core(maps, specs), specs):
            assert_same(got, conv2d(stacked, spec), f"stride {stride}, {spec.out_channels} out")


def test_instance_norm_matches_prior_kernel():
    # SAB normalizes f_m band by band in its epilogue; 45x76, as the unit-statistics
    # target that isolates the normalization needs an even pixel count
    rng = np.random.default_rng(51)
    for x in (channels_last(rng, 32, (45, 76)), rng.standard_normal((32, 45, 76))):
        assert_same(sab_instance_norm(x), instance_norm_by_copies(x), str(x.strides))


def block_inputs(level, size):
    """Random SAB and JRFAB parameters and inputs at one level, laid out as
    the pipeline lays them out: ``x_tar`` channels-last, ``f_m`` planar."""
    rng = np.random.default_rng(level * 100000 + size[0] * 1000 + size[1])
    scale = 2 if level > 1 else 1
    sab = SabParams(random_conv_spec(rng, 64, 32, scale=0.1),
                    random_conv_spec(rng, 64, 32, scale=0.1),
                    random_conv_spec(rng, 32, 32, 2, transposed=True, scale=0.1) if level > 1
                    else None)
    jrfab = JrfabParams(*(random_conv_spec(rng, 32, 32, scale, scale=0.1) for _ in range(3)),
                        random_conv_spec(rng, 64, 32, scale=0.1))
    x_tar = channels_last(rng, 32, size)
    f_m = rng.standard_normal((32, size[0] * scale, size[1] * scale))
    return sab, jrfab, x_tar, f_m


@pytest.mark.parametrize("level,size", BLOCKS)
@pytest.mark.parametrize("stats_source", ["pre", "post"])
def test_sab_forward_matches_prior_kernel(monkeypatch, level, size, stats_source):
    sab, _, x_tar, f_m = block_inputs(level, size)
    cfg = MabConfig(level=level, upsample=level > 1, channels=32, stats_source=stats_source)
    want = sab_forward_by_concatenation(x_tar, f_m, sab, cfg)
    if level > 1:  # written over the upsampled target, laid out channels-last
        want = np.ascontiguousarray(want.transpose(1, 2, 0)).transpose(2, 0, 1)
    each_worker_count(monkeypatch, lambda: sab_forward(x_tar, f_m, sab, cfg), want)
    if stats_source == "post":
        return
    f_m = np.ascontiguousarray(f_m.transpose(1, 2, 0)).transpose(2, 0, 1)
    assert_same(sab_forward(x_tar, f_m, sab, cfg),
                sab_forward_by_concatenation(x_tar, f_m, sab, cfg), "channels-last f_m")


@pytest.mark.parametrize("level,size", BLOCKS)
def test_jrfab_forward_matches_prior_kernel(monkeypatch, level, size):
    _, jrfab, x_tar, f_hat = block_inputs(level, size)
    cfg = MabConfig(level=level, upsample=level > 1, channels=32)
    want = jrfab_forward_by_concatenation(f_hat, x_tar, jrfab, cfg)
    each_worker_count(monkeypatch, lambda: jrfab_forward(f_hat, x_tar, jrfab, cfg), want)


@pytest.mark.parametrize("global_residual", [True, False])
def test_reconstruct_keeps_bits_and_layout(global_residual):
    # the SR image's layout sets the summation order of every metric and loss
    # computed on it, so it is part of what a rewrite must keep; numpy lays
    # out the sum of a C- and an F-ordered 256x256 map in F order (128x128: C)
    rng = np.random.default_rng(52)
    store = WeightStore()
    store.set("head.weight", rng.standard_normal((1, 32, 3, 3)))
    store.set("head.bias", rng.standard_normal(1))
    features, lr = channels_last(rng, 32, (256, 256)), rng.uniform(size=(128, 128))
    want = conv2d_by_padded_copy(features, ConvSpec.load(store, "head", 32, 1))[0]
    if global_residual:
        want = want + bicubic_upsample(lr, 2)
    assert_same(reconstruct(features, lr, store, 2, global_residual), want, "reconstruct")
