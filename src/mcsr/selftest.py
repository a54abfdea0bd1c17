"""Built-in oracle suites, run by ``mcsr selftest``.

Each module gets a list of named checks at fixed seeds; a check passes when
it returns without raising. The suites compare the production kernels
against the loop-based references in :mod:`mcsr.oracles`, so they need no
external weights or data.
"""

import math

import numpy as np

from . import oracles
from .aggregation import (JrfabParams, MabConfig, SabParams, jrfab_forward, sab_forward)
from .kspace import central_mask, degrade, fft2_centered, ifft2_centered, zero_fill_upsample
from .losses import LossWeights, dc_loss, full_loss, loss_gradient, psnr, rec_loss, rmse, ssim
from .matching import MatchConfig, compute_matches, match_all
from .pipeline import run_forward
from .pyramid import FeaturePyramid
from .swin import (StgConfig, StlParams, _merge_grid, _pad_to_window, _partition_grid,
                   _window_attention, load_stg_params, relative_position_index, stg_forward)
from .tensor_ops import (ConvSpec, bilinear_upsample, conv2d, conv_transpose2d,
                         instance_norm, layer_norm, softmax)
from .weights import WeightStore, _stg_parameter_names, init_random_weights


def _rng(seed):
    return np.random.default_rng(seed)


# The builders below are shared with the test suite (tests/support.py).


def _random_conv_spec(rng, c_in, c_out, stride=1, transposed=False, scale=1.0):
    shape = (c_in, c_out, 3, 3) if transposed else (c_out, c_in, 3, 3)
    return ConvSpec(c_in, c_out, stride, scale * rng.standard_normal(shape),
                    scale * rng.standard_normal(c_out))


def _random_stl_params(rng, cfg, scale=0.1):
    hidden = cfg.hidden_dim
    dim = cfg.embed_dim
    return StlParams(
        norm1_gain=np.ones(dim), norm1_bias=np.zeros(dim),
        qkv_weight=scale * rng.standard_normal((3 * dim, dim)),
        qkv_bias=scale * rng.standard_normal(3 * dim),
        proj_weight=scale * rng.standard_normal((dim, dim)),
        proj_bias=scale * rng.standard_normal(dim),
        bias_table=scale * rng.standard_normal(((2 * cfg.window - 1) ** 2, cfg.num_heads)),
        norm2_gain=np.ones(dim), norm2_bias=np.zeros(dim),
        fc1_weight=scale * rng.standard_normal((hidden, dim)),
        fc1_bias=scale * rng.standard_normal(hidden),
        fc2_weight=scale * rng.standard_normal((dim, hidden)),
        fc2_bias=scale * rng.standard_normal(dim),
    )


def _zero_stg_store(prefix, cfg, store=None):
    store = store if store is not None else WeightStore()
    for name, shape in _stg_parameter_names(prefix, cfg):
        store.set(name, np.zeros(shape))
    return store


def _check_tensor_conv_oracle():
    rng = _rng(11)
    x = rng.standard_normal((2, 5, 5))
    for stride in (1, 2):
        spec = _random_conv_spec(rng, 2, 3, stride)
        got = conv2d(x, spec)
        want = oracles.conv2d_reference(x, spec.weights, spec.bias, stride)
        assert np.max(np.abs(got - want)) <= 1e-6


def _check_tensor_transpose_oracle():
    rng = _rng(12)
    x = rng.standard_normal((3, 4, 4))
    spec = _random_conv_spec(rng, 3, 2, stride=2, transposed=True)
    got = conv_transpose2d(x, spec)
    want = oracles.conv_transpose2d_reference(x, spec.weights, spec.bias)
    assert np.max(np.abs(got - want)) <= 1e-6


def _check_tensor_adjoint():
    rng = _rng(13)
    weights = rng.standard_normal((4, 3, 3, 3))
    x = rng.standard_normal((3, 8, 8))
    y = rng.standard_normal((4, 4, 4))
    fwd = conv2d(x, ConvSpec(3, 4, 2, weights, np.zeros(4)))
    back = conv_transpose2d(y, ConvSpec(4, 3, 2, weights, np.zeros(3)))
    lhs = float(np.sum(fwd * y))
    rhs = float(np.sum(x * back))
    assert abs(lhs - rhs) <= 1e-5 * max(abs(lhs), 1.0)


def _check_tensor_bilinear_oracle():
    rng = _rng(14)
    x = rng.standard_normal((2, 3, 4))
    for factor in (1, 2, 3):
        got = bilinear_upsample(x, factor)
        want = oracles.bilinear_reference(x, factor)
        assert np.max(np.abs(got - want)) <= 1e-6


def _check_tensor_norms():
    rng = _rng(15)
    x = rng.standard_normal((3, 8, 8))
    normed = instance_norm(x)
    assert np.max(np.abs(normed.mean(axis=(1, 2)))) <= 1e-5
    assert np.max(np.abs(normed.std(axis=(1, 2)) - 1.0)) <= 1e-4
    tokens = rng.standard_normal((4, 8))
    out = layer_norm(tokens, np.ones(8), np.zeros(8))
    assert np.max(np.abs(out.mean(axis=1))) <= 1e-5
    rows = softmax(rng.standard_normal((6, 5)) * 100)
    assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= 1e-6


def _check_swin_zero_identity():
    rng = _rng(21)
    cfg = StgConfig(num_rstb=1, stl_per_rstb=2, embed_dim=4, num_heads=2, window=4, mlp_ratio=2.0)
    x = rng.standard_normal((4, 8, 8))
    zero = _zero_stg_store("stg.t", cfg)
    out = stg_forward(x, cfg, load_stg_params(zero, "stg.t", cfg))
    assert np.array_equal(out, x)


def _check_swin_attention_oracle():
    rng = _rng(22)
    cfg = StgConfig(num_rstb=1, stl_per_rstb=1, embed_dim=2, num_heads=1, window=2, mlp_ratio=1.0)
    stl = cfg.stl_config(0)
    params = _random_stl_params(rng, stl, scale=0.5)
    tokens = rng.standard_normal((1, 4, 2))
    got = _window_attention(tokens, stl, params)
    want = oracles.attention_reference(
        tokens[0], params.qkv_weight, params.qkv_bias, params.proj_weight,
        params.proj_bias, params.bias_table, relative_position_index(2), 1,
    )
    assert np.max(np.abs(got[0] - want)) <= 1e-5


def _check_swin_partition_roundtrip():
    x = _rng(23).standard_normal((5, 5, 3))
    windows, ny, nx = _partition_grid(_pad_to_window(x, 4), 4)
    assert windows.shape == (4, 16, 3)
    assert np.array_equal(_merge_grid(windows, ny, nx, 4)[:5, :5], x)


def _check_matching_oracle_parity():
    rng = _rng(31)
    for _ in range(6):
        c = int(rng.integers(1, 3))
        h = int(rng.integers(8, 16))
        w = int(rng.integers(8, 16))
        patch = int(rng.integers(3, 7))
        cfg = MatchConfig(patch_w=patch, patch_h=patch,
                          center_size=min(3, patch), region_size=min(2, patch))
        f_tar = rng.uniform(-1, 1, size=(c, h, w))
        f_ref = rng.uniform(-1, 1, size=(c, h, w))
        results, _ = compute_matches(f_tar, f_ref, cfg)
        wants = oracles.compute_matches_reference(f_tar, f_ref, cfg)
        for result, want in zip(results, wants):
            assert result.ref_center == want["center"]
            assert np.array_equal(result.index_map, want["index_map"])
            assert np.max(np.abs(result.similarity_map - want["similarity_map"])) <= 1e-6


def _check_matching_self_identity():
    rng = _rng(32)
    cfg = MatchConfig(patch_w=6, patch_h=6, center_size=3, region_size=2)
    features = rng.uniform(-1, 1, size=(2, 12, 12))
    pyramid = FeaturePyramid((features,))
    matched = match_all(features, features, pyramid, cfg)
    assert np.max(np.abs(matched.levels[0] - features)) <= 1e-4


def _check_kspace_roundtrip():
    rng = _rng(41)
    image = rng.uniform(size=(16, 16))
    back = ifft2_centered(fft2_centered(image))
    assert np.max(np.abs(back - image)) <= 1e-6 * max(1.0, np.max(np.abs(image)))
    spectrum = fft2_centered(image)
    energy_image = float(np.sum(image**2))
    energy_k = float(np.sum(np.abs(spectrum) ** 2)) / image.size
    assert abs(energy_image - energy_k) <= 1e-5 * energy_image


def _check_kspace_mask_and_degrade():
    mask2 = central_mask(256, 256, 2)
    mask4 = central_mask(256, 256, 4)
    assert mask2.mean() == 0.25
    assert mask4.mean() == 0.0625
    rng = _rng(42)
    hr = oracles.make_bandlimited_image(32, 32, 4, rng)
    lr = degrade(hr, 4)
    assert lr.shape == (8, 8)
    assert np.max(np.abs(zero_fill_upsample(lr, 4) - hr)) <= 1e-5
    flat = degrade(np.full((16, 16), 0.5), 4)
    assert np.max(np.abs(flat - 0.5)) <= 1e-6


def _check_losses_gradient():
    rng = _rng(51)
    i_sr = rng.uniform(0.2, 0.8, size=(12, 12))
    i_hr = rng.uniform(0.2, 0.8, size=(12, 12))
    mask = central_mask(12, 12, 2)
    weights = LossWeights()
    grad = loss_gradient(i_sr, i_hr, mask, weights)
    want = oracles.finite_difference_gradient(
        lambda img: full_loss(img, i_hr, mask, weights).l_full, i_sr
    )
    scale = np.maximum(np.abs(want), 1e-8)
    ok = np.abs(i_sr - i_hr) > 1e-3
    assert np.max(np.abs(grad - want)[ok] / scale[ok]) <= 1e-4


def _check_losses_dc_invariance():
    rng = _rng(52)
    i_sr = rng.uniform(size=(16, 16))
    i_hr = rng.uniform(size=(16, 16))
    mask = central_mask(16, 16, 2)
    base = dc_loss(i_sr, i_hr, mask, math.inf)
    bump = oracles.make_bandlimited_image(16, 16, 2, rng, offset=0.0, amplitude=0.05)
    assert abs(dc_loss(i_sr + bump, i_hr, mask, math.inf) - base) <= 1e-7


def _check_losses_metrics():
    image = _rng(53).uniform(size=(16, 16))
    assert psnr(image, image) == 100.0
    assert rmse(image, image) == 0.0
    assert abs(ssim(image, image) - 1.0) <= 1e-6
    shifted = np.clip(image, 0.0, 0.9)
    offset = shifted + 0.1
    assert abs(psnr(offset, shifted) - 20.0) <= 1e-6
    assert abs(rec_loss(offset, shifted) - 0.1) <= 1e-12
    rng = _rng(54)
    a = rng.uniform(size=(16, 16))
    b = rng.uniform(size=(16, 16))
    assert abs(ssim(a, b) - oracles.ssim_reference(a, b)) <= 1e-5


def _check_aggregation_sab_transfer():
    rng = _rng(61)
    channels = 3
    x_tar = rng.standard_normal((channels, 8, 8)) * 2.0 + 1.0
    f_m = rng.standard_normal((channels, 8, 8))
    params = SabParams(
        conv_alpha=ConvSpec(2 * channels, channels, 1, np.zeros((channels, 2 * channels, 3, 3)), np.zeros(channels)),
        conv_beta=ConvSpec(2 * channels, channels, 1, np.zeros((channels, 2 * channels, 3, 3)), np.zeros(channels)),
    )
    cfg = MabConfig(level=1, upsample=False, channels=channels)
    out = sab_forward(x_tar, f_m, params, cfg)
    assert np.max(np.abs(out.mean(axis=(1, 2)) - x_tar.mean(axis=(1, 2)))) <= 1e-4
    assert np.max(np.abs(out.std(axis=(1, 2)) - x_tar.std(axis=(1, 2)))) <= 1e-3


def _check_aggregation_jrfab_collapse():
    rng = _rng(62)
    channels = 3
    f_hat = rng.standard_normal((channels, 8, 8))
    x_tar = rng.standard_normal((channels, 8, 8))
    reduce = _random_conv_spec(_rng(63), channels, channels, 1)
    zero = ConvSpec(channels, channels, 1, np.zeros((channels, channels, 3, 3)), np.zeros(channels))
    fuse = _random_conv_spec(_rng(64), 2 * channels, channels, 1)
    params = JrfabParams(reduce=reduce, expand_ref=zero, expand_tar=zero, fuse=fuse)
    cfg = MabConfig(level=1, upsample=False, channels=channels)
    got = jrfab_forward(f_hat, x_tar, params, cfg)
    want = conv2d(np.concatenate([f_hat, np.zeros_like(f_hat)], axis=0), fuse)
    assert np.max(np.abs(got - want)) <= 1e-12


def _check_pipeline_forward():
    from .config import ModelConfig

    cfg = ModelConfig(
        uf=2,
        channels=8,
        stg=StgConfig(num_rstb=1, stl_per_rstb=2, embed_dim=8, num_heads=2, window=4, mlp_ratio=2.0),
        match=MatchConfig(patch_w=8, patch_h=8, center_size=5, region_size=3),
        seed=7,
    )
    store = init_random_weights(cfg)
    rng = _rng(71)
    lr = rng.uniform(size=(16, 16))
    ref = rng.uniform(size=(32, 32))
    first = run_forward(cfg, store, lr, ref)
    second = run_forward(cfg, store, lr, ref)
    assert first.shape == (32, 32)
    assert np.all(np.isfinite(first))
    assert np.array_equal(first, second)


def _check_weights_roundtrip(tmp_dir=None):
    import tempfile
    from pathlib import Path

    from .weights import load_weights, save_weights

    rng = _rng(81)
    store = WeightStore()
    for i in range(10):
        store.set(f"t{i}.weight", rng.standard_normal((2, 3)).astype(np.float32))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.mcsrw"
        save_weights(store, path)
        loaded = load_weights(path)
        assert loaded.names() == store.names()
        for name in store.names():
            assert np.array_equal(loaded.get(name), store.get(name))


SUITES = (
    ("tensor-ops", (
        ("conv2d brute-force oracle", _check_tensor_conv_oracle),
        ("conv_transpose2d scatter oracle", _check_tensor_transpose_oracle),
        ("conv/transpose adjoint identity", _check_tensor_adjoint),
        ("bilinear coordinate oracle", _check_tensor_bilinear_oracle),
        ("normalizations and softmax", _check_tensor_norms),
    )),
    ("swin-backbone", (
        ("zero-weight identity", _check_swin_zero_identity),
        ("4-token attention oracle", _check_swin_attention_oracle),
        ("partition/merge round trip", _check_swin_partition_roundtrip),
    )),
    ("context-matching", (
        ("exhaustive oracle parity", _check_matching_oracle_parity),
        ("self-match identity", _check_matching_self_identity),
    )),
    ("kspace-pipeline", (
        ("fft round trip + Parseval", _check_kspace_roundtrip),
        ("mask fractions + bandlimited round trip", _check_kspace_mask_and_degrade),
    )),
    ("losses-metrics", (
        ("finite-difference gradient", _check_losses_gradient),
        ("dc-loss sampled-spectrum invariance", _check_losses_dc_invariance),
        ("metric closed forms + ssim oracle", _check_losses_metrics),
    )),
    ("aggregation", (
        ("SAB statistic transfer", _check_aggregation_sab_transfer),
        ("JRFAB zero-ConvT collapse", _check_aggregation_jrfab_collapse),
    )),
    ("cli-plumbing", (
        ("weight store round trip", _check_weights_roundtrip),
        ("tiny end-to-end forward", _check_pipeline_forward),
    )),
)


def run_selftest(emit=print):
    """Run every suite; returns 0 when all checks pass, 1 otherwise."""
    failures = 0
    for module, checks in SUITES:
        passed = 0
        for name, check in checks:
            try:
                check()
                passed += 1
            except Exception as exc:  # noqa: BLE001 - report and keep going
                failures += 1
                emit(f"FAIL {module}: {name}: {exc!r}")
        emit(f"{module}: {passed}/{len(checks)} checks passed")
    emit("selftest " + ("PASS" if failures == 0 else f"FAIL ({failures} failures)"))
    return 0 if failures == 0 else 1
