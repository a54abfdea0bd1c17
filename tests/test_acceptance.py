"""Acceptance criteria, one test per criterion, each printing a PASS line
with its measured margin. Tolerances are pinned here and nowhere else."""

import json
import math
import time

import numpy as np

from mcsr.cli import main
from mcsr.config import default_config, to_json
from mcsr.imageio import read_image, write_image
from mcsr.kspace import central_mask, degrade, fft2_centered, zero_fill_upsample
from mcsr.losses import LossWeights, dc_loss, full_loss, loss_gradient, psnr, rmse, ssim
from mcsr.matching import MatchConfig, compute_matches, map_to_scale
from mcsr.pyramid import FeaturePyramid
from mcsr.swin import StgConfig, load_stg_params, rstb_forward, stg_forward, stl_forward
from mcsr.tensor_ops import conv2d
from oracles import compute_matches_reference, finite_difference_gradient, make_bandlimited_image
from support import random_conv_spec, zero_conv_spec, zero_stg_store

from mcsr.aggregation import JrfabParams, MabConfig, SabParams, jrfab_forward, sab_forward


def _report(number, title, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} PASS: {title}{suffix}")


def test_criterion_1_matching_oracle_parity():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    instances = 0
    for _ in range(200):
        channels = int(rng.integers(1, 3))
        h = int(rng.integers(6, 21))
        w = int(rng.integers(6, 21))
        patch = int(rng.integers(3, min(9, h + 1, w + 1)))
        center = int(rng.integers(1, patch + 1))
        region = int(rng.integers(1, min(4, patch + 1)))
        cfg = MatchConfig(patch_size=patch, center_size=center, region_size=region)
        f_tar = rng.uniform(-1.0, 1.0, size=(channels, h, w))
        f_ref = rng.uniform(-1.0, 1.0, size=(channels, h, w))
        results, _ = compute_matches(f_tar, f_ref, cfg)
        wants = compute_matches_reference(f_tar, f_ref, cfg)
        assert len(results) == len(wants)
        for result, want in zip(results, wants):
            assert result.ref_center == want["center"]
            assert result.ref_topleft == want["topleft"]
            assert np.array_equal(result.index_map, want["index_map"]), "index maps must be bit-exact"
            assert np.max(np.abs(result.similarity_map - want["similarity_map"])) <= 1e-6
        instances += 1
    elapsed = time.perf_counter() - start
    assert instances == 200
    assert elapsed <= 60.0, f"matching parity took {elapsed:.1f}s (> 60s budget)"
    _report(1, "matching oracle parity on 200 instances", f"{elapsed:.1f}s")


def test_criterion_2_self_match_identity():
    rng = np.random.default_rng(1002)
    features = rng.standard_normal((2, 39, 39))  # 3x3 patches of the default 13
    cfg = MatchConfig()
    results, grid = compute_matches(features, features, cfg)
    worst_sim = 0.0
    for result in results:
        worst_sim = max(worst_sim, float(np.max(np.abs(result.similarity_map - 1.0))))
    assert worst_sim <= 1e-6
    matched = map_to_scale(results, grid, FeaturePyramid((features,)), 1, cfg)
    worst = float(np.max(np.abs(matched - features)))
    assert worst <= 1e-4
    _report(2, "self-match reproduces target features",
            f"max feature error {worst:.2e}, max similarity error {worst_sim:.2e}")


def test_criterion_3_kspace_retention():
    assert central_mask(256, 256, 2).mean() == 0.25
    assert central_mask(256, 256, 4).mean() == 0.0625
    rng = np.random.default_rng(1003)
    worst = 0.0
    for uf in (2, 4):
        hr = make_bandlimited_image(64, 64, uf, rng)
        lr = degrade(hr, uf)
        worst = max(worst, float(np.max(np.abs(zero_fill_upsample(lr, uf) - hr))))
    assert worst <= 1e-5
    _report(3, "central retention fractions exact, bandlimited round trip",
            f"max round-trip error {worst:.2e}")


def test_criterion_4_dc_loss_invariance():
    rng = np.random.default_rng(1004)
    i_sr = rng.uniform(size=(32, 32))
    i_hr = rng.uniform(size=(32, 32))
    mask = central_mask(32, 32, 2)
    base = dc_loss(i_sr, i_hr, mask, math.inf)
    worst_change = 0.0
    for _ in range(50):
        bump = make_bandlimited_image(32, 32, 2, rng, offset=0.0, amplitude=0.05)
        worst_change = max(worst_change,
                           abs(dc_loss(i_sr + bump, i_hr, mask, math.inf) - base))
    assert worst_change <= 1e-7
    diff = fft2_centered(i_sr) - fft2_centered(i_hr)
    outside = np.abs(diff[~mask]) ** 2
    want = outside.mean() * (outside.size / mask.size)
    rel = abs(base - want) / want
    assert rel <= 1e-6
    _report(4, "dc-loss invariant to sampled-spectrum perturbations",
            f"max change {worst_change:.2e}, oracle rel err {rel:.2e}")


def test_criterion_5_gradient_checks():
    rng = np.random.default_rng(1005)
    mask = central_mask(16, 16, 2)
    weights = LossWeights()
    worst = 0.0
    for _ in range(20):
        i_sr = rng.uniform(0.1, 0.9, size=(16, 16))
        i_hr = rng.uniform(0.1, 0.9, size=(16, 16))
        grad = loss_gradient(i_sr, i_hr, mask, weights)
        fd = finite_difference_gradient(
            lambda img: full_loss(img, i_hr, mask, weights).l_full, i_sr, step=1e-4
        )
        smooth = np.abs(i_sr - i_hr) > 1e-3
        rel = np.abs(grad - fd)[smooth] / np.maximum(np.abs(fd)[smooth], 1e-12)
        worst = max(worst, float(np.max(rel)))
    assert worst <= 1e-4
    _report(5, "analytic gradient matches finite differences", f"max rel err {worst:.2e}")


def test_criterion_6_zero_weight_identities():
    rng = np.random.default_rng(1006)
    stg_cfg = StgConfig(num_rstb=2, stl_per_rstb=2, embed_dim=8, num_heads=2,
                        window=4, mlp_ratio=2.0)
    store = zero_stg_store("stg.z", stg_cfg)
    params = load_stg_params(store, "stg.z", stg_cfg)
    x = rng.standard_normal((8, 12, 12))
    assert np.array_equal(stl_forward(x, stg_cfg.stl_config(0), params.rstbs[0].stls[0]), x)
    assert np.array_equal(stl_forward(x, stg_cfg.stl_config(1), params.rstbs[0].stls[1]), x)
    assert np.array_equal(rstb_forward(x, stg_cfg, params.rstbs[0]), x)
    assert np.array_equal(stg_forward(x, stg_cfg, params), x)

    channels = 4
    x_tar = 2.5 * rng.standard_normal((channels, 10, 10)) + 0.5
    f_m = rng.standard_normal((channels, 10, 10))
    sab = SabParams(
        conv_alpha=zero_conv_spec(2 * channels, channels),
        conv_beta=zero_conv_spec(2 * channels, channels),
    )
    out = sab_forward(x_tar, f_m, sab, MabConfig(1, False, channels))
    mean_err = float(np.max(np.abs(out.mean(axis=(1, 2)) - x_tar.mean(axis=(1, 2)))))
    std_err = float(np.max(np.abs(out.std(axis=(1, 2)) - x_tar.std(axis=(1, 2)))))
    assert mean_err <= 1e-4
    assert std_err <= 1e-3

    f_hat = rng.standard_normal((channels, 10, 10))
    jrfab = JrfabParams(
        reduce=random_conv_spec(rng, channels, channels, 1),
        expand_ref=zero_conv_spec(channels, channels, 1),
        expand_tar=zero_conv_spec(channels, channels, 1),
        fuse=random_conv_spec(rng, 2 * channels, channels, 1),
    )
    got = jrfab_forward(f_hat, x_tar, jrfab, MabConfig(1, False, channels))
    want = conv2d(np.concatenate([f_hat, np.zeros_like(f_hat)], axis=0), jrfab.fuse)
    assert np.array_equal(got, want)
    _report(6, "zero-weight identities and statistic transfer",
            f"SAB mean err {mean_err:.2e}, std err {std_err:.2e}")


def test_criterion_7_end_to_end_contract(tmp_path):
    cfg = default_config()
    config_path = tmp_path / "config.json"
    config_path.write_text(to_json(cfg))
    rng = np.random.default_rng(1007)
    lr_path = tmp_path / "lr.mcimg"
    ref_path = tmp_path / "ref.mcimg"
    write_image(lr_path, rng.uniform(size=(64, 64)))
    write_image(ref_path, rng.uniform(size=(256, 256)))
    durations = []
    outputs = []
    for run in range(2):
        out = tmp_path / f"sr_{run}.mcimg"
        start = time.perf_counter()
        code = main(["forward", str(lr_path), str(ref_path),
                     "--config", str(config_path), "--out", str(out)])
        durations.append(time.perf_counter() - start)
        assert code == 0
        outputs.append(out.read_bytes())
        image = read_image(out)
        assert image.shape == (256, 256)
        assert np.all(np.isfinite(image))
    assert outputs[0] == outputs[1], "two runs must be bitwise identical"
    assert max(durations) <= 30.0, f"forward took {max(durations):.1f}s (> 30s budget)"
    _report(7, "end-to-end forward at the default desk config",
            f"runs {durations[0]:.1f}s / {durations[1]:.1f}s")


def test_criterion_8_metric_closed_forms():
    rng = np.random.default_rng(1008)
    image = rng.uniform(size=(32, 32))
    assert abs(ssim(image, image) - 1.0) <= 1e-6
    assert rmse(image, image) == 0.0
    assert psnr(image, image) == 100.0
    base = rng.uniform(0.0, 0.9, size=(32, 32))
    offset = base + 0.1
    psnr_err = abs(psnr(offset, base) - 20.0)
    rmse_err = abs(rmse(offset, base) - 0.1)
    assert psnr_err <= 1e-5
    assert rmse_err <= 1e-7
    _report(8, "metric closed forms", f"psnr err {psnr_err:.2e}, rmse err {rmse_err:.2e}")


def test_criterion_9_hyperparameter_fidelity():
    payload = json.loads(to_json(default_config()))
    assert payload["match"]["patch_size"] == 13
    assert payload["stg"]["num_rstb"] == 4
    assert payload["stg"]["stl_per_rstb"] == 6
    assert payload["loss"]["lambda_rec"] == 1.0
    assert payload["loss"]["lambda_dc"] == 0.0001
    assert payload["loss"]["noise_level"] == "infinity"
    assert payload["uf"] == 4
    _report(9, "default config carries the published hyperparameters")
