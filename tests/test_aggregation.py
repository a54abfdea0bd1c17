from dataclasses import replace

import numpy as np
import pytest
from support import random_conv_spec, zero_conv_spec

from mcsr.aggregation import (JrfabParams, MabConfig, SabParams, jrfab_forward,
                              load_jrfab_params, load_sab_params, mab_chain,
                              reconstruct, sab_forward)
from mcsr.errors import ConfigError
from mcsr.matching import MatchedPyramid
from mcsr.tensor_ops import (bicubic_upsample, conv2d, conv_transpose2d,
                             instance_norm)
from mcsr.weights import WeightStore


def sab_params(rng, channels, upsample=False, zero_mod=False, scale=0.1):
    make = zero_conv_spec if zero_mod else (
        lambda ci, co, stride=1: random_conv_spec(rng, ci, co, stride, scale=scale)
    )
    up = None
    if upsample:
        up = random_conv_spec(rng, channels, channels, stride=2, transposed=True, scale=scale)
    return SabParams(
        conv_alpha=make(2 * channels, channels),
        conv_beta=make(2 * channels, channels),
        upsample=up,
    )


class TestSab:
    def test_zero_modulation_transfers_statistics(self):
        rng = np.random.default_rng(0)
        channels = 3
        x_tar = 2.0 * rng.standard_normal((channels, 8, 8)) + 1.5
        f_m = rng.standard_normal((channels, 8, 8))
        cfg = MabConfig(level=1, upsample=False, channels=channels)
        out = sab_forward(x_tar, f_m, sab_params(rng, channels, zero_mod=True), cfg)
        assert np.max(np.abs(out.mean(axis=(1, 2)) - x_tar.mean(axis=(1, 2)))) <= 1e-4
        assert np.max(np.abs(out.std(axis=(1, 2)) - x_tar.std(axis=(1, 2)))) <= 1e-3

    def test_zero_modulation_transfer_after_upsample(self):
        rng = np.random.default_rng(1)
        channels = 3
        x_tar = rng.standard_normal((channels, 6, 6)) * 3.0
        f_m = rng.standard_normal((channels, 12, 12))
        params = sab_params(rng, channels, upsample=True, zero_mod=True)
        cfg = MabConfig(level=2, upsample=True, channels=channels)
        out = sab_forward(x_tar, f_m, params, cfg)
        # statistics come from the PRE-upsample target features
        assert np.max(np.abs(out.mean(axis=(1, 2)) - x_tar.mean(axis=(1, 2)))) <= 1e-4
        assert np.max(np.abs(out.std(axis=(1, 2)) - x_tar.std(axis=(1, 2)))) <= 1e-3

    def test_constant_matched_features_yield_beta(self):
        rng = np.random.default_rng(2)
        channels = 2
        x_tar = rng.standard_normal((channels, 8, 8))
        f_m = np.ones((channels, 8, 8)) * np.array([2.0, -1.0])[:, None, None]
        params = sab_params(rng, channels)
        cfg = MabConfig(level=1, upsample=False, channels=channels)
        out = sab_forward(x_tar, f_m, params, cfg)
        stacked = np.concatenate([x_tar, f_m], axis=0)
        beta = x_tar.mean(axis=(1, 2))[:, None, None] + conv2d(stacked, params.conv_beta)
        assert np.array_equal(out, beta)

    def test_matches_scripted_composition(self):
        rng = np.random.default_rng(3)
        channels = 2
        x_tar = rng.standard_normal((channels, 8, 8))
        f_m = rng.standard_normal((channels, 8, 8))
        params = sab_params(rng, channels)
        cfg = MabConfig(level=1, upsample=False, channels=channels)
        got = sab_forward(x_tar, f_m, params, cfg)
        stacked = np.concatenate([x_tar, f_m], axis=0)
        sigma = x_tar.std(axis=(1, 2))[:, None, None]
        mu = x_tar.mean(axis=(1, 2))[:, None, None]
        alpha = sigma * (1.0 + conv2d(stacked, params.conv_alpha))
        beta = mu + conv2d(stacked, params.conv_beta)
        want = instance_norm(f_m) * alpha + beta
        assert np.max(np.abs(got - want)) <= 1e-6

    @pytest.mark.parametrize("conv", ["conv_alpha", "conv_beta"])
    def test_stride_two_modulation_raises(self, conv):
        rng = np.random.default_rng(13)
        channels = 2
        params = sab_params(rng, channels)
        params = replace(params, **{conv: random_conv_spec(rng, 2 * channels, channels, 2)})
        cfg = MabConfig(level=1, upsample=False, channels=channels)
        with pytest.raises(ConfigError, match="stride 1"):
            sab_forward(np.zeros((channels, 10, 10)), np.zeros((channels, 10, 10)), params, cfg)

    def test_post_upsample_statistics_switch(self):
        rng = np.random.default_rng(4)
        channels = 2
        x_tar = rng.standard_normal((channels, 6, 6))
        f_m = rng.standard_normal((channels, 12, 12))
        params = sab_params(rng, channels, upsample=True, zero_mod=True)
        pre = sab_forward(x_tar, f_m, params, MabConfig(2, True, channels, "pre"))
        post = sab_forward(x_tar, f_m, params, MabConfig(2, True, channels, "post"))
        x_up = conv_transpose2d(x_tar, params.upsample)
        assert np.max(np.abs(post.mean(axis=(1, 2)) - x_up.mean(axis=(1, 2)))) <= 1e-4
        assert not np.allclose(pre, post)

    def test_shape_mismatch_raises(self):
        rng = np.random.default_rng(5)
        channels = 2
        with pytest.raises(ConfigError):
            sab_forward(
                np.zeros((channels, 8, 8)), np.zeros((channels, 10, 10)),
                sab_params(rng, channels), MabConfig(1, False, channels),
            )


class TestJrfab:
    def test_zero_convt_collapse(self):
        rng = np.random.default_rng(10)
        channels = 3
        f_hat = rng.standard_normal((channels, 8, 8))
        x_tar = rng.standard_normal((channels, 8, 8))
        params = JrfabParams(
            reduce=random_conv_spec(rng, channels, channels, 1),
            expand_ref=zero_conv_spec(channels, channels, 1),
            expand_tar=zero_conv_spec(channels, channels, 1),
            fuse=random_conv_spec(rng, 2 * channels, channels, 1),
        )
        cfg = MabConfig(level=1, upsample=False, channels=channels)
        got = jrfab_forward(f_hat, x_tar, params, cfg)
        want = conv2d(np.concatenate([f_hat, np.zeros_like(x_tar)], axis=0), params.fuse)
        assert np.array_equal(got, want)

    def test_all_zero_inputs_and_biases(self):
        channels = 2
        params = JrfabParams(
            reduce=zero_conv_spec(channels, channels, 1),
            expand_ref=zero_conv_spec(channels, channels, 1),
            expand_tar=zero_conv_spec(channels, channels, 1),
            fuse=zero_conv_spec(2 * channels, channels, 1),
        )
        cfg = MabConfig(level=1, upsample=False, channels=channels)
        out = jrfab_forward(np.zeros((channels, 8, 8)), np.zeros((channels, 8, 8)), params, cfg)
        assert np.all(out == 0.0)

    def test_level2_matches_scripted_composition(self):
        # 100 random instances of the dual-branch refinement against its
        # primitive-by-primitive transcription
        rng = np.random.default_rng(11)
        channels = 2
        for _ in range(100):
            size = int(rng.integers(3, 7))
            f_hat = rng.standard_normal((channels, 2 * size, 2 * size))
            x_tar = rng.standard_normal((channels, size, size))
            params = JrfabParams(
                reduce=random_conv_spec(rng, channels, channels, 2),
                expand_ref=random_conv_spec(rng, channels, channels, 2, transposed=True),
                expand_tar=random_conv_spec(rng, channels, channels, 2, transposed=True),
                fuse=random_conv_spec(rng, 2 * channels, channels, 1),
            )
            cfg = MabConfig(level=2, upsample=True, channels=channels)
            got = jrfab_forward(f_hat, x_tar, params, cfg)
            down = conv2d(f_hat, params.reduce)
            ref_branch = f_hat + conv_transpose2d(down - x_tar, params.expand_ref)
            tar_branch = conv_transpose2d(x_tar + (x_tar - down), params.expand_tar)
            want = conv2d(np.concatenate([ref_branch, tar_branch], axis=0), params.fuse)
            assert np.max(np.abs(got - want)) <= 1e-6

    def test_scale_mismatch_raises(self):
        rng = np.random.default_rng(12)
        channels = 2
        params = JrfabParams(
            reduce=random_conv_spec(rng, channels, channels, 2),
            expand_ref=random_conv_spec(rng, channels, channels, 2, transposed=True),
            expand_tar=random_conv_spec(rng, channels, channels, 2, transposed=True),
            fuse=random_conv_spec(rng, 2 * channels, channels, 1),
        )
        cfg = MabConfig(level=2, upsample=True, channels=channels)
        with pytest.raises(ConfigError):
            jrfab_forward(np.zeros((channels, 12, 12)), np.zeros((channels, 5, 5)), params, cfg)
        level1 = MabConfig(level=1, upsample=False, channels=channels)  # stride-2 params
        with pytest.raises(ConfigError):
            jrfab_forward(np.zeros((channels, 5, 5)), np.zeros((channels, 5, 5)), params, level1)


def build_mab_store(rng, channels, levels, scale=0.05):
    store = WeightStore()
    for level in range(1, levels + 1):
        if level > 1:
            store.set(f"mab{level}.sab.up.weight", scale * rng.standard_normal((channels, channels, 3, 3)))
            store.set(f"mab{level}.sab.up.bias", scale * rng.standard_normal(channels))
        for kind in ("alpha", "beta"):
            store.set(f"mab{level}.sab.{kind}.weight", scale * rng.standard_normal((channels, 2 * channels, 3, 3)))
            store.set(f"mab{level}.sab.{kind}.bias", scale * rng.standard_normal(channels))
        for kind in ("down", "ta", "tb"):
            store.set(f"mab{level}.jrfab.{kind}.weight", scale * rng.standard_normal((channels, channels, 3, 3)))
            store.set(f"mab{level}.jrfab.{kind}.bias", scale * rng.standard_normal(channels))
        store.set(f"mab{level}.jrfab.fuse.weight", scale * rng.standard_normal((channels, 2 * channels, 3, 3)))
        store.set(f"mab{level}.jrfab.fuse.bias", scale * rng.standard_normal(channels))
    return store


def matched_pyramid(rng, channels, base, levels):
    return MatchedPyramid(tuple(
        rng.standard_normal((channels, base * 2**i, base * 2**i)) for i in range(levels)
    ))


class TestMabChain:
    def test_uf4_scale_chain(self):
        rng = np.random.default_rng(20)
        channels = 4
        store = build_mab_store(rng, channels, 3)
        f_tar = rng.standard_normal((channels, 8, 8))
        out = mab_chain(f_tar, matched_pyramid(rng, channels, 8, 3), store, channels)
        assert out.shape == (channels, 32, 32)

    def test_uf2_scale_chain(self):
        rng = np.random.default_rng(21)
        channels = 4
        store = build_mab_store(rng, channels, 2)
        f_tar = rng.standard_normal((channels, 8, 8))
        out = mab_chain(f_tar, matched_pyramid(rng, channels, 8, 2), store, channels)
        assert out.shape == (channels, 16, 16)

    def test_matches_manual_composition(self):
        rng = np.random.default_rng(22)
        channels = 3
        store = build_mab_store(rng, channels, 2)
        f_tar = rng.standard_normal((channels, 8, 8))
        matched = matched_pyramid(rng, channels, 8, 2)
        got = mab_chain(f_tar, matched, store, channels)
        x = f_tar
        for level in (1, 2):
            cfg = MabConfig(level=level, upsample=level > 1, channels=channels)
            f_hat = sab_forward(x, matched.levels[level - 1], load_sab_params(store, level, channels), cfg)
            x = jrfab_forward(f_hat, x, load_jrfab_params(store, level, channels), cfg)
        assert np.array_equal(got, x)

    def test_wrong_level_shape_raises(self):
        rng = np.random.default_rng(23)
        channels = 3
        store = build_mab_store(rng, channels, 2)
        bad = MatchedPyramid((
            rng.standard_normal((channels, 10, 10)),
            rng.standard_normal((channels, 20, 20)),
        ))
        with pytest.raises(ConfigError):
            mab_chain(rng.standard_normal((channels, 8, 8)), bad, store, channels)


class TestReconstruct:
    def _store(self, channels, zero=False, rng=None):
        store = WeightStore()
        if zero:
            store.set("head.weight", np.zeros((1, channels, 3, 3)))
            store.set("head.bias", np.zeros(1))
        else:
            store.set("head.weight", 0.1 * rng.standard_normal((1, channels, 3, 3)))
            store.set("head.bias", 0.1 * rng.standard_normal(1))
        return store

    def test_zero_head_equals_bicubic(self):
        rng = np.random.default_rng(30)
        lr = rng.uniform(size=(8, 8))
        features = rng.standard_normal((4, 16, 16))
        out = reconstruct(features, lr, self._store(4, zero=True), 2)
        assert np.array_equal(out, bicubic_upsample(lr, 2))

    def test_zero_everything_zero_image(self):
        out = reconstruct(np.zeros((4, 16, 16)), np.zeros((8, 8)), self._store(4, zero=True), 2)
        assert np.all(out == 0.0)

    def test_full_size_shape(self):
        out = reconstruct(np.zeros((32, 256, 256)), np.zeros((64, 64)), self._store(32, zero=True), 4)
        assert out.shape == (256, 256)

    def test_global_residual_flag(self):
        rng = np.random.default_rng(31)
        lr = rng.uniform(size=(8, 8))
        features = rng.standard_normal((4, 16, 16))
        store = self._store(4, rng=rng)
        with_res = reconstruct(features, lr, store, 2, global_residual=True)
        without = reconstruct(features, lr, store, 2, global_residual=False)
        assert np.max(np.abs((with_res - without) - bicubic_upsample(lr, 2))) <= 1e-12
