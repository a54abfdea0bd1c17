from dataclasses import replace

import numpy as np
import pytest
from support import random_conv_spec, sab_instance_norm, zero_conv_spec

from mcsr.aggregation import (JrfabParams, MabConfig, SabParams, jrfab_forward, reconstruct,
                              sab_forward)
from mcsr.errors import InputError
from mcsr.tensor_ops import VARIANCE_EPS, bicubic_upsample, conv2d, conv_transpose2d
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
        normalized = ((f_m - f_m.mean(axis=(1, 2), keepdims=True))
                      / np.sqrt(f_m.var(axis=(1, 2), keepdims=True) + VARIANCE_EPS))
        want = normalized * alpha + beta
        assert np.max(np.abs(got - want)) <= 1e-6

    @pytest.mark.parametrize("conv", ["conv_alpha", "conv_beta"])
    def test_stride_two_modulation_raises(self, conv):
        rng = np.random.default_rng(13)
        channels = 2
        params = sab_params(rng, channels)
        params = replace(params, **{conv: random_conv_spec(rng, 2 * channels, channels, 2)})
        cfg = MabConfig(level=1, upsample=False, channels=channels)
        with pytest.raises(InputError, match="stride 1"):
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
        with pytest.raises(InputError):
            sab_forward(
                np.zeros((channels, 8, 8)), np.zeros((channels, 10, 10)),
                sab_params(rng, channels), MabConfig(1, False, channels),
            )

    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize("stats_source", ["pre", "post"])
    def test_arguments_are_left_unchanged(self, level, stats_source):
        # the output goes over a map SAB made (level 2) or a new one, never an argument
        rng = np.random.default_rng(6)
        x_tar = rng.standard_normal((4, 9, 11))
        f_m = rng.standard_normal((4, 9 * level, 11 * level))
        params = sab_params(rng, 4, upsample=level > 1)
        kept = x_tar.copy(), f_m.copy()
        sab_forward(x_tar, f_m, params, MabConfig(level, level > 1, 4, stats_source))
        assert np.array_equal(x_tar, kept[0]) and np.array_equal(f_m, kept[1])


class TestSabNormalization:
    """SAB instance-normalizes the matched features per channel (population
    std), isolated by ``support.sab_instance_norm``."""

    def test_constant_channel_zeroed(self):
        out = sab_instance_norm(np.full((2, 4, 4), 3.5))
        assert np.all(out == 0.0)

    def test_symmetric_channel(self):
        x = np.array([[[-1.0, 1.0]]])
        assert np.max(np.abs(sab_instance_norm(x) - x)) <= 1e-4

    def test_random_statistics(self):
        rng = np.random.default_rng(30)
        out = sab_instance_norm(rng.standard_normal((3, 8, 8)))
        assert np.max(np.abs(out.mean(axis=(1, 2)))) <= 1e-5
        assert np.max(np.abs(out.std(axis=(1, 2)) - 1.0)) <= 1e-4

    def test_idempotent_up_to_epsilon(self):
        rng = np.random.default_rng(31)
        once = sab_instance_norm(rng.standard_normal((3, 8, 8)))
        twice = sab_instance_norm(once)
        assert np.max(np.abs(twice - once)) <= 1e-4


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

    @pytest.mark.parametrize("level", [1, 2])
    def test_arguments_are_left_unchanged(self, level):
        # the fuse convolution writes over the reference branch, which JRFAB made
        rng = np.random.default_rng(14)
        scale = 2 if level > 1 else 1
        f_hat = rng.standard_normal((4, 9 * scale, 11 * scale))
        x_tar = rng.standard_normal((4, 9, 11))
        params = JrfabParams(
            reduce=random_conv_spec(rng, 4, 4, scale),
            expand_ref=random_conv_spec(rng, 4, 4, scale, transposed=level > 1),
            expand_tar=random_conv_spec(rng, 4, 4, scale, transposed=level > 1),
            fuse=random_conv_spec(rng, 8, 4, 1),
        )
        kept = f_hat.copy(), x_tar.copy()
        jrfab_forward(f_hat, x_tar, params, MabConfig(level, level > 1, 4))
        assert np.array_equal(f_hat, kept[0]) and np.array_equal(x_tar, kept[1])

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
        with pytest.raises(InputError):
            jrfab_forward(np.zeros((channels, 12, 12)), np.zeros((channels, 5, 5)), params, cfg)
        level1 = MabConfig(level=1, upsample=False, channels=channels)  # stride-2 params
        with pytest.raises(InputError):
            jrfab_forward(np.zeros((channels, 5, 5)), np.zeros((channels, 5, 5)), params, level1)


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
