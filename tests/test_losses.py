import math
import re

import numpy as np
import pytest
from oracles import finite_difference_gradient, make_bandlimited_image, ssim_reference

from mcsr.errors import InputError
from mcsr.kspace import central_mask, fft2_centered
from mcsr.losses import (LossWeights, dc_loss, dc_replace, full_loss, loss_gradient,
                         psnr, rec_loss, rmse, ssim)


class TestRecLoss:
    def test_identical_images(self):
        image = np.random.default_rng(0).uniform(size=(8, 8))
        assert rec_loss(image, image) == 0.0

    def test_hand_example(self):
        i_sr = np.array([[0.0, 1.0], [1.0, 0.0]])
        i_hr = np.array([[1.0, 1.0], [0.0, 0.0]])
        assert rec_loss(i_sr, i_hr) == 0.5

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(size=(9, 7))
        b = rng.uniform(size=(9, 7))
        want = sum(abs(a[i, j] - b[i, j]) for i in range(9) for j in range(7)) / 63.0
        assert abs(rec_loss(a, b) - want) <= 1e-7

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            rec_loss(np.zeros((4, 4)), np.zeros((4, 5)))


class TestDcReplace:
    def _grids(self, seed=2, size=8):
        rng = np.random.default_rng(seed)
        k_sr = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        k_hr = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        return k_sr, k_hr, central_mask(size, size, 2)

    def test_infinite_noise_selects_exactly(self):
        k_sr, k_hr, mask = self._grids()
        k_dc = dc_replace(k_sr, k_hr, mask, math.inf)
        assert np.array_equal(k_dc[mask], k_hr[mask])
        assert np.array_equal(k_dc[~mask], k_sr[~mask])

    def test_zero_noise_passthrough(self):
        k_sr, k_hr, mask = self._grids()
        assert np.array_equal(dc_replace(k_sr, k_hr, mask, 0.0), k_sr)

    def test_unit_noise_averages(self):
        k_sr, k_hr, mask = self._grids()
        k_dc = dc_replace(k_sr, k_hr, mask, 1.0)
        want = np.where(mask, (k_sr + k_hr) / 2.0, k_sr)
        assert np.max(np.abs(k_dc - want)) <= 1e-7


class TestDcLoss:
    def test_identical_images(self):
        image = np.random.default_rng(3).uniform(size=(16, 16))
        mask = central_mask(16, 16, 2)
        assert dc_loss(image, image, mask, math.inf) == 0.0

    def test_sampled_spectrum_perturbation_invariance(self):
        rng = np.random.default_rng(4)
        i_sr = rng.uniform(size=(16, 16))
        i_hr = rng.uniform(size=(16, 16))
        mask = central_mask(16, 16, 2)
        base = dc_loss(i_sr, i_hr, mask, math.inf)
        for _ in range(10):
            bump = make_bandlimited_image(16, 16, 2, rng, offset=0.0, amplitude=0.05)
            assert abs(dc_loss(i_sr + bump, i_hr, mask, math.inf) - base) <= 1e-7

    def test_restricted_sum_oracle(self):
        rng = np.random.default_rng(5)
        i_sr = rng.uniform(size=(16, 16))
        i_hr = rng.uniform(size=(16, 16))
        mask = central_mask(16, 16, 4)
        got = dc_loss(i_sr, i_hr, mask, math.inf)
        diff = fft2_centered(i_sr) - fft2_centered(i_hr)
        outside = np.abs(diff[~mask]) ** 2
        want = outside.mean() * (outside.size / mask.size)
        assert abs(got - want) <= 1e-6 * max(want, 1.0)

    def test_monotone_in_noise_level(self):
        rng = np.random.default_rng(6)
        i_sr = rng.uniform(size=(16, 16))
        i_hr = rng.uniform(size=(16, 16))
        mask = central_mask(16, 16, 2)
        levels = [0.0, 0.5, 1.0, 10.0, 1e6, math.inf]
        values = [dc_loss(i_sr, i_hr, mask, n) for n in levels]
        for lo, hi in zip(values, values[1:]):
            assert hi <= lo + 1e-12

    @pytest.mark.parametrize("noise_level", [-1.0, math.nan])
    def test_negative_or_nan_noise_level_rejected(self, noise_level):
        image = np.zeros((16, 16))
        mask = central_mask(16, 16, 2)
        spectrum = fft2_centered(image)
        message = f"noise level must be >= 0, got {noise_level}"
        with pytest.raises(InputError, match=message):
            dc_loss(image, image, mask, noise_level)
        with pytest.raises(InputError, match=message):
            dc_replace(spectrum, spectrum, mask, noise_level)

    @pytest.mark.parametrize("noise_level", [1.01e15, 1e200, 1e308])
    def test_finite_noise_level_past_the_bound_rejected(self, noise_level):
        # 1e308 made l_dc NaN after overflow warnings; 1e200 made loss_gradient's
        # (1 + n)**2 raise a raw OverflowError
        image = np.full((16, 16), 0.5)
        mask = central_mask(16, 16, 2)
        spectrum = fft2_centered(image)
        message = re.escape(f"a finite noise level must be <= 1e+15, got {noise_level}")
        with pytest.raises(InputError, match=message):
            dc_loss(image, image, mask, noise_level)
        with pytest.raises(InputError, match=message):
            dc_replace(spectrum, spectrum, mask, noise_level)
        with pytest.raises(InputError, match=message):
            LossWeights(noise_level=noise_level)

    def test_largest_finite_noise_level_is_close_to_replacement(self):
        rng = np.random.default_rng(12)
        i_sr = rng.uniform(size=(16, 16))
        i_hr = 1e3 * rng.uniform(size=(16, 16))
        mask = central_mask(16, 16, 2)
        report = full_loss(i_sr, i_hr, mask, LossWeights(noise_level=1e15), with_gradient=True)
        exact = full_loss(i_sr, i_hr, mask, LossWeights(noise_level=math.inf), with_gradient=True)
        assert abs(report.l_dc - exact.l_dc) <= 1e-12 * exact.l_dc
        assert np.max(np.abs(report.gradient - exact.gradient)) <= 1e-12


class TestFullLoss:
    def test_identical_images(self):
        image = np.random.default_rng(7).uniform(size=(16, 16))
        mask = central_mask(16, 16, 2)
        report = full_loss(image, image, mask, LossWeights())
        assert report.l_full == 0.0

    def test_default_weights_arithmetic(self):
        weights = LossWeights()
        assert weights.lambda_rec * 0.5 + weights.lambda_dc * 100.0 == 0.51

    def test_exact_recomposition(self):
        rng = np.random.default_rng(8)
        i_sr = rng.uniform(size=(16, 16))
        i_hr = rng.uniform(size=(16, 16))
        mask = central_mask(16, 16, 2)
        weights = LossWeights(lambda_rec=0.7, lambda_dc=0.003, noise_level=2.0)
        report = full_loss(i_sr, i_hr, mask, weights)
        assert report.l_rec == rec_loss(i_sr, i_hr)
        assert report.l_dc == dc_loss(i_sr, i_hr, mask, 2.0)
        assert report.l_full == weights.lambda_rec * report.l_rec + weights.lambda_dc * report.l_dc

    def test_negative_noise_rejected(self):
        with pytest.raises(InputError):
            LossWeights(noise_level=-1.0)

    def test_nan_noise_rejected(self):
        # a NaN noise level made l_dc and l_full NaN with only a RuntimeWarning
        with pytest.raises(InputError, match="noise level"):
            LossWeights(noise_level=math.nan)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_lambda_rec_rejected(self, value):
        with pytest.raises(InputError, match="lambda_rec"):
            LossWeights(lambda_rec=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_lambda_dc_rejected(self, value):
        with pytest.raises(InputError, match="lambda_dc"):
            LossWeights(lambda_dc=value)

    def test_infinite_noise_is_exact_replacement(self):
        rng = np.random.default_rng(9)
        i_sr, i_hr = rng.uniform(size=(2, 16, 16))
        mask = central_mask(16, 16, 2)
        report = full_loss(i_sr, i_hr, mask, LossWeights(noise_level=math.inf))
        assert report.l_dc == dc_loss(i_sr, i_hr, mask, math.inf)
        assert math.isfinite(report.l_full)


class TestLossGradient:
    def test_identical_images_zero_gradient(self):
        image = np.random.default_rng(9).uniform(size=(12, 12))
        mask = central_mask(12, 12, 2)
        grad = loss_gradient(image, image, mask, LossWeights())
        assert np.all(grad == 0.0)

    @pytest.mark.parametrize("noise_level", [math.inf, 1.5])
    def test_matches_finite_differences(self, noise_level):
        rng = np.random.default_rng(10)
        mask = central_mask(16, 16, 2)
        weights = LossWeights(noise_level=noise_level)
        i_sr = rng.uniform(0.1, 0.9, size=(16, 16))
        i_hr = rng.uniform(0.1, 0.9, size=(16, 16))
        grad = loss_gradient(i_sr, i_hr, mask, weights)
        want = finite_difference_gradient(
            lambda img: full_loss(img, i_hr, mask, weights).l_full, i_sr
        )
        smooth = np.abs(i_sr - i_hr) > 1e-3
        rel = np.abs(grad - want)[smooth] / np.maximum(np.abs(want)[smooth], 1e-8)
        assert np.max(rel) <= 1e-4

    def test_pure_l1_subgradient_values(self):
        rng = np.random.default_rng(11)
        i_sr = rng.uniform(size=(8, 8))
        i_hr = rng.uniform(size=(8, 8))
        mask = central_mask(8, 8, 2)
        grad = loss_gradient(i_sr, i_hr, mask, LossWeights(lambda_dc=0.0))
        scaled = grad * 64.0
        assert set(np.round(scaled.ravel(), 12)) <= {-1.0, 0.0, 1.0}

    @pytest.mark.parametrize("lambda_dc", [0.0, 1e-4])
    @pytest.mark.parametrize("mask", [np.ones((1, 16), bool), np.ones(16, bool), [[True]],
                                      np.ones((8, 8), bool)], ids=["1x16", "16", "1x1", "8x8"])
    def test_mask_of_another_shape_rejected(self, mask, lambda_dc):
        image = np.zeros((16, 16))
        with pytest.raises(InputError, match="k-space grids and mask must share one shape"):
            loss_gradient(image, image, mask, LossWeights(lambda_dc=lambda_dc))


class TestMetrics:
    def test_identical_images(self):
        image = np.random.default_rng(12).uniform(size=(16, 16))
        assert psnr(image, image) == 100.0
        assert rmse(image, image) == 0.0
        assert abs(ssim(image, image) - 1.0) <= 1e-6

    def test_uniform_offset_closed_form(self):
        rng = np.random.default_rng(13)
        base = rng.uniform(0.0, 0.9, size=(16, 16))
        offset = base + 0.1
        assert abs(psnr(offset, base) - 20.0) <= 1e-6
        assert abs(rmse(offset, base) - 0.1) <= 1e-7
        assert abs(rec_loss(offset, base) - 0.1) <= 1e-12

    def test_ssim_matches_windowed_oracle(self):
        rng = np.random.default_rng(14)
        a = rng.uniform(size=(20, 20))
        b = np.clip(a + 0.05 * rng.standard_normal((20, 20)), 0, 1)
        assert abs(ssim(a, b) - ssim_reference(a, b)) <= 1e-5
        unrelated = rng.uniform(size=(20, 20))  # SSIM near 0
        assert abs(ssim(a, unrelated) - ssim_reference(a, unrelated)) <= 1e-5

    def test_psnr_rmse_relation(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            a = rng.uniform(size=(12, 12))
            b = rng.uniform(size=(12, 12))
            r = rmse(a, b)
            assert r > 0
            assert abs(psnr(a, b) - 20.0 * math.log10(1.0 / r)) <= 1e-9

    def test_ssim_needs_window_sized_images(self):
        with pytest.raises(InputError):
            ssim(np.zeros((8, 8)), np.zeros((8, 8)))
