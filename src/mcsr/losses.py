"""Reconstruction loss, k-space data-consistency loss, their analytic
gradients with respect to the SR image, and the PSNR/SSIM/RMSE metrics.

``noise_level`` may be ``math.inf``, in which case data consistency is an
exact replacement on sampled bins rather than a blend.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError, check_field_types
from .kspace import fft2_centered, ifft2_centered
from .tensor_ops import _as_image

PSNR_CAP_DB = 100.0
_PSNR_MSE_FLOOR = 1e-10
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
_MAX_NOISE_LEVEL = 1e15  # K_SR keeps a blend weight >= 1e-15; (1 + n)**2 and n * K_HR stay finite


def _check_dc(noise_level, mask=None, *grids):
    """Data consistency's input rules; ``grids`` may be images, whose spectra share their shape."""
    if not noise_level >= 0:  # NaN too; infinity means exact replacement
        raise InputError(f"noise level must be >= 0, got {noise_level}")
    if _MAX_NOISE_LEVEL < noise_level < math.inf:
        raise InputError(f"a finite noise level must be <= {_MAX_NOISE_LEVEL:g}, got {noise_level}")
    if any(np.shape(grid) != np.shape(mask) for grid in grids):
        raise InputError("k-space grids and mask must share one shape")


@dataclass(frozen=True)
class LossWeights:
    lambda_rec: float = 1.0
    lambda_dc: float = 0.0001
    noise_level: float = math.inf

    def __post_init__(self):
        check_field_types(self)
        for name in ("lambda_rec", "lambda_dc"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite, got {getattr(self, name)}")
        _check_dc(self.noise_level)


@dataclass(frozen=True)
class LossReport:
    l_rec: float
    l_dc: float
    l_full: float
    gradient: np.ndarray | None = field(default=None, compare=False)


def _check_pair(a, b):
    a, b = _as_image(a, "i_sr"), _as_image(b, "i_hr")
    if a.shape != b.shape:
        raise InputError(f"image shapes differ: {a.shape} vs {b.shape}")
    return a, b


def rec_loss(i_sr, i_hr):
    """Mean absolute difference over all pixels."""
    i_sr, i_hr = _check_pair(i_sr, i_hr)
    return float(np.mean(np.abs(i_sr - i_hr)))


def dc_replace(k_sr, k_hr, mask, noise_level):
    """Blend sampled bins toward the acquired spectrum: unsampled bins pass
    through, sampled bins return ``(K_SR + n * K_HR) / (1 + n)``; at
    ``n = inf`` sampled bins are exactly ``K_HR``."""
    k_sr = np.asarray(k_sr, dtype=np.complex128)
    k_hr = np.asarray(k_hr, dtype=np.complex128)
    _check_dc(noise_level, mask, k_sr, k_hr)
    if math.isinf(noise_level):
        return np.where(mask, k_hr, k_sr)
    n = float(noise_level)
    return np.where(mask, (k_sr + n * k_hr) / (1.0 + n), k_sr)


def dc_loss(i_sr, i_hr, mask, noise_level):
    """Mean squared complex modulus between the data-consistent spectrum and
    the HR spectrum, over all bins."""
    i_sr, i_hr = _check_pair(i_sr, i_hr)
    k_sr = fft2_centered(i_sr)
    k_hr = fft2_centered(i_hr)
    k_dc = dc_replace(k_sr, k_hr, mask, noise_level)
    return float(np.mean(np.abs(k_dc - k_hr) ** 2))


def full_loss(i_sr, i_hr, mask, weights, with_gradient=False):
    """Weighted objective; ``l_full == lambda_rec * l_rec + lambda_dc * l_dc``
    holds exactly (no re-rounding)."""
    l_rec = rec_loss(i_sr, i_hr)
    l_dc = dc_loss(i_sr, i_hr, mask, weights.noise_level)
    grad = loss_gradient(i_sr, i_hr, mask, weights) if with_gradient else None
    return LossReport(
        l_rec=l_rec,
        l_dc=l_dc,
        l_full=weights.lambda_rec * l_rec + weights.lambda_dc * l_dc,
        gradient=grad,
    )


def loss_gradient(i_sr, i_hr, mask, weights):
    """Analytic gradient of the full objective with respect to the SR image.

    The L1 term contributes ``sign(I_SR - I_HR) / (H * W)`` (subgradient 0 at
    ties). The DC term contributes the adjoint transform of the masked
    spectral residual: per-bin weights are 1 off the mask and
    ``1 / (1 + n)**2`` on it (0 at ``n = inf``).
    """
    i_sr, i_hr = _check_pair(i_sr, i_hr)
    _check_dc(weights.noise_level, mask, i_sr)
    grad = weights.lambda_rec * np.sign(i_sr - i_hr) / i_sr.size
    if weights.lambda_dc != 0.0:
        coeff = np.where(mask, 1.0 / (1.0 + weights.noise_level) ** 2, 1.0)
        residual = coeff * (fft2_centered(i_sr) - fft2_centered(i_hr))
        grad = grad + weights.lambda_dc * 2.0 * np.real(ifft2_centered(residual))
    return grad


def rmse(i_sr, i_hr):
    i_sr, i_hr = _check_pair(i_sr, i_hr)
    return float(np.sqrt(np.mean((i_sr - i_hr) ** 2)))


def psnr(i_sr, i_hr):
    """Peak signal-to-noise ratio in dB at peak 1, capped at 100 for near-zero MSE."""
    i_sr, i_hr = _check_pair(i_sr, i_hr)
    mse = float(np.mean((i_sr - i_hr) ** 2))
    if mse < _PSNR_MSE_FLOOR:
        return PSNR_CAP_DB
    return 10.0 * math.log10(1.0 / mse)


def _gaussian_window():
    coords = np.arange(SSIM_WINDOW) - (SSIM_WINDOW - 1) / 2.0
    g = np.exp(-(coords**2) / (2.0 * SSIM_SIGMA * SSIM_SIGMA))
    kernel = np.outer(g, g)
    return kernel / kernel.sum()


def _filter_valid(image, kernel):
    view = sliding_window_view(image, kernel.shape)
    return np.einsum("ijuv,uv->ij", view, kernel)


def ssim(i_sr, i_hr):
    """Single-scale SSIM at dynamic range 1 with an 11x11 Gaussian window
    (sigma 1.5), averaged over positions where the window lies fully inside the image."""
    i_sr, i_hr = _check_pair(i_sr, i_hr)
    if min(i_sr.shape) < SSIM_WINDOW:
        raise InputError(f"images must be at least {SSIM_WINDOW} pixels per side for SSIM")
    kernel = _gaussian_window()
    c1 = 0.01**2
    c2 = 0.03**2
    mu_x = _filter_valid(i_sr, kernel)
    mu_y = _filter_valid(i_hr, kernel)
    var_x = _filter_valid(i_sr * i_sr, kernel) - mu_x * mu_x
    var_y = _filter_valid(i_hr * i_hr, kernel) - mu_y * mu_y
    cov = _filter_valid(i_sr * i_hr, kernel) - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    return float(np.mean(num / den))
