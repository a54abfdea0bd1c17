"""Frequency-domain machinery: centered FFTs, the central-retention
degradation, the LR sampling mask, and zero-fill reconstruction.

K-space grids are complex128 arrays in centered layout: the DC bin sits at
``(H // 2, W // 2)``. The forward transform is unnormalized, the inverse
carries the ``1 / (H * W)`` factor, so the round trip is the identity.
"""

import numpy as np

from .errors import InputError
from .tensor_ops import _as_image

UPSAMPLING_FACTORS = (1, 2, 4)


def fft2_centered(image):
    """Unnormalized 2-D FFT of a real image, DC shifted to the grid center."""
    return np.fft.fftshift(np.fft.fft2(_as_image(image)))


def ifft2_centered(kgrid):
    """Inverse of :func:`fft2_centered`; returns the complex image."""
    kgrid = np.asarray(kgrid, dtype=np.complex128)
    if kgrid.ndim != 2:
        raise InputError(f"expected a 2-D k-space grid, got shape {kgrid.shape}")
    return np.fft.ifft2(np.fft.ifftshift(kgrid))


def _factor(uf):
    if isinstance(uf, bool) or not isinstance(uf, (int, np.integer)) or uf not in UPSAMPLING_FACTORS:
        raise InputError(f"upsampling factor must be one of {UPSAMPLING_FACTORS}, got {uf}")
    return uf


def _central_block(height, width, uf):
    if height % _factor(uf) or width % uf:
        raise InputError(f"image size {height}x{width} is not divisible by UF={uf}")
    bh, bw = height // uf, width // uf
    top, left = (height - bh) // 2, (width - bw) // 2
    return top, left, bh, bw


def central_mask(height, width, uf):
    """Boolean sampling mask: True on the retained central low-frequency block."""
    top, left, bh, bw = _central_block(height, width, uf)
    mask = np.zeros((height, width), dtype=bool)
    mask[top : top + bh, left : left + bw] = True
    return mask


def degrade(hr_image, uf):
    """Central-retention k-space degradation: keep the low-frequency block,
    rescale by ``1 / UF**2`` (constants survive unchanged), inverse-transform
    on the small grid and take the magnitude."""
    hr_image = _as_image(hr_image, "hr_image")
    h, w = hr_image.shape
    top, left, bh, bw = _central_block(h, w, uf)
    kspace = fft2_centered(hr_image)
    cropped = kspace[top : top + bh, left : left + bw] / float(uf * uf)
    return np.abs(ifft2_centered(cropped))


def zero_fill_upsample(lr_image, uf):
    """Embed the LR spectrum into the center of a zero HR grid and invert."""
    lr_image = _as_image(lr_image, "lr_image")
    bh, bw = lr_image.shape
    top, left, _, _ = _central_block(bh * _factor(uf), bw * uf, uf)
    kspace = np.zeros((bh * uf, bw * uf), dtype=np.complex128)
    kspace[top : top + bh, left : left + bw] = fft2_centered(lr_image) * float(uf * uf)
    return np.abs(ifft2_centered(kspace))
