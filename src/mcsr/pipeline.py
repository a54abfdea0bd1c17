"""End-to-end forward pass tying the branches, matching, aggregation and
reconstruction together."""

import hashlib

import numpy as np

from .aggregation import mab_chain, reconstruct
from .errors import InputError
from .kspace import degrade
from .matching import match_all
from .pyramid import extract_lr_features, extract_reference_pyramid
from .weights import parameter_inventory


def validate_store(cfg, store):
    """Completeness and closure of a weight store against a config: missing
    parameters raise MissingWeightsError, unknown names raise InputError."""
    expected = dict(parameter_inventory(cfg))
    store.require(expected)
    unknown = sorted(set(store.names()) - set(expected))
    if unknown:
        raise InputError("unknown weight names: " + ", ".join(unknown))


def _checked_image(image, name):
    try:
        image = np.asarray(image, dtype=np.float64)
    except (TypeError, ValueError):
        raise InputError(f"{name} is not a numeric array") from None
    if image.ndim != 2:
        raise InputError(f"{name} must be a 2-D image, got shape {image.shape}")
    if not np.all(np.isfinite(image)):
        raise InputError(f"{name} contains non-finite values")
    return image


def _checked_inputs(cfg, lr_image, ref_image):
    """The entry check of every command that runs the branches: both images
    as float64, 2-D and finite, the LR at least one match patch and one Swin
    window, the reference UF times the LR."""
    lr_image = _checked_image(lr_image, "lr_image")
    ref_image = _checked_image(ref_image, "ref_image")
    need = (max(cfg.match.patch_h, cfg.stg.window), max(cfg.match.patch_w, cfg.stg.window))
    if lr_image.shape[0] < need[0] or lr_image.shape[1] < need[1]:
        raise InputError(
            f"lr_image size {lr_image.shape} is smaller than one match patch and one "
            f"Swin window {need}"
        )
    expected = (lr_image.shape[0] * cfg.uf, lr_image.shape[1] * cfg.uf)
    if ref_image.shape != expected:
        raise InputError(
            f"reference size {ref_image.shape} != UF x LR size {expected}"
        )
    return lr_image, ref_image


def run_forward(cfg, store, lr_image, ref_image):
    """Super-resolve ``lr_image`` guided by the high-resolution reference.

    The reference LR branch input is produced by the same k-space degradation
    used for the target, keeping both LR feature maps scale-consistent.

    The store keeps the features of the last reference it encoded, keyed by
    the reference's content and the settings they depend on, so successive
    targets guided by one reference encode it once.
    """
    lr_image, ref_image = _checked_inputs(cfg, lr_image, ref_image)
    key = (cfg.uf, cfg.stg, ref_image.shape,
           hashlib.sha256(np.ascontiguousarray(ref_image)).digest())
    # Finite inputs can still overflow; the check on the output turns that
    # into an InputError, so numpy's warnings on the way would only be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        memo = store._reference_memo
        if memo is None or memo[0] != key:
            memo = store._reference_memo = None  # one reference's features alive at most
            ref_lr = degrade(ref_image, cfg.uf)
        f_tar_lr = extract_lr_features(lr_image, store, "tar_lr", cfg.stg)
        if memo is None:
            f_ref_lr = extract_lr_features(ref_lr, store, "ref_lr", cfg.stg)
            pyramid = extract_reference_pyramid(ref_image, store, cfg.stg, cfg.num_levels)
            for array in (f_ref_lr, *pyramid.levels):
                array.flags.writeable = False
            memo = store._reference_memo = (key, (f_ref_lr, pyramid))
        f_ref_lr, pyramid = memo[1]
        matched = match_all(f_tar_lr, f_ref_lr, pyramid, cfg.match)
        hr_features = mab_chain(f_tar_lr, matched, store, cfg.channels, cfg.sab_stats_source)
        sr = reconstruct(hr_features, lr_image, store, cfg.uf, cfg.global_residual)
    if not np.all(np.isfinite(sr)):
        raise InputError("the forward pass overflowed: input or weight values are too large")
    return sr
