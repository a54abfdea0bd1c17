"""The network, stage by stage: ``match`` (the two LR Swin branches and
matching at the LR scale), the reference pyramid, then per scale, coarse to
fine, the matched features mapped onto that scale and one SAB + JRFAB
aggregation stage, and the reconstruction head."""

import hashlib

import numpy as np

from .aggregation import (MabConfig, jrfab_forward, load_jrfab_params, load_sab_params,
                          reconstruct, sab_forward)
from .errors import InputError, MissingWeightsError
from .kspace import degrade
from .matching import compute_matches, map_to_scale
from .pyramid import FeaturePyramid
from .swin import load_stg_params, stg_forward
from .tensor_ops import ConvSpec, _as_image, conv2d
from .weights import parameter_inventory


def validate_store(cfg, store):
    """Completeness, closure and shapes of a weight store against a config:
    missing parameters raise MissingWeightsError, unknown names and wrongly
    shaped tensors raise InputError."""
    expected = dict(parameter_inventory(cfg))
    missing = [name for name in expected if name not in store]
    if missing:
        raise MissingWeightsError(missing)
    unknown = sorted(set(store.names()) - set(expected))
    if unknown:
        raise InputError("unknown weight names: " + ", ".join(unknown))
    for name, shape in expected.items():
        store.get(name, shape)


def _checked_inputs(cfg, lr_image, ref_image):
    """The entry check of every command that runs the branches: both images
    as float64, 2-D and finite, the LR at least one match patch and one Swin
    window, the reference UF times the LR."""
    lr_image = _as_image(lr_image, "lr_image")
    ref_image = _as_image(ref_image, "ref_image")
    need = max(cfg.match.patch_size, cfg.stg.window)
    if min(lr_image.shape) < need:
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


def _encode(cfg, store, image, branch):
    """Features of a checked 2-D image on ``branch`` (``tar_lr``, ``ref_lr`` or
    ``ref``): a shallow 3x3 lift to ``channels``, then the branch's Swin group.
    Spatial size is preserved."""
    x = conv2d(image[None], ConvSpec.load(store, f"shallow.{branch}", 1, cfg.channels))
    return stg_forward(x, cfg.stg, load_stg_params(store, f"stg.{branch}", cfg.stg))


def _reference_pyramid(cfg, store, ref_image):
    """Full-resolution reference features, then stride-2 convolutions down to
    the LR scale: ``cfg.num_levels`` levels, coarse to fine, level ``i + 1``
    twice the size of level ``i``."""
    x = _encode(cfg, store, ref_image, "ref")
    levels = [x]
    for level in range(cfg.num_levels - 1, 0, -1):
        x = conv2d(x, ConvSpec.load(store, f"pyramid.down{level}", cfg.channels, cfg.channels,
                                    stride=2))
        levels.append(x)
    return FeaturePyramid(tuple(reversed(levels)))


def match(cfg, store, lr_image, ref_image):
    """The first half of the forward: the entry checks, the target and the
    reference LR features, and matching at the LR scale. Returns the checked
    images, the target LR features, one match per patch and the patch grid.

    The reference LR branch input is produced by the same k-space degradation
    used for the target, keeping both LR feature maps scale-consistent. The
    store keeps the features of the last reference it encoded, keyed by the
    reference's content and the settings they depend on, so successive
    targets guided by one reference encode it once.
    """
    lr_image, ref_image = _checked_inputs(cfg, lr_image, ref_image)
    validate_store(cfg, store)
    key = (cfg.uf, cfg.stg, ref_image.shape,
           hashlib.sha256(np.ascontiguousarray(ref_image)).digest())
    # Finite inputs can still overflow; the checks on the similarities and the output
    # turn that into an InputError, so numpy's warnings on the way would only be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        if store._reference_memo is None or store._reference_memo[0] != key:
            store._reference_memo = None  # one reference's features alive at most
            ref_lr = _as_image(degrade(ref_image, cfg.uf), "the degraded reference")
            f_ref_lr = _encode(cfg, store, ref_lr, "ref_lr")
            f_ref_lr.flags.writeable = False
            store._reference_memo = (key, f_ref_lr, None)  # run_forward adds the pyramid
        x = _encode(cfg, store, lr_image, "tar_lr")
        results, grid = compute_matches(x, store._reference_memo[1], cfg.match)
    if not all(np.all(np.isfinite(result.similarity_map)) for result in results):
        raise InputError("matching overflowed: input or weight values are too large")
    return lr_image, ref_image, x, results, grid


def run_forward(cfg, store, lr_image, ref_image):
    """Super-resolve ``lr_image`` guided by the high-resolution reference:
    ``match``, then the reference pyramid, which the store's memo keeps with
    the reference LR features, and aggregation scale by scale."""
    lr_image, ref_image, x, *held, grid = match(cfg, store, lr_image, ref_image)  # held: [matches]
    with np.errstate(over="ignore", invalid="ignore"):  # as in match
        key, f_ref_lr, pyramid = store._reference_memo
        if pyramid is None:
            pyramid = _reference_pyramid(cfg, store, ref_image)
            for array in pyramid.levels:
                array.flags.writeable = False
            store._reference_memo = (key, f_ref_lr, pyramid)
        c = cfg.channels
        for level in range(1, cfg.num_levels + 1):  # coarse to fine, ending at the HR scale
            mab = MabConfig(level=level, upsample=level > 1, channels=c,
                            stats_source=cfg.sab_stats_source)
            # Nested, so no local holds a matched level, a SAB output or, at the last level, the
            # matches: each is freed once read, before the forward's memory peak in the last SAB.
            x = jrfab_forward(
                sab_forward(x, map_to_scale(held.pop() if level == cfg.num_levels else held[0],
                                            grid, pyramid, level, cfg.match),
                            load_sab_params(store, level, c), mab),
                x, load_jrfab_params(store, level, c), mab)
        sr = reconstruct(x, lr_image, store, cfg.uf, cfg.global_residual)
    if not np.all(np.isfinite(sr)):
        raise InputError("the forward pass overflowed: input or weight values are too large")
    return sr
