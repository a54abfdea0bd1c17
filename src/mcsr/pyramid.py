"""Multi-scale feature extraction: the reference pyramid and the two
LR-branch feature maps.

Pyramid levels are ordered coarse to fine: level 1 (index 0) sits at the LR
grid scale, level ``i + 1`` is exactly twice the size of level ``i``. The
reference branch runs its Swin group at full resolution; coarser levels come
from successive stride-2 convolutions.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError
from .swin import load_stg_params, stg_forward
from .tensor_ops import ConvSpec, conv2d


def num_levels_for(uf):
    levels = {1: 1, 2: 2, 4: 3}.get(uf)
    if levels is None:
        raise InputError(f"unsupported upsampling factor {uf}")
    return levels


@dataclass(frozen=True)
class FeaturePyramid:
    """Reference features at dyadic scales, coarsest (LR scale) first."""

    levels: tuple

    def __post_init__(self):
        levels = tuple(np.asarray(level, dtype=np.float64) for level in self.levels)
        if not levels:
            raise ConfigError("pyramid needs at least one level")
        channels, base_h, base_w = levels[0].shape
        for i, level in enumerate(levels):
            scale = 2**i
            expected = (channels, base_h * scale, base_w * scale)
            if level.shape != expected:
                raise ConfigError(
                    f"pyramid level {i + 1} has shape {level.shape}, expected {expected}"
                )
        object.__setattr__(self, "levels", levels)

    @property
    def num_levels(self):
        return len(self.levels)


def _shallow_spec(store, branch, channels):
    return ConvSpec(
        1,
        channels,
        1,
        store.fetch(f"shallow.{branch}.weight"),
        store.fetch(f"shallow.{branch}.bias"),
    )


def extract_lr_features(lr_image, store, branch, stg_cfg):
    """Shallow 3x3 lift followed by the branch's Swin group; spatial size is
    preserved."""
    lr_image = np.asarray(lr_image, dtype=np.float64)
    if lr_image.ndim != 2:
        raise InputError(f"expected a 2-D image, got shape {lr_image.shape}")
    x = conv2d(lr_image[None], _shallow_spec(store, branch, stg_cfg.embed_dim))
    params = load_stg_params(store, f"stg.{branch}", stg_cfg)
    return stg_forward(x, stg_cfg, params)


def extract_reference_pyramid(ref_image, store, stg_cfg, num_levels):
    """Full-resolution shallow conv + Swin group, then stride-2 convolutions
    down to the LR scale; returns ``num_levels`` levels coarse to fine."""
    if num_levels < 1:
        raise ConfigError(f"num_levels must be positive, got {num_levels}")
    ref_image = np.asarray(ref_image, dtype=np.float64)
    if ref_image.ndim != 2:
        raise InputError(f"expected a 2-D image, got shape {ref_image.shape}")
    channels = stg_cfg.embed_dim
    divisor = 2 ** (num_levels - 1)
    h, w = ref_image.shape
    if h % divisor or w % divisor:
        raise InputError(
            f"reference size {h}x{w} is not divisible by {divisor} "
            f"(needed for {num_levels} pyramid levels)"
        )
    x = conv2d(ref_image[None], _shallow_spec(store, "ref", channels))
    params = load_stg_params(store, "stg.ref", stg_cfg)
    x = stg_forward(x, stg_cfg, params)
    levels = [x]
    for level in range(num_levels - 1, 0, -1):
        down = ConvSpec(
            channels,
            channels,
            2,
            store.fetch(f"pyramid.down{level}.weight"),
            store.fetch(f"pyramid.down{level}.bias"),
        )
        x = conv2d(x, down)
        levels.append(x)
    return FeaturePyramid(tuple(reversed(levels)))
