"""Multi-scale feature extraction: the reference pyramid and the two
LR-branch feature maps.

Pyramid levels are ordered coarse to fine: level 1 (index 0) sits at the LR
grid scale, level ``i + 1`` is exactly twice the size of level ``i``. The
reference branch runs its Swin group at full resolution; coarser levels come
from successive stride-2 convolutions.
"""

from dataclasses import dataclass

from .errors import ConfigError, InputError
from .swin import load_stg_params, stg_forward
from .tensor_ops import ConvSpec, _as_feature_map, _as_image, conv2d


@dataclass(frozen=True)
class FeaturePyramid:
    """Features at dyadic scales, coarsest (LR scale) first."""

    levels: tuple

    def __post_init__(self):
        levels = tuple(_as_feature_map(level) for level in self.levels)
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


def _as_pyramid(x):
    if not isinstance(x, FeaturePyramid):
        raise ConfigError(f"expected a FeaturePyramid, got {type(x).__name__}")
    return x


def _encode(image, store, branch, stg_cfg):
    """Shallow 3x3 lift of a 2-D image to ``embed_dim`` channels, then the
    branch's Swin group; spatial size is preserved."""
    x = conv2d(image[None], ConvSpec.load(store, f"shallow.{branch}", 1, stg_cfg.embed_dim))
    return stg_forward(x, stg_cfg, load_stg_params(store, f"stg.{branch}", stg_cfg))


def extract_lr_features(lr_image, store, branch, stg_cfg):
    """Features of an LR image on the ``branch`` (``tar_lr`` or ``ref_lr``)."""
    return _encode(_as_image(lr_image, "lr_image"), store, branch, stg_cfg)


def extract_reference_pyramid(ref_image, store, stg_cfg, num_levels):
    """Full-resolution reference features, then stride-2 convolutions down to
    the LR scale; returns ``num_levels`` levels coarse to fine."""
    if num_levels < 1:
        raise ConfigError(f"num_levels must be positive, got {num_levels}")
    ref_image = _as_image(ref_image, "ref_image")
    channels = stg_cfg.embed_dim
    divisor = 2 ** (num_levels - 1)
    h, w = ref_image.shape
    if h % divisor or w % divisor:
        raise InputError(
            f"reference size {h}x{w} is not divisible by {divisor} "
            f"(needed for {num_levels} pyramid levels)"
        )
    x = _encode(ref_image, store, "ref", stg_cfg)
    levels = [x]
    for level in range(num_levels - 1, 0, -1):
        x = conv2d(x, ConvSpec.load(store, f"pyramid.down{level}", channels, channels, stride=2))
        levels.append(x)
    return FeaturePyramid(tuple(reversed(levels)))
