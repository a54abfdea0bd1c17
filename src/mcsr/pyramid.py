"""The feature pyramid type: features at dyadic scales, coarse to fine.

Level 1 (index 0) sits at the LR grid scale; level ``i + 1`` is exactly twice
the size of level ``i``. ``pipeline`` builds the reference pyramid and
``matching`` maps matched features onto one.
"""

from dataclasses import dataclass

from .errors import InputError
from .tensor_ops import _as_feature_map


@dataclass(frozen=True)
class FeaturePyramid:
    """Features at dyadic scales, coarsest (LR scale) first."""

    levels: tuple

    def __post_init__(self):
        levels = tuple(_as_feature_map(level) for level in self.levels)
        if not levels:
            raise InputError("pyramid needs at least one level")
        channels, base_h, base_w = levels[0].shape
        for i, level in enumerate(levels):
            scale = 2**i
            expected = (channels, base_h * scale, base_w * scale)
            if level.shape != expected:
                raise InputError(
                    f"pyramid level {i + 1} has shape {level.shape}, expected {expected}"
                )
        object.__setattr__(self, "levels", levels)

    @property
    def num_levels(self):
        return len(self.levels)


def _as_pyramid(x):
    if not isinstance(x, FeaturePyramid):
        raise InputError(f"expected a FeaturePyramid, got {type(x).__name__}")
    return x
