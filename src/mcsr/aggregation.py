"""Multi-scale aggregation: the spatial adaptation block (statistic
remapping), the joint residual feature aggregation block, the scale chain,
and the reconstruction head.

One aggregation stage per pyramid level: level 1 works at the LR scale with
stride-1 convolutions everywhere; higher levels upsample the running target
features by a learned stride-2 transposed convolution and use stride-2
down/up pairs inside the residual refinement.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .pyramid import _as_pyramid
from .tensor_ops import (ConvSpec, _as_feature_map, _as_image, bicubic_upsample, conv2d,
                         conv_transpose2d, instance_norm)

SAB_STATS_SOURCES = ("pre", "post")


@dataclass(frozen=True)
class MabConfig:
    level: int
    upsample: bool
    channels: int
    stats_source: str = "pre"

    def __post_init__(self):
        if self.level < 1:
            raise ConfigError("level must be >= 1")
        if self.level == 1 and self.upsample:
            raise ConfigError("level 1 must not upsample")
        if self.level > 1 and not self.upsample:
            raise ConfigError("levels above 1 must upsample")
        if self.stats_source not in SAB_STATS_SOURCES:
            raise ConfigError(f"stats_source must be one of {SAB_STATS_SOURCES}")


@dataclass(frozen=True)
class SabParams:
    conv_alpha: ConvSpec  # 2C -> C, stride 1
    conv_beta: ConvSpec  # 2C -> C, stride 1
    upsample: ConvSpec | None = None  # stride-2 transpose, levels above 1


@dataclass(frozen=True)
class JrfabParams:
    reduce: ConvSpec  # the shared Conv applied to the transferred features
    expand_ref: ConvSpec  # ConvT of the reference branch (stride-1 conv at level 1)
    expand_tar: ConvSpec  # ConvT of the target branch
    fuse: ConvSpec  # 2C -> C after concatenating the branches


def sab_forward(x_tar, f_m, params, cfg):
    """Remap matched-reference statistics onto the target distribution.

    The modulation convolutions see the concatenation of the (optionally
    upsampled) target features and the matched features; their outputs are
    folded into the target's per-channel statistics as
    ``alpha = sigma_tar * (1 + raw_alpha)`` and ``beta = mu_tar + raw_beta``,
    so zero-initialized convolutions transfer (mu, sigma) exactly.
    """
    x_tar = _as_feature_map(x_tar)
    f_m = _as_feature_map(f_m)
    if {params.conv_alpha.stride, params.conv_beta.stride} != {1}:
        raise ConfigError("the modulation convolutions of a SAB take stride 1")
    if cfg.upsample:
        if params.upsample is None:
            raise ConfigError("upsampling stage requires an upsample spec")
        x_up = conv_transpose2d(x_tar, params.upsample)
    else:
        x_up = x_tar
    if f_m.shape != x_up.shape:
        raise ConfigError(f"matched features {f_m.shape} != target features {x_up.shape}")
    stats_src = x_tar if cfg.stats_source == "pre" else x_up
    mu = stats_src.mean(axis=(1, 2))
    sigma = stats_src.std(axis=(1, 2))
    stacked = np.concatenate([x_up, f_m], axis=0)
    raw_alpha = conv2d(stacked, params.conv_alpha)
    raw_beta = conv2d(stacked, params.conv_beta)
    alpha = sigma[:, None, None] * (1.0 + raw_alpha)
    beta = mu[:, None, None] + raw_beta
    return instance_norm(f_m) * alpha + beta


def _expand(x, spec, cfg):
    return conv_transpose2d(x, spec) if cfg.level > 1 else conv2d(x, spec)


def jrfab_forward(f_hat, x_tar, params, cfg):
    """Dual-branch residual refinement of high-frequency content.

    Reference branch: ``f_hat + ConvT(Conv(f_hat) - x_tar)``. Target branch:
    ``ConvT(x_tar + (x_tar - Conv(f_hat)))``. The stride-2 Conv on ``f_hat``
    is shared between the branches; each branch has its own ConvT, and
    ``f_hat`` is ``x_tar`` scaled 2x. At level 1 all of the above are
    stride-1 convolutions and every map shares a scale.
    """
    f_hat = _as_feature_map(f_hat)
    x_tar = _as_feature_map(x_tar)
    scale = 2 if cfg.level > 1 else 1
    channels, h, w = x_tar.shape
    strides = {params.reduce.stride, params.expand_ref.stride, params.expand_tar.stride}
    if strides != {scale} or f_hat.shape != (channels, scale * h, scale * w):
        raise ConfigError(f"level {cfg.level} takes stride-{scale} convolutions and f_hat "
                          f"{f_hat.shape} as x_tar {x_tar.shape} scaled {scale}x")
    down = conv2d(f_hat, params.reduce)
    ref_branch = f_hat + _expand(down - x_tar, params.expand_ref, cfg)
    tar_branch = _expand(x_tar + (x_tar - down), params.expand_tar, cfg)
    return conv2d(np.concatenate([ref_branch, tar_branch], axis=0), params.fuse)


def load_sab_params(store, level, channels):
    prefix = f"mab{level}.sab"
    upsample = (ConvSpec.load(store, f"{prefix}.up", channels, channels, stride=2)
                if level > 1 else None)
    return SabParams(
        conv_alpha=ConvSpec.load(store, f"{prefix}.alpha", 2 * channels, channels),
        conv_beta=ConvSpec.load(store, f"{prefix}.beta", 2 * channels, channels),
        upsample=upsample,
    )


def load_jrfab_params(store, level, channels):
    prefix = f"mab{level}.jrfab"
    stride = 2 if level > 1 else 1
    return JrfabParams(
        reduce=ConvSpec.load(store, f"{prefix}.down", channels, channels, stride),
        expand_ref=ConvSpec.load(store, f"{prefix}.ta", channels, channels, stride),
        expand_tar=ConvSpec.load(store, f"{prefix}.tb", channels, channels, stride),
        fuse=ConvSpec.load(store, f"{prefix}.fuse", 2 * channels, channels),
    )


def mab_chain(f_tar_lr, matched, store, channels, stats_source="pre"):
    """Chain one aggregation stage per matched level, coarse to fine; the
    result sits at the finest (HR) scale."""
    x = _as_feature_map(f_tar_lr)  # sab_forward checks each level's shape against x
    for level, f_m in enumerate(_as_pyramid(matched).levels, start=1):
        cfg = MabConfig(
            level=level, upsample=level > 1, channels=channels, stats_source=stats_source
        )
        f_hat = sab_forward(x, f_m, load_sab_params(store, level, channels), cfg)
        x = jrfab_forward(f_hat, x, load_jrfab_params(store, level, channels), cfg)
    return x


def reconstruct(hr_features, lr_image, store, uf, global_residual=True):
    """Reconstruction head: 3x3 convolution to one channel, plus a bicubic
    upsample of the LR input as a global residual (configurable). The output
    is left unclamped; clamping to [0, 1] happens at serialization."""
    hr_features = _as_feature_map(hr_features)
    lr_image = _as_image(lr_image, "lr_image")
    if hr_features.shape[1:] != (lr_image.shape[0] * uf, lr_image.shape[1] * uf):
        raise ConfigError(
            f"HR features {hr_features.shape[1:]} do not match LR {lr_image.shape} x UF={uf}"
        )
    image = conv2d(hr_features, ConvSpec.load(store, "head", hr_features.shape[0], 1))[0]
    if global_residual:
        image = image + bicubic_upsample(lr_image, uf)
    return image
