"""Model configuration and its JSON form.

The JSON schema mirrors the dataclass fields exactly (snake_case); unknown
keys are rejected, missing keys fall back to the defaults. ``noise_level``
serializes as the string ``"infinity"`` because JSON has no infinity
literal; finite values are plain numbers.
"""

import json
import math
from dataclasses import dataclass, field, replace

from .aggregation import SAB_STATS_SOURCES
from .errors import ConfigError, InputError
from .losses import LossWeights
from .matching import MatchConfig
from .pyramid import num_levels_for
from .swin import StgConfig


@dataclass(frozen=True)
class ModelConfig:
    uf: int = 4
    channels: int = 32
    stg: StgConfig = field(default_factory=StgConfig)
    match: MatchConfig = field(default_factory=MatchConfig)
    sab_stats_source: str = "pre"
    global_residual: bool = True
    loss: LossWeights = field(default_factory=LossWeights)
    seed: int = 0

    def __post_init__(self):
        if self.uf not in (2, 4):
            raise ConfigError(f"uf must be 2 or 4, got {self.uf}")
        if self.channels != self.stg.embed_dim:
            raise ConfigError(
                f"channels ({self.channels}) must equal stg.embed_dim ({self.stg.embed_dim})"
            )
        if self.sab_stats_source not in SAB_STATS_SOURCES:
            raise ConfigError(f"sab_stats_source must be one of {SAB_STATS_SOURCES}")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")

    @property
    def num_levels(self):
        return num_levels_for(self.uf)


def default_config():
    return ModelConfig()


_STG_KEYS = ("num_rstb", "stl_per_rstb", "embed_dim", "num_heads", "window", "mlp_ratio")
_MATCH_KEYS = ("patch_w", "patch_h", "center_size", "region_size", "clamp_similarity")
_LOSS_KEYS = ("lambda_rec", "lambda_dc", "noise_level")
_TOP_KEYS = ("uf", "channels", "stg", "match", "sab_stats_source", "global_residual", "loss", "seed")


def _check_keys(section, allowed, where):
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise InputError(f"unknown config keys in {where}: {', '.join(unknown)}")


def _noise_to_json(value):
    return "infinity" if math.isinf(value) else value


def _noise_from_json(value):
    if isinstance(value, str):
        if value.lower() in ("infinity", "inf"):
            return math.inf
        raise InputError(f"noise_level string must be 'infinity', got {value!r}")
    level = float(value)
    if level < 0:
        raise InputError(f"noise_level must be >= 0, got {level}")
    return level


def to_json(cfg):
    payload = {
        "uf": cfg.uf,
        "channels": cfg.channels,
        "stg": {key: getattr(cfg.stg, key) for key in _STG_KEYS},
        "match": {key: getattr(cfg.match, key) for key in _MATCH_KEYS},
        "sab_stats_source": cfg.sab_stats_source,
        "global_residual": cfg.global_residual,
        "loss": {
            "lambda_rec": cfg.loss.lambda_rec,
            "lambda_dc": cfg.loss.lambda_dc,
            "noise_level": _noise_to_json(cfg.loss.noise_level),
        },
        "seed": cfg.seed,
    }
    return json.dumps(payload, indent=2) + "\n"


def from_json(text):
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"config is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise InputError("config must be a JSON object")
    _check_keys(payload, _TOP_KEYS, "the top level")
    defaults = default_config()

    # collect every field first: cross-field validation (channels vs
    # embed_dim) must only run once all sections are in place
    updates = {}
    if "stg" in payload:
        section = payload["stg"]
        _check_keys(section, _STG_KEYS, "stg")
        updates["stg"] = replace(defaults.stg, **{k: section[k] for k in section})
    if "match" in payload:
        section = payload["match"]
        _check_keys(section, _MATCH_KEYS, "match")
        updates["match"] = replace(defaults.match, **{k: section[k] for k in section})
    if "loss" in payload:
        section = dict(payload["loss"])
        _check_keys(section, _LOSS_KEYS, "loss")
        if "noise_level" in section:
            section["noise_level"] = _noise_from_json(section["noise_level"])
        updates["loss"] = replace(defaults.loss, **section)
    for key in ("uf", "channels", "sab_stats_source", "global_residual", "seed"):
        if key in payload:
            updates[key] = payload[key]
    try:
        return replace(defaults, **updates)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid config value: {exc}") from None


def load_config(path):
    with open(path, "r", encoding="utf-8") as handle:
        return from_json(handle.read())
