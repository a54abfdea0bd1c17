"""Model configuration and its JSON form.

The dataclasses are the schema: the JSON keys are their field names
(snake_case) and each value must fit its field's annotated type. Unknown keys
are rejected, missing keys fall back to the defaults. ``noise_level``
serializes as the string ``"infinity"`` because JSON has no infinity
literal; finite values are plain numbers.
"""

import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

from .aggregation import SAB_STATS_SOURCES
from .errors import InputError, check_field_types
from .losses import LossWeights
from .matching import MatchConfig
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
        check_field_types(self)
        if self.uf not in (2, 4):
            raise InputError(f"uf must be 2 or 4, got {self.uf}")
        if self.channels != self.stg.embed_dim:
            raise InputError(
                f"channels ({self.channels}) must equal stg.embed_dim ({self.stg.embed_dim})"
            )
        if self.sab_stats_source not in SAB_STATS_SOURCES:
            raise InputError(f"sab_stats_source must be one of {SAB_STATS_SOURCES}")
        if not 0 <= self.seed < 2**64:  # the weight LCG has 64 bits of state
            raise InputError(f"seed must be in [0, 2**64), got {self.seed}")

    @property
    def num_levels(self):
        return {2: 2, 4: 3}[self.uf]  # level 1 at the LR scale, one more per factor 2


def default_config():
    return ModelConfig()


_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a finite number",
               str: "a string"}


def _field_value(kind, value, where):
    if is_dataclass(kind):
        return _section(kind, value, where)
    if where == "loss.noise_level" and isinstance(value, str):
        if value.lower() in ("infinity", "inf"):
            return math.inf
        raise InputError(f"noise_level string must be 'infinity', got {value!r}")
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if kind is float and number and abs(value) <= sys.float_info.max:  # finite, also for ints
        return float(value)
    if kind in (bool, str) and isinstance(value, kind):
        return value
    raise InputError(f"config key {where} must be {_TYPE_NAMES[kind]}, got {json.dumps(value)}")


def _section(cls, payload, where=""):
    """Build the dataclass ``cls`` from a JSON object; ``where`` is its dotted
    key in error messages. Nested sections are built first, so cross-field
    checks see every value."""
    if not isinstance(payload, dict):
        raise InputError(f"config {where or 'file'} must be a JSON object")
    kinds = get_type_hints(cls)
    unknown = sorted(set(payload) - {f.name for f in fields(cls)})
    if unknown:
        raise InputError(f"unknown config keys in {where or 'the top level'}: "
                         f"{', '.join(unknown)}")
    prefix = f"{where}." if where else ""
    return cls(**{key: _field_value(kinds[key], value, prefix + key)
                  for key, value in payload.items()})


def to_json(cfg):
    payload = asdict(cfg)
    if math.isinf(cfg.loss.noise_level):
        payload["loss"]["noise_level"] = "infinity"
    return json.dumps(payload, indent=2) + "\n"


def from_json(text):
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also bad UTF-8 bytes and deep nesting
        raise InputError(f"config is not valid JSON: {exc}") from None
    return _section(ModelConfig, payload)


def load_config(path):
    return from_json(Path(path).read_bytes())
