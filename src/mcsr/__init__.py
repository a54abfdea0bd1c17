"""Multi-contrast MRI super-resolution: Swin-based feature extraction,
multi-scale contextual matching and aggregation, k-space degradation, and
the loss/metric suite."""

from .config import ModelConfig, default_config, from_json, load_config, to_json
from .errors import CorruptFileError, InputError, McsrError, MissingWeightsError
from .pipeline import run_forward, validate_store
from .weights import WeightStore, init_random_weights, load_weights, save_weights

__all__ = [
    "CorruptFileError",
    "InputError",
    "McsrError",
    "MissingWeightsError",
    "ModelConfig",
    "WeightStore",
    "default_config",
    "from_json",
    "init_random_weights",
    "load_config",
    "load_weights",
    "run_forward",
    "save_weights",
    "to_json",
    "validate_store",
]

__version__ = "0.1.0"
