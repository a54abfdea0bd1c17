"""Shared builders for the test suite."""

import numpy as np

from mcsr.selftest import _random_conv_spec as random_conv_spec  # noqa: F401
from mcsr.selftest import _random_stl_params as random_stl_params  # noqa: F401
from mcsr.selftest import _zero_stg_store as zero_stg_store  # noqa: F401
from mcsr.swin import STL_PARAM_SHAPES, StgConfig, StlParams
from mcsr.tensor_ops import ConvSpec
from mcsr.weights import WeightStore, _stg_parameter_names

TINY_STG = StgConfig(num_rstb=1, stl_per_rstb=2, embed_dim=8, num_heads=2, window=4, mlp_ratio=2.0)


def zero_conv_spec(c_in, c_out, stride=1, transposed=False):
    shape = (c_in, c_out, 3, 3) if transposed else (c_out, c_in, 3, 3)
    return ConvSpec(c_in, c_out, stride, np.zeros(shape), np.zeros(c_out))


def identity_conv_spec(channels):
    weights = np.zeros((channels, channels, 3, 3))
    for c in range(channels):
        weights[c, c, 1, 1] = 1.0
    return ConvSpec(channels, channels, 1, weights, np.zeros(channels))


def zero_stl_params(cfg):
    values = []
    for _, shape_of in STL_PARAM_SHAPES:
        values.append(np.zeros(shape_of(cfg)))
    return StlParams(*values)


def random_stg_store(prefix, stg_cfg, rng, scale=0.02, store=None):
    store = store if store is not None else WeightStore()
    for name, shape in _stg_parameter_names(prefix, stg_cfg):
        store.set(name, scale * rng.standard_normal(shape))
    return store
