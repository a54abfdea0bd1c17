"""Shared builders for the test suite."""

import numpy as np

from mcsr.selftest import TINY
from mcsr.swin import STL_PARAM_SHAPES, StlParams
from mcsr.tensor_ops import ConvSpec
from mcsr.weights import WeightStore, _stg_parameter_names

TINY_STG = TINY.stg


def random_conv_spec(rng, c_in, c_out, stride=1, transposed=False, scale=1.0):
    shape = (c_in, c_out, 3, 3) if transposed else (c_out, c_in, 3, 3)
    return ConvSpec(c_in, c_out, stride, scale * rng.standard_normal(shape),
                    scale * rng.standard_normal(c_out))


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


def random_stl_params(rng, cfg, scale=0.1):
    hidden = cfg.hidden_dim
    dim = cfg.embed_dim
    return StlParams(
        norm1_gain=np.ones(dim), norm1_bias=np.zeros(dim),
        qkv_weight=scale * rng.standard_normal((3 * dim, dim)),
        qkv_bias=scale * rng.standard_normal(3 * dim),
        proj_weight=scale * rng.standard_normal((dim, dim)),
        proj_bias=scale * rng.standard_normal(dim),
        bias_table=scale * rng.standard_normal(((2 * cfg.window - 1) ** 2, cfg.num_heads)),
        norm2_gain=np.ones(dim), norm2_bias=np.zeros(dim),
        fc1_weight=scale * rng.standard_normal((hidden, dim)),
        fc1_bias=scale * rng.standard_normal(hidden),
        fc2_weight=scale * rng.standard_normal((dim, hidden)),
        fc2_bias=scale * rng.standard_normal(dim),
    )


def zero_stg_store(prefix, cfg, store=None):
    store = store if store is not None else WeightStore()
    for name, shape in _stg_parameter_names(prefix, cfg):
        store.set(name, np.zeros(shape))
    return store


def random_stg_store(prefix, stg_cfg, rng, scale=0.02, store=None):
    store = store if store is not None else WeightStore()
    for name, shape in _stg_parameter_names(prefix, stg_cfg):
        store.set(name, scale * rng.standard_normal(shape))
    return store
