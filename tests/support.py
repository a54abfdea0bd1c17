"""Shared builders and host checks for the test suite."""

import ctypes
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mcsr import matching
from mcsr.selftest import TINY
from mcsr.swin import StlParams, load_stg_params
from mcsr.tensor_ops import ConvSpec
from mcsr.weights import WeightStore, _InventoryRecorder

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
    return StlParams(**{param.name: np.zeros(param.metadata["shape"](cfg))
                        for param in fields(StlParams)})


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


def stg_inventory(prefix, stg_cfg):
    """Every (name, shape) ``load_stg_params`` fetches, in its order."""
    recorder = _InventoryRecorder()
    load_stg_params(recorder, prefix, stg_cfg)
    return recorder.inventory


def zero_stg_store(prefix, cfg, store=None):
    store = store if store is not None else WeightStore()
    for name, shape in stg_inventory(prefix, cfg):
        store.set(name, np.zeros(shape))
    return store


def random_stg_store(prefix, stg_cfg, rng, scale=0.02, store=None):
    store = store if store is not None else WeightStore()
    for name, shape in stg_inventory(prefix, stg_cfg):
        store.set(name, scale * rng.standard_normal(shape))
    return store


# The BLAS build, and the kernel it dispatched to, that recorded the golden
# digests: with any other, a different rounding is no fault of the code.
RECORDING_BLAS = "scipy-openblas 0.3.31.188.0"
RECORDING_CORE = "SkylakeX"


def _openblas_call(symbols, restype):
    """Result of the first of ``symbols`` the loaded OpenBLAS exports, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in symbols:
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = restype
                return function()
    return None


def openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    return _openblas_call(("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"), ctypes.c_int)


def recording_blas_mismatch():
    """Why this host's BLAS is not the one that recorded the golden digests,
    or None when it is."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        build = None
    if build != RECORDING_BLAS:
        return f"numpy's BLAS is {build}, not {RECORDING_BLAS}"
    core = _openblas_call(("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                           "openblas_get_corename"), ctypes.c_char_p)
    core = core.decode() if core else None
    if core != RECORDING_CORE:
        return f"OpenBLAS runs {core} kernels, not {RECORDING_CORE}"
    return None


OTHER_BLAS = recording_blas_mismatch()
# for a test that asserts a band, depth or thread rule measured on the recording BLAS's GEMM
on_recording_blas = pytest.mark.skipif(OTHER_BLAS is not None, reason=f"{OTHER_BLAS}: other GEMM rules")


def run_child(script, threads):
    """The JSON that ``script`` prints in a child at ``threads`` OpenBLAS
    threads, which imports mcsr and the test modules from this checkout."""
    paths = [str(Path(matching.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join([*paths, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout)


def recording_score_bands(bands):
    """A stand-in for ``matching._conv_core`` that runs it and keeps each band
    of cosine scores that ``_best_windows``'s hook writes, by the band's first
    window row: bands may run on several threads, in any order."""
    conv_core = matching._conv_core

    def recorded(maps, specs, epilogue, **kwargs):
        def hook(rows, *args):
            bands[rows.start] = epilogue(rows, *args)

        return conv_core(maps, specs, epilogue=hook, **kwargs)

    return recorded
