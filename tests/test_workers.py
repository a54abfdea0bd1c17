"""Outputs do not depend on how many threads run the window chunks and the
im2col bands: every count gives the same bits as the serial loop. The count
is set through the module's ``_WORKERS`` (a test seam, not an option)."""

import os
import signal
import threading
import time

import numpy as np
import pytest
from support import random_conv_spec, random_stl_params

from mcsr import tensor_ops
from mcsr.pipeline import run_forward
from mcsr.selftest import TINY
from mcsr.swin import StlConfig, stl_forward
from mcsr.tensor_ops import _for_each_block, conv2d, conv_transpose2d
from mcsr.weights import init_random_weights

COUNTS = (2, 3)


@pytest.fixture
def workers(monkeypatch):
    return lambda count: monkeypatch.setattr(tensor_ops, "_WORKERS", count)


def serial_and_parallel(workers, run, counts=COUNTS):
    workers(1)
    want = run()
    for count in counts:
        workers(count)
        yield count, want, run()


@pytest.mark.parametrize("shift", [0, 2])
def test_stl_forward_is_worker_count_invariant(workers, shift):
    rng = np.random.default_rng(shift)
    cfg = StlConfig(embed_dim=8, num_heads=2, window=4, shift=shift, mlp_ratio=2.0)
    params = random_stl_params(rng, cfg)
    x = rng.standard_normal((8, 45, 77))  # padded to 48x80: 240 windows, 15 chunks
    for count, want, got in serial_and_parallel(workers, lambda: stl_forward(x, cfg, params)):
        assert np.array_equal(got, want), f"{count} workers"


CONVS = {
    "conv2d stride 1": (lambda rng: random_conv_spec(rng, 5, 7, 1), conv2d),
    "conv2d stride 2": (lambda rng: random_conv_spec(rng, 5, 7, 2), conv2d),
    "conv_transpose2d": (lambda rng: random_conv_spec(rng, 5, 7, 2, transposed=True),
                         conv_transpose2d),
}


@pytest.mark.parametrize("name", sorted(CONVS))
@pytest.mark.parametrize("band_bytes", [40_000, 4096])  # a few rows, one row per band
def test_convolutions_are_worker_count_invariant(workers, monkeypatch, name, band_bytes):
    rng = np.random.default_rng(len(name))
    make_spec, conv = CONVS[name]
    spec, x = make_spec(rng), rng.standard_normal((5, 23, 31))
    monkeypatch.setattr(tensor_ops, "_BAND_BYTES", band_bytes)
    for count, want, got in serial_and_parallel(workers, lambda: conv(x, spec)):
        assert np.array_equal(got, want), f"{count} workers"


def test_run_forward_is_worker_count_invariant(workers):
    rng = np.random.default_rng(5)
    lr, ref = rng.uniform(size=(16, 24)), rng.uniform(size=(32, 48))
    run = lambda: run_forward(TINY, init_random_weights(TINY), lr, ref)
    for count, want, got in serial_and_parallel(workers, run):
        assert np.array_equal(got, want), f"{count} workers"


def test_workers_run_under_the_callers_errstate(workers):
    # Pool threads do not inherit np.errstate; pytest turns a RuntimeWarning
    # from any of them into an error.
    workers(3)
    rng = np.random.default_rng(6)
    cfg = StlConfig(embed_dim=8, num_heads=2, window=4, shift=2, mlp_ratio=2.0)
    x = 1e200 * rng.uniform(size=(8, 45, 77))  # the layer norms' variance overflows
    with np.errstate(over="ignore"):
        out = stl_forward(x, cfg, random_stl_params(rng, cfg))
    assert np.all(np.isfinite(out))
    with pytest.raises(RuntimeWarning, match="overflow"):
        stl_forward(x, cfg, random_stl_params(rng, cfg))


def test_worker_exception_reaches_the_caller(workers):
    workers(2)
    worker_ran = threading.Event()

    def block(start):
        if threading.current_thread() is threading.main_thread():
            worker_ran.wait(timeout=10)  # leaves the other blocks to the worker
        else:
            worker_ran.set()
            raise ValueError(f"block {start}")

    with pytest.raises(ValueError, match="block"):
        _for_each_block(block, range(8))
    assert worker_ran.is_set()


def test_caller_exception_waits_for_the_workers(workers):
    workers(2)
    worker_ran, finished = threading.Event(), []

    def block(start):
        if threading.current_thread() is threading.main_thread():
            worker_ran.wait(timeout=10)
            raise ValueError("caller")
        worker_ran.set()
        time.sleep(0.05)
        finished.append(start)

    with pytest.raises(ValueError, match="caller"):
        _for_each_block(block, range(8))
    assert finished  # the worker's block ended before the call did


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_blocks(workers):
    workers(2)
    _for_each_block(lambda start: None, range(4))  # the parent's pool threads exist now
    pid = os.fork()
    if pid == 0:  # a forked child has none of them
        code = 1
        try:
            done = []
            _for_each_block(done.append, range(4))
            code = 0 if sorted(done) == [0, 1, 2, 3] else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 10
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if status[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert status[0] == pid, "the child hung"
    assert os.waitstatus_to_exitcode(status[1]) == 0
