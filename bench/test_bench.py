"""Tests of the benchmark's own code: the traced rebuild matches the
program, computed counts repeat exactly, span arithmetic, input generation
and the output checks.

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run  # pins BLAS threads before numpy loads

assert run.use_checkout_sources() is None

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from mcsr import ModelConfig, init_random_weights, run_forward  # noqa: E402
from mcsr.kspace import degrade  # noqa: E402
from mcsr.swin import StgConfig  # noqa: E402
from spans import Tracer, coverage, no_span, self_times  # noqa: E402
from workloads import WORKLOADS, Output, phantom, stl_counts, traced_forward  # noqa: E402

TINY = ModelConfig(uf=2, channels=8,
                   stg=StgConfig(num_rstb=1, stl_per_rstb=2, embed_dim=8, num_heads=2, window=4))
COUNTS = ("swin.gflop", "swin.logit_mb", "matching.patches", "matching.region_pairs")


def tiny_inputs(seed):
    ref, target = phantom(np.random.default_rng([seed, 0]), 32, 2)
    return degrade(target, TINY.uf), ref


def traced_metrics(seed):
    store = init_random_weights(TINY)
    lr, ref = tiny_inputs(seed)
    tracer = Tracer()
    tracer.op = 0
    with tracer.span("op"):
        sr = traced_forward(TINY, store, lr, ref, tracer.span)
    metrics, coverages = run.layer_metrics(tracer.spans, [0], {0: 0})
    return sr, metrics, coverages


def test_traced_forward_is_bitwise_run_forward():
    store = init_random_weights(TINY)
    lr, ref = tiny_inputs(1)
    expected = run_forward(TINY, store, lr, ref)
    assert np.array_equal(traced_forward(TINY, store, lr, ref, no_span), expected)
    sr, _, coverages = traced_metrics(1)
    assert np.array_equal(sr, expected)
    assert min(coverages) >= run.MIN_COVERAGE


def test_computed_counts_repeat_exactly_across_runs_and_inputs():
    _, first, _ = traced_metrics(1)
    _, second, _ = traced_metrics(2)
    for name in COUNTS:
        assert first[name] == second[name]
        assert first[name][0] > 0
        assert first[name][1].endswith("-computed")
    # 16x16 LR features, 13x13 patches: 2x2 patches, 11x11 regions each side
    assert first["matching.patches"][0] == 4
    assert first["matching.region_pairs"][0] == 4 * 121 * 121


def test_logit_block_of_default_reference_group():
    # 1,024 windows x 4 heads x 64^2 float64 logits at 256x256
    layer = StgConfig().stl_config(1)
    assert stl_counts((32, 256, 256), layer)["logit_mb"] == pytest.approx(134.217728)


def test_self_time_and_coverage():
    spans = [
        {"name": "op", "start": 0.0, "end": 10.0, "parent": None, "op": 0},
        {"name": "a", "start": 0.0, "end": 6.0, "parent": 0, "op": 0},
        {"name": "b", "start": 1.0, "end": 3.0, "parent": 1, "op": 0},
        {"name": "c", "start": 6.5, "end": 10.0, "parent": 0, "op": 0},
    ]
    assert self_times(spans) == [0.5, 4.0, 2.0, 3.5]
    assert coverage(spans, 0) == 0.95


def test_failure_belongs_to_the_innermost_span():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("op"):
            with tracer.span("swin.ref.stg"):
                with tracer.span("swin.ref.stl.shifted"):
                    raise ValueError
    assert [s["failed"] for s in tracer.spans] == [False, False, True]


def test_phantom_depends_only_on_seed():
    a = phantom(np.random.default_rng([5, 1]), 64, 2)
    assert np.array_equal(a, phantom(np.random.default_rng([5, 1]), 64, 2))
    assert not np.array_equal(a, phantom(np.random.default_rng([6, 1]), 64, 2))
    assert a.shape == (2, 64, 64) and a.min() >= 0.0 and a.max() <= 1.0
    assert not np.array_equal(a[0], a[1])  # two contrasts of one anatomy


def test_checker_pins_and_repeats():
    check = run.Checker({0: "aa"})
    assert check(0, Output("aa", 1), "untraced")
    assert not check(0, Output("bb", 1), "traced")  # pinned
    assert check(1, Output("cc", 1), "untraced")
    assert not check(1, Output("dd", 1), "traced")  # a repeat must reproduce
    assert not check(2, Output("ee", 1, "output has non-finite values"), "untraced")
    assert not check(3, None, "untraced")
    assert (check.attempted, check.failed) == (6, 4)
    assert [path for _, path, _ in check.problems] == ["traced", "traced", "untraced", "untraced"]


def test_default_seed_digests_cover_every_workload():
    table = json.loads((run.HERE / "digests.json").read_text())
    assert table["seed"] == run.DEFAULT_SEED
    assert set(table["workloads"]) == set(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, str(Path(tmp_path, run.HERE.name, "run.py")), "--workload",
         "api_shared_ref_uf2", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
