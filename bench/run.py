"""mcsr benchmark: one workload per run, a closed loop with one client.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

With ``--trace 0`` it times the program as a user runs it and reports the
end-to-end metrics; with ``--trace 1`` it rebuilds each op from the layers'
public functions inside this process, records a span at every layer
boundary, and reports the per-layer metrics. Every op's output is checked.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result, with
the environment record (and the spans, when traced), goes to ``.bench_out/``.
"""

import argparse
import os
import sys

# One BLAS thread for this process and every child, before numpy loads.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import ctypes
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 0  # the seed whose outputs digests.json pins
SETUP_PROBES = 7
MIN_COVERAGE = 0.95
# Layers whose failures a traced run can count; a config error aborts set-up.
LAYERS = ("cli", "imageio", "weights", "pipeline", "kspace", "pyramid", "swin", "matching",
          "aggregation", "losses")
BRANCHES = ("tar_lr", "ref_lr", "ref")
NUM_RSTB = 4  # rstb{i}_s metrics exist for the default group depth


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


# ---------------------------------------------------------- environment


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return function()
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    """HEAD of the checkout, or None when it is not a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the program's sources: identifies the code when the
    checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "mcsr").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


# --------------------------------------------------------------- checks


class Checker:
    """Output checks. At the default seed every op must match its pinned
    digest; at any seed an op run again (by another path of the traced run)
    must match the first digest seen for it, and outputs must be finite and
    shaped right."""

    def __init__(self, pinned):
        self.expected = dict(pinned)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def __call__(self, k, output, path):
        """Check op ``k``'s output, run by ``path`` ("untraced", "traced" or
        "child"); ``output`` is None if the op raised."""
        self.attempted += 1
        problem = self._problem(k, output)
        if problem:
            self.failed += 1
            self.problems.append((k, path, problem))
            print(f"check failed: op {k} ({path}): {problem}", file=sys.stderr)
        return problem is None

    def _problem(self, k, output):
        if output is None:
            return "raised"
        if output.problem:
            return output.problem
        want = self.expected.setdefault(k, output.digest)
        if output.digest != want:
            return f"digest {output.digest[:16]} != {want[:16]}"
        return None


def pinned_digests(name, seed):
    if seed != DEFAULT_SEED:
        return {}
    table = json.loads((HERE / "digests.json").read_text())
    return {int(k): v for k, v in table["workloads"].get(name, {}).items()}


# ------------------------------------------------------------ the loops


def timed_op(workload, run_op, k, check, path):
    """Run op ``k`` once; returns its latency and the HR pixels it completed
    (0 unless its output passed the checks). Making the inputs and checking
    the output happen outside the clock."""
    workload.inputs(k)
    t0 = time.perf_counter()
    try:
        output = run_op(k)
    except Exception:  # an op that raises is a failed op; keep measuring
        traceback.print_exc()
        output = None
    latency = time.perf_counter() - t0
    return latency, output.pixels if check(k, output, path) else 0


def more_ops(done, min_ops, start, last, seconds):
    """Closed-loop stop rule: run ``min_ops`` ops, then issue another only if
    it should end within ``seconds`` of ``start``, judging by the last op
    (``last`` seconds), so op counts do not flip between runs of ops near
    the run length."""
    return done < min_ops or time.perf_counter() - start + last <= seconds


def closed_loop(workload, run_op, check, path, min_ops, seconds):
    """Issue ops 0, 1, ... one at a time while :func:`more_ops` allows;
    returns per-op latencies and completed pixels."""
    latencies, pixels = [], 0
    start = time.perf_counter()
    while more_ops(len(latencies), min_ops, start, latencies[-1] if latencies else 0.0,
                   seconds):
        latency, done = timed_op(workload, run_op, len(latencies), check, path)
        latencies.append(latency)
        pixels += done
    return latencies, pixels


def probe_setup(workload, workdir, count):
    """Wall times, over ``count`` fresh processes, from spawn to the first
    op that could be issued (the probe's "ready" line)."""
    command = [sys.executable, str(HERE / "probe.py"), workload.name, str(workdir)]
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
        times.append(elapsed)
    return times


def untraced_run(workload, workdir, seconds, check):
    """The program as a user runs it. Set-up probes run partly before and
    partly after the ops, so their median spans the host's slow and fast
    spells over the whole run."""
    from spans import no_span

    before = (SETUP_PROBES + 1) // 2
    setup_times = probe_setup(workload, workdir, before)
    workload.setup(no_span)
    latencies, pixels = closed_loop(workload, workload.untraced, check, "untraced",
                                    workload.min_ops, seconds)
    setup_times += probe_setup(workload, workdir, SETUP_PROBES - before)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1] if len(latencies) > 1 \
        else latencies[0]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_mpix_s": (pixels / sum(latencies) / 1e6, "Mpix/s"),
        "latency_s.p50": (statistics.median(latencies), "s"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MiB"),
    }
    notes = {"ops": len(latencies), "latencies_s": latencies, "setup_probes_s": setup_times,
             "informational": {"latency_s.p90": (p90, "s")}}
    return metrics, notes, None


def traced_run(workload, workdir, seconds, check):
    """Traced ops in a closed loop. While the first half of the run lasts
    (and always for op 0), op k also runs untraced in this process, before
    its traced run for even k and after it for odd k, so the pairs give the
    tracing overhead with drift and warm-up balanced, and their digests must
    agree. For a workload whose untraced op is a child process, op 0 also
    runs as that child first."""
    from spans import Tracer, self_times

    tracer = Tracer()
    workload.setup(tracer.span)
    child_latency = None
    if workload.runs_in_child:
        child_latency, _ = timed_op(workload, workload.untraced, 0, check, "child")

    def traced_op(k):
        tracer.op = k
        op_spans[k] = len(tracer.spans)
        with tracer.span("op"):
            return workload.inprocess(k, tracer.span)

    untraced, traced, op_spans = [], [], {}
    start = time.perf_counter()
    k = 0
    while more_ops(k, workload.min_ops, start, traced[-1] if traced else 0.0, seconds):
        pair = k == 0 or time.perf_counter() - start < seconds / 2
        if pair and k % 2 == 0:
            untraced.append(
                timed_op(workload, workload.untraced_inprocess, k, check, "untraced")[0])
        traced.append(timed_op(workload, traced_op, k, check, "traced")[0])
        if pair and k % 2 == 1:
            untraced.append(
                timed_op(workload, workload.untraced_inprocess, k, check, "untraced")[0])
        k += 1
    metrics, coverages = layer_metrics(tracer.spans, sorted(op_spans), op_spans)
    paired = range(len(untraced))
    overhead = (statistics.median(traced[k] / untraced[k] for k in paired) - 1.0)
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    metrics["cli.overhead_s"] = (child_latency - traced[0] if child_latency else 0.0, "s")
    problems = []
    if min(coverages) < MIN_COVERAGE:
        problems.append(f"trace coverage {min(coverages):.4f} < {MIN_COVERAGE}")
    failed = {layer: 0 for layer in LAYERS}
    for span in tracer.spans:
        if span["failed"]:
            layer = span["name"].split(".")[0]
            failed[layer if layer in failed else "pipeline"] += 1
    for _, path, problem in check.problems:
        if path == "child":
            failed["cli"] += 1
        elif (path, problem) != ("traced", "raised"):  # those are counted by span
            failed["pipeline"] += 1
    for layer, count in failed.items():
        metrics[f"{layer}.failed"] = (count, "count")
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        span["self_s"] = self_s
    notes = {"ops": len(traced), "untraced_ops": len(untraced), "coverage_min": min(coverages),
             "spans": tracer.spans}
    return metrics, notes, problems


def layer_metrics(spans, ops, op_spans):
    """Per-layer metrics from the spans: each the median over traced ops of a
    per-op sum, in seconds unless the unit says otherwise."""
    from spans import coverage, duration, per_op

    def named(*names):
        return lambda span: span["name"] in names

    def time_of(*names):
        return (per_op(spans, ops, named(*names)), "s")

    def count_of(key, select, unit):
        return (per_op(spans, ops, select, value=lambda span: span.get(key, 0)), unit)

    def setup_time(name):
        return (sum((duration(s) for s in spans if s["op"] is None and s["name"] == name), 0.0),
                "s")

    m = {}
    for b in BRANCHES:
        m[f"swin.{b}.stg_s"] = time_of(f"swin.{b}.stg")
        for i in range(NUM_RSTB):
            m[f"swin.{b}.rstb{i}_s"] = time_of(f"swin.{b}.rstb{i}")
        m[f"swin.{b}.stl_shifted_s"] = time_of(f"swin.{b}.stl.shifted")
        m[f"swin.{b}.stl_unshifted_s"] = time_of(f"swin.{b}.stl.unshifted")
        m[f"swin.{b}.conv_s"] = time_of(f"swin.{b}.conv")
    m["swin.load_s"] = time_of(*(f"swin.{b}.load" for b in BRANCHES))
    is_swin = lambda span: span["name"].startswith("swin.")
    m["swin.gflop"] = count_of("gflop", is_swin, "GFLOP-computed")
    stg_seconds = sum(m[f"swin.{b}.stg_s"][0] for b in BRANCHES)
    m["swin.gflop_per_s"] = (m["swin.gflop"][0] / stg_seconds if stg_seconds else 0.0, "GFLOP/s")
    m["swin.logit_mb"] = (max((s.get("logit_mb", 0.0) for s in spans), default=0.0),
                          "MB-computed")
    m["pyramid.shallow_s"] = time_of("pyramid.shallow")
    for b in BRANCHES:
        m[f"pyramid.{b}_s"] = time_of(f"pyramid.{b}")
    m["pyramid.down_s"] = time_of("pyramid.down")
    m["matching.compute_s"] = time_of("matching.compute")
    for level in (1, 2, 3):
        m[f"matching.map.l{level}_s"] = time_of(f"matching.map.l{level}")
    is_compute = named("matching.compute")
    m["matching.patches"] = count_of("patches", is_compute, "count-computed")
    m["matching.region_pairs"] = count_of("region_pairs", is_compute, "count-computed")
    for level in (1, 2, 3):
        m[f"aggregation.sab.l{level}_s"] = time_of(f"aggregation.sab.l{level}")
        m[f"aggregation.jrfab.l{level}_s"] = time_of(f"aggregation.jrfab.l{level}")
    m["aggregation.head_s"] = time_of("aggregation.head")
    m["aggregation.load_s"] = time_of("aggregation.load")
    m["weights.init_s"] = time_of("weights.init")
    m["weights.load_s"] = setup_time("weights.load")
    m["weights.validate_s"] = setup_time("weights.validate")
    m["kspace.degrade_s"] = time_of("kspace.degrade")
    for name in ("ssim", "psnr", "rmse", "full_loss"):
        m[f"losses.{name}_s"] = time_of(f"losses.{name}")
    m["imageio.read_s"] = time_of("imageio.read")
    m["imageio.write_s"] = time_of("imageio.write")
    coverages = [coverage(spans, op_spans[k]) for k in ops]
    m["trace.coverage"] = (statistics.median(coverages), "ratio")
    return m, coverages


# ----------------------------------------------------------------- main


def use_checkout_sources():
    """Make this process and its children import mcsr from this checkout's
    ``src/``; returns an error message when that is impossible."""
    if not (SRC / "mcsr" / "__init__.py").is_file():
        return f"no mcsr sources under {SRC}; run from a full checkout"
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    import mcsr

    if Path(mcsr.__file__).resolve().parent != SRC / "mcsr":
        return f"imported mcsr from {mcsr.__file__}, not {SRC}"
    return None


def main(argv=None):
    args = parse_args(argv)
    error = use_checkout_sources()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.prepare()
        check = Checker(pinned_digests(workload.name, args.seed))
        run = traced_run if args.trace else untraced_run
        metrics, notes, trace_problems = run(workload, workdir, args.seconds, check)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [f"op {k} ({path}): {problem}" for k, path, problem in check.problems]
    problems += trace_problems or []
    env = environment(args.seed)
    result = {
        "correct": check.failed == 0 and not problems,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, trace=args.trace, seconds=args.seconds,
                  environment=env, problems=problems, **notes)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"environment": env}))
    print(f"{args.workload}: {notes['ops']} ops, failed_frac {check.failed / check.attempted:.4f}")
    for name, (value, unit) in {**metrics, **notes.get("informational", {})}.items():
        print(f"  {name} {value:.6g} {unit}")
    for problem in problems:
        print(f"  problem: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
