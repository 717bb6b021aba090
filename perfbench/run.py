"""Benchmark of the blindgi pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload headline --seed 0 --seconds 60 --trace 0

Each run measures one workload in this process, on one thread (BLAS and
OpenMP included).  It times set-up in fresh subprocesses before and after
the passes, warms up with a tiny pass, and repeats checked passes as long as
they fit in ``--seconds`` seconds (at least one).  With ``--trace 1`` it
adds one pass, inside the same time, with spans recorded around every
layer, and reports the per-layer metrics instead of the end-to-end ones.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it holds the
environment and the per-pass details; the same record, with the spans of a
traced pass, is written to ``.bench_out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("headline", "classic-cli")
# Set-ups timed per run, half before the passes and half after, so the median
# samples the machine at two moments; one more runs first, untimed, to warm
# the file cache.
SETUP_PROBES = 6
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# One BLAS/OpenMP thread, set before numpy loads.  The pipeline's BLAS calls
# are small matrix-vector products: with the library default of one thread
# per CPU, passes were no faster, the extra threads' spin-waits raised CPU
# time to about 1.5x wall, and both time metrics followed the host's thread
# scheduling.
BENCH_THREADS = "1"

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pearson": "ratio"}


@dataclass(frozen=True)
class PassRecord:
    wall_s: float
    cpu_s: float
    ok: bool
    pearson: float
    fourier_error: float
    detail: str


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def timed_pass(workload, span=lambda name: contextlib.nullcontext()) -> PassRecord:
    """One pass: timed ``run``, then the untimed correctness ``check``."""
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    try:
        with span("pass"):
            result = workload.run(span)
    except Exception:  # a pass that raises is a failed pass, not a crashed benchmark
        traceback.print_exc()
        return PassRecord(time.perf_counter() - t0, _cpu_seconds() - cpu0, False, 0.0, 0.0, "raised")
    wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
    try:
        outcome = workload.check(result)
    except Exception:
        traceback.print_exc()
        return PassRecord(wall, cpu, False, 0.0, 0.0, "check raised")
    return PassRecord(wall, cpu, outcome.ok, outcome.pearson, outcome.fourier_error, outcome.detail)


def passing(records: list[PassRecord]) -> list[PassRecord]:
    """The passes whose times count: those that passed, or all of them if none did."""
    return [r for r in records if r.ok] or records


def run_passes(workload, seconds: float, reserve: int = 0) -> list[PassRecord]:
    """Checked passes that fit in ``seconds``, leaving room for ``reserve`` more; at least one.

    Another pass starts only if it and the reserved ones, each as long as the
    median pass so far, would end in time, so a run of long passes does not
    overrun by a whole pass.
    """
    records = []
    start = time.perf_counter()
    while not records or (time.perf_counter() - start
                          + (1 + reserve) * statistics.median(r.wall_s for r in records)
                          <= seconds):
        records.append(timed_pass(workload))
    return records


def traced_pass(workload) -> tuple[PassRecord, object]:
    """One pass with layer spans recorded; returns the record and the tracer."""
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        tracer.recording = True
        try:
            record = timed_pass(workload, tracer.span)
        finally:
            tracer.recording = False
    finally:
        tracer.uninstall()
    return record, tracer


def wall_tail(walls: list[float]) -> dict | None:
    """Highest of p50/p90/p99 that has at least ten samples beyond it."""
    for p in (99, 90, 50):
        if len(walls) * (100 - p) / 100 >= 10:
            return {"percentile": p, "value": statistics.quantiles(walls, n=100)[p - 1]}
    return None


def per_layer_metrics(tracer, record: PassRecord, untraced_wall: float) -> dict:
    own = tracer.self_times()
    total = tracer.totals()
    counts = tracer.counts
    pattern_s = total.get("patterns.pattern_batch", 0.0)
    run_s = total.get("retrieval.run", 0.0)
    iterations = counts["retrieval.iterations"]
    arrayio_self = sum(v for k, v in own.items() if k.startswith("arrayio."))
    spectrum_names = ("correlation.magnitude_spectrum", "correlation.filter_model",
                      "correlation.compensate")
    values = {
        "patterns.pattern_batch.self_s": (own.get("patterns.pattern_batch", 0.0), "s"),
        "patterns.count": (counts["patterns.count"], "count"),
        "patterns.per_s": (counts["patterns.count"] / pattern_s if pattern_s else 0.0, "1/s"),
        "forward.simulate.self_s": (own.get("forward.simulate", 0.0), "s"),
        "forward.psf_for.s": (total.get("forward.psf_for", 0.0), "s"),
        "correlation.correlate.self_s": (own.get("correlation.correlate", 0.0), "s"),
        "correlation.spectrum.s": (sum(total.get(n, 0.0) for n in spectrum_names), "s"),
        "retrieval.estimate_support.s": (total.get("retrieval.estimate_support", 0.0), "s"),
        "retrieval.run.s": (run_s, "s"),
        "retrieval.iterations": (iterations, "count"),
        "retrieval.us_per_iteration": (1e6 * run_s / iterations if iterations else 0.0, "us"),
        "retrieval.fft_calls": (counts["retrieval.fft_calls"], "count"),
        "retrieval.fourier_error": (record.fourier_error, "ratio"),
        "evaluation.align_and_score.s": (total.get("evaluation.align_and_score", 0.0), "s"),
        "cli.simulate.s": (total.get("cli.simulate", 0.0), "s"),
        "cli.reconstruct.s": (total.get("cli.reconstruct", 0.0), "s"),
        "cli.evaluate.s": (total.get("cli.evaluate", 0.0), "s"),
        "arrayio.self_s": (arrayio_self, "s"),
        "arrayio.bytes_written": (counts["arrayio.bytes_written"], "bytes"),
        "trace.pass_s": (record.wall_s, "s"),
        "trace.layers_self_s": (sum(v for k, v in own.items() if k != "pass"), "s"),
        "trace.unattributed_s": (own.get("pass", 0.0), "s"),
        "trace.overhead_s": (record.wall_s - untraced_wall, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def summarize(records: list[PassRecord], setup_times: list[float], traced=None) -> dict:
    """The result line from the untraced passes and, with tracing, the traced one.

    A failed pass counts against ``correct`` and is left out of the timings;
    only when every pass failed are the failed passes timed.
    """
    good = passing(records)
    wall = statistics.median(r.wall_s for r in good)
    passes = records + ([traced[0]] if traced else [])
    failed = sum(not r.ok for r in passes)
    if traced:
        record, tracer = traced
        metrics = per_layer_metrics(tracer, record, wall)
    else:
        values = {
            "wall_s": wall,
            "cpu_s": statistics.median(r.cpu_s for r in good),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pearson": statistics.median(r.pearson for r in good),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {"correct": failed == 0, "attempted": len(passes), "failed": failed, "metrics": metrics}


def pin_threads() -> dict:
    """Set every variable of ``THREAD_ENV`` to ``BENCH_THREADS``; returns them as found."""
    seen = {name: os.environ.get(name) for name in THREAD_ENV}
    os.environ.update({name: BENCH_THREADS for name in THREAD_ENV})
    return seen


def environment(thread_env_seen: dict) -> dict:
    import numpy
    import scipy

    cpu_model = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model,
        "thread_env_seen": thread_env_seen,
        "thread_env_used": {name: os.environ.get(name) for name in THREAD_ENV},
        "git_rev": _git_rev(),
    }


def _git_rev() -> str:
    """Commit of the checkout, read from .git without running git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_probe(workload: str, seed: int) -> float:
    """Seconds for a fresh ``import blindgi`` plus building the workload's inputs."""
    t0 = time.perf_counter()
    import blindgi  # noqa: F401
    from workloads import WORKLOADS

    WORKLOADS[workload].build(seed)
    return time.perf_counter() - t0


def time_setup(workload: str, seed: int, count: int) -> list[float]:
    """``count`` set-up times, each from a fresh subprocess."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(count):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0, help="0 gives the acceptance seeds")
    parser.add_argument("--seconds", type=float, default=60.0, help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced pass and report per-layer metrics")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "blindgi" / "__init__.py").is_file():
        print(f"error: the blindgi sources are missing ({SRC / 'blindgi'} not found)", file=sys.stderr)
        return 2
    thread_env_seen = pin_threads()  # before anything imports numpy; probes inherit it
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0

    setup_times = time_setup(args.workload, args.seed, 1 + SETUP_PROBES // 2)[1:]
    from workloads import WORK_ROOT, WORKLOADS

    factory = WORKLOADS[args.workload]
    workload = factory.build(args.seed)
    timed_pass(factory.build(args.seed, tiny=True))  # warm-up: lazy imports, allocator, caches
    records = run_passes(workload, args.seconds, reserve=args.trace)  # room for the traced pass
    setup_times += time_setup(args.workload, args.seed, SETUP_PROBES - len(setup_times))
    traced = traced_pass(workload) if args.trace else None
    summary = summarize(records, setup_times, traced)

    passes = records + ([traced[0]] if traced else [])
    good = passing(records)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": len(passes),
        "fail_rate": summary["failed"] / summary["attempted"],
        "pass_wall_s": [r.wall_s for r in passes],
        "pass_cpu_s": [r.cpu_s for r in passes],
        "wall_tail": wall_tail([r.wall_s for r in good]),
        "setup_s": setup_times,
        "fourier_error": statistics.median(r.fourier_error for r in good),
        "checks": [r.detail for r in passes],
        "environment": environment(thread_env_seen),
    }
    os.makedirs(WORK_ROOT, exist_ok=True)
    out_path = os.path.join(WORK_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump({"info": info, "result": summary,
                   "spans": traced[1].as_records() if traced else []}, fh, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
