"""Tests of the benchmark itself, on tiny passes.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run as bench  # noqa: E402
import workloads  # noqa: E402
import blindgi.pipeline  # noqa: E402
from blindgi import CorrelationImage  # noqa: E402
from spans import Span, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def traced_tiny():
    """One tiny traced pass per workload: {name: (record, tracer, per-layer metrics)}."""
    out = {}
    for name, factory in workloads.WORKLOADS.items():
        workload = factory.build(0, tiny=True)
        untraced = bench.timed_pass(workload)
        record, tracer = bench.traced_pass(workload)
        out[name] = (record, tracer, bench.per_layer_metrics(tracer, record, untraced.wall_s))
    return out


def test_metric_names_match_pattern_and_benchmark_json(traced_tiny):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for name in end_to_end + per_layer:
        assert NAME.fullmatch(name), name
    assert end_to_end == list(bench.END_TO_END_UNITS)
    for _, _, metrics in traced_tiny.values():
        assert list(metrics) == per_layer
        assert all(NAME.fullmatch(name) for name in metrics)


def test_layer_self_times_partition_the_traced_pass(traced_tiny):
    for name, (record, tracer, metrics) in traced_tiny.items():
        own = tracer.self_times()
        layers = metrics["trace.layers_self_s"]["value"]
        unattributed = metrics["trace.unattributed_s"]["value"]
        assert layers <= record.wall_s, name
        # the root span opens just after the pass clock starts and closes just before it stops
        assert layers + unattributed == pytest.approx(record.wall_s, abs=5e-3), name
        assert all(v >= 0 for v in own.values()), name


def test_counts_repeat_exactly(traced_tiny):
    for name, factory in workloads.WORKLOADS.items():
        _, first, _ = traced_tiny[name]
        _, again = bench.traced_pass(factory.build(0, tiny=True))
        assert again.counts == first.counts, name
    headline = traced_tiny["headline"][1].counts
    classic = traced_tiny["classic-cli"][1].counts
    # simulate and correlate each stream the whole ensemble once
    ensemble = workloads.Headline.build(0, tiny=True).cfg.ensemble_count
    assert headline["patterns.count"] == classic["patterns.count"] == 2 * ensemble
    assert headline["retrieval.fft_calls"] > classic["retrieval.fft_calls"] > 0
    assert headline["arrayio.bytes_written"] == 0 < classic["arrayio.bytes_written"]


def test_tracer_removes_its_wrappers():
    import blindgi.forward
    import blindgi.patterns

    original = blindgi.patterns.pattern_batch
    tracer = Tracer()
    tracer.install()
    assert blindgi.forward.pattern_batch is not original
    tracer.uninstall()
    assert blindgi.forward.pattern_batch is original
    assert np.fft.fft2.__module__ == "numpy.fft"


def test_self_time_counts_concurrent_children_once():
    tracer = Tracer()
    tracer.spans = [
        Span(0, None, "pass", 0.0, 10.0, 1),
        Span(1, 0, "correlation.correlate", 1.0, 9.0, 1),
        Span(2, 1, "patterns.pattern_batch", 2.0, 6.0, 2),  # two worker threads overlap
        Span(3, 1, "patterns.pattern_batch", 3.0, 8.0, 3),
    ]
    own = tracer.self_times()
    assert own == {"pass": 2.0, "correlation.correlate": 2.0, "patterns.pattern_batch": 6.0}
    assert sum(own.values()) == 10.0


def test_wrong_output_is_counted_as_failed(monkeypatch):
    # The tiny ensemble (J = N) cannot reach the full-size 0.95 Pearson floor.
    workload = replace(workloads.ClassicCli.build(0, tiny=True), min_pearson=0.8)
    good = bench.timed_pass(workload)
    assert good.ok, good.detail

    def wrong_correlate(measurements, workers=1):
        grid = measurements.ensemble.grid
        noise = np.random.default_rng(0).random(grid.shape)
        return CorrelationImage(grid, noise, measurements.ensemble.count)

    monkeypatch.setattr(blindgi.pipeline, "correlate", wrong_correlate)
    bad = bench.timed_pass(workload)
    assert not bad.ok

    summary = bench.summarize([good, bad], setup_times=[0.1])
    assert summary["attempted"] == 2 and summary["failed"] == 1
    assert summary["correct"] is False
    assert summary["metrics"]["wall_s"]["value"] == good.wall_s  # the failed pass is not timed
