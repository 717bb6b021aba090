"""Spans and counters recorded from outside the package.

The tracer wraps the package's public functions where they cross a layer
boundary: it replaces the function object in every ``blindgi`` module that
holds it, so calls made through an imported name (``pipeline.correlate``)
and through a module global (``forward.pattern_batch`` inside
``simulate``) are both recorded.  Nothing under ``src/`` is edited, and the
originals are put back when the tracer is removed.

Spans are kept in memory; ``Tracer.dump`` writes them once, at the end of a
run.  A layer's self time is the length of the part of its spans that no
child span covers, so time spent in worker threads is counted once, and the
self times of all layers partition the traced pass.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

ROOT_SPAN = "pass"

# (module, function, span name).  Grid helpers get no span: their calls take
# well under a millisecond and their time lands in the caller's self time.
LAYER_FUNCTIONS = (
    ("blindgi.patterns", "pattern_batch", "patterns.pattern_batch"),
    ("blindgi.forward", "simulate", "forward.simulate"),
    ("blindgi.forward", "psf_for", "forward.psf_for"),
    ("blindgi.correlation", "correlate", "correlation.correlate"),
    ("blindgi.correlation", "magnitude_spectrum", "correlation.magnitude_spectrum"),
    ("blindgi.correlation", "filter_model", "correlation.filter_model"),
    ("blindgi.correlation", "compensate", "correlation.compensate"),
    ("blindgi.retrieval", "estimate_support", "retrieval.estimate_support"),
    ("blindgi.retrieval", "run", "retrieval.run"),
    ("blindgi.evaluation", "align_and_score", "evaluation.align_and_score"),
    ("blindgi.arrayio", "write_array", "arrayio.write_array"),
    ("blindgi.arrayio", "read_array", "arrayio.read_array"),
    ("blindgi.arrayio", "write_pgm16", "arrayio.write_pgm16"),
    ("blindgi.arrayio", "write_buckets_csv", "arrayio.write_buckets_csv"),
    ("blindgi.arrayio", "read_buckets_csv", "arrayio.read_buckets_csv"),
    ("blindgi.arrayio", "write_flat_config", "arrayio.write_flat_config"),
    ("blindgi.arrayio", "read_flat_config", "arrayio.read_flat_config"),
)

FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int


def _count_patterns(args, kwargs, result):
    return {"patterns.count": len(result)}


def _count_iterations(args, kwargs, result):
    schedule = kwargs["schedule"] if "schedule" in kwargs else args[1]
    return {"retrieval.iterations": schedule.restarts * schedule.total_iterations}


def _count_bytes(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[0]
    total = os.path.getsize(path)
    if os.path.exists(path + ".scale"):  # write_pgm16's sidecar
        total += os.path.getsize(path + ".scale")
    return {"arrayio.bytes_written": total}


COUNTERS = {
    "patterns.pattern_batch": _count_patterns,
    "retrieval.run": _count_iterations,
    "arrayio.write_array": _count_bytes,
    "arrayio.write_pgm16": _count_bytes,
    "arrayio.write_buckets_csv": _count_bytes,
    "arrayio.write_flat_config": _count_bytes,
}


class Tracer:
    """In-memory span recorder.  Records only while ``recording`` is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.recording = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open_spans(self) -> list[tuple[int, str]]:
        # A worker thread started inside a span (a thread pool in correlate)
        # has an empty stack of its own; its spans belong to the thread that
        # opened the root span.
        return self._stack() or self._root_stack

    def inside(self, name: str) -> bool:
        return any(n == name for _, n in self._open_spans())

    @contextmanager
    def span(self, name: str):
        if not self.recording:
            yield
            return
        parents = self._open_spans()
        parent = parents[-1][0] if parents else None
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack = self._stack()
        if not stack and parent is None:
            self._root_stack = stack
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, parent, name, start, end, threading.get_ident()))

    def add(self, counts: dict) -> None:
        with self._lock:
            self.counts.update(counts)

    # -- installing wrappers ------------------------------------------------

    def _replace_everywhere(self, home, name: str, wrapper) -> None:
        original = getattr(home, name)
        modules = [home] + [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "blindgi" or key.startswith("blindgi."))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _layer_wrapper(self, fn, span_name: str):
        count = COUNTERS.get(span_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            with self.span(span_name):
                result = fn(*args, **kwargs)
            if count is not None:
                self.add(count(args, kwargs, result))
            return result

        return wrapper

    def _fft_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.recording and self.inside("retrieval.run"):
                self.add({"retrieval.fft_calls": 1})
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the layer functions and FFT entry points (blindgi must be imported)."""
        import importlib

        for module_name, fn_name, span_name in LAYER_FUNCTIONS:
            home = importlib.import_module(module_name)
            self._replace_everywhere(home, fn_name, self._layer_wrapper(getattr(home, fn_name), span_name))
        for module_name in FFT_MODULES:
            home = importlib.import_module(module_name)
            for fn_name in FFT_NAMES:
                if hasattr(home, fn_name):
                    self._replace_everywhere(home, fn_name, self._fft_wrapper(getattr(home, fn_name)))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- reporting ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name: union of span intervals not covered by children."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        pieces: dict[str, list[tuple[float, float]]] = {}
        for s in self.spans:
            covered = _union((max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.sid, ()))
            pieces.setdefault(s.name, []).extend(_subtract((s.start, s.end), covered))
        return {name: _length(_union(p)) for name, p in pieces.items()}

    def totals(self) -> dict[str, float]:
        """Wall time per span name: length of the union of its spans."""
        by_name: dict[str, list[tuple[float, float]]] = {}
        for s in self.spans:
            by_name.setdefault(s.name, []).append((s.start, s.end))
        return {name: _length(_union(iv)) for name, iv in by_name.items()}

    def as_records(self) -> list[dict]:
        t0 = min((s.start for s in self.spans), default=0.0)
        return [
            {"id": s.sid, "parent": s.parent, "name": s.name,
             "start_s": s.start - t0, "end_s": s.end - t0, "thread": s.thread}
            for s in sorted(self.spans, key=lambda s: s.start)
        ]


def _union(intervals) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for lo, hi in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def _subtract(interval, covered) -> list[tuple[float, float]]:
    lo, hi = interval
    out = []
    for c_lo, c_hi in covered:  # sorted and disjoint
        if c_lo > lo:
            out.append((lo, min(c_lo, hi)))
        lo = max(lo, c_hi)
    if hi > lo:
        out.append((lo, hi))
    return out


def _length(intervals) -> float:
    return sum(hi - lo for lo, hi in intervals)
