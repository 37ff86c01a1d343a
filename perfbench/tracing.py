"""In-memory span tracer that wraps the library's public functions from
outside, so the traced run needs no change to the library.

A span is (name, start, end, parent index, op id). Spans opened on a
worker thread with no open span of their own (the run_trials chunks) take
the innermost open span of the main thread as parent. A span's self time is
its duration minus the union of its children's intervals.
"""
from __future__ import annotations

import functools
import inspect
import os
import threading
import time
from collections import defaultdict

LIBRARY_MODULES = ("graphs", "privacy", "dynamics", "bounds", "sensitivity",
                   "config")
EIGENSOLVERS = ("eigh", "eigvalsh", "eig", "eigvals")
# spans that also record process CPU time and the peak resident memory they
# add, sampled from /proc/self/statm (tracemalloc would slow every Python
# allocation inside the span tenfold)
HEAVY = ("dynamics.run_trials",)
SAMPLE_S = 0.005
PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE


class PeakRss:
    """Samples resident memory on a thread until stopped; peak is the
    largest value seen, including the first and last."""

    def __init__(self):
        self.start = self.peak = rss_bytes()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while not self._stop.wait(SAMPLE_S):
            self.peak = max(self.peak, rss_bytes())

    def stop(self) -> float:
        """Peak minus the resident memory at start, in MiB."""
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, rss_bytes())
        return (self.peak - self.start) / 2**20


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, op, cpu, peak]
        self.counters = defaultdict(int)
        self.op_id = None
        self._local = threading.local()
        self._main = self._stack()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, name: str, fn, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main[-1] if self._main
                                          else None)
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.op_id, 0.0, 0.0])
        heavy = name in HEAVY
        if heavy:
            sampler = PeakRss()
            cpu0 = time.process_time()
        stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            rec = self.spans[idx]
            rec[1], rec[2] = t0, t1
            if heavy:
                rec[5] = time.process_time() - cpu0
                rec[6] = sampler.stop()

    def summary(self) -> dict:
        """Per span name: calls, total time, self time, CPU time, peak MiB."""
        children = defaultdict(list)
        for idx, rec in enumerate(self.spans):
            if rec[3] is not None:
                children[rec[3]].append(idx)
        out = defaultdict(lambda: dict(calls=0, total_s=0.0, self_s=0.0,
                                       cpu_s=0.0, peak_mb=0.0))
        for idx, (name, t0, t1, _, _, cpu, peak) in enumerate(self.spans):
            covered, end = 0.0, t0
            for c0, c1 in sorted((self.spans[c][1], self.spans[c][2])
                                 for c in children[idx]):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            s = out[name]
            s["calls"] += 1
            s["total_s"] += t1 - t0
            s["self_s"] += t1 - t0 - covered
            s["cpu_s"] += cpu
            s["peak_mb"] = max(s["peak_mb"], peak)
        return dict(out)


def _wrap(tracer: Tracer, owner, attr: str, name: str, before=None):
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            before(tracer, args, kwargs)
        return tracer.span(name, fn, args, kwargs)

    setattr(owner, attr, traced)


def _count_config_bytes(tracer, args, kwargs):
    path = args[0] if args else kwargs["path"]
    tracer.counters["config.load.bytes_in"] += os.path.getsize(path)


def install(tracer: Tracer) -> None:
    """Route every public library function, cli.main, the adjacency builder
    and numpy's eigensolvers through the tracer.

    Library modules call each other through module attributes, so replacing
    the attribute is enough. cli's cmd_* handlers stay unwrapped so that
    cli.main's self time is argument parsing, formatting and CSV writing.
    """
    import importlib

    import numpy as np

    for short in LIBRARY_MODULES:
        mod = importlib.import_module(f"dpformation.{short}")
        for attr, obj in list(vars(mod).items()):
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                before = _count_config_bytes if (short, attr) == (
                    "config", "load") else None
                _wrap(tracer, mod, attr, f"{short}.{attr}", before)
    cli = importlib.import_module("dpformation.cli")
    _wrap(tracer, cli, "main", "cli.main")
    graphs = importlib.import_module("dpformation.graphs")
    _wrap(tracer, graphs.WeightedGraph, "adjacency_matrix",
          "graphs.adjacency_matrix")
    for attr in EIGENSOLVERS:
        _wrap(tracer, np.linalg, attr, f"linalg.{attr}")
