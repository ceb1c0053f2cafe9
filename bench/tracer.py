"""Per-layer spans and counters, recorded from outside the program.

``Tracer.install`` rebinds the public functions named in ``TARGETS`` in every
loaded ``clusterpanel`` module that holds them, and ``uninstall`` puts the
originals back.  Each call becomes a span (name, start, end, parent, thread);
each thread keeps its own span stack, because the bootstrap and simulation
pools call ``build_design``, ``ols_fit`` and ``fixed_effect_dummies`` on worker
threads.  A span's self time is its duration minus that of its child spans on
the same thread; private helpers (``_replicate``, ``_lstsq_fit``,
``_coverage_rep``) fall into their public caller's self time.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _design(t, result):
    t.add("panel.design_mb", 8.0 * result.n * result.p / 1e6)
    t.add("panel.rows_dropped", len(result.dropped_rows))


def _ols(t, result):
    t.add("regression.ols_fit.gflop", 2.0 * result.n * result.p ** 2 / 1e9)


def _correlations(t, result):
    t.add("residcorr.pairs", sum(s.pair_count for s in result))
    t.add("residcorr.pairs_skipped", sum(s.skipped_count for s in result))


def _bootstrap(t, result):
    t.add("bootstrap.replicates", result.B)
    t.add("bootstrap.failed_refits", result.failed_refits)
    t.add("bootstrap.nan_draws", int(np.isnan(result.draws).sum()))
    t.add("bootstrap.draw_entries", result.draws.size)


def _coverage(t, result):
    t.add("simstudy.failed_reps", max(row.failed for row in result.rows))


# (module, public function, counter hook on the return value)
TARGETS = (
    ("panel", "load_csv", None),
    ("panel", "build_design", _design),
    ("panel", "fixed_effect_dummies", None),
    ("panel", "assign_clusters", None),
    ("regression", "ols_fit", _ols),
    ("regression", "clustered_cov", None),
    ("regression", "confidence_intervals", None),
    ("residcorr", "correlation_table", _correlations),
    ("modelselect", "cv_loss", None),
    ("modelselect", "ic_scan", None),
    ("modelselect", "fit_rho", None),
    ("bootstrap", "block_bootstrap", _bootstrap),
    ("bootstrap", "project_scenarios", None),
    ("simstudy", "coverage_study", _coverage),
    ("simstudy", "generate_panel", None),
)
# every public function of these modules is traced under the module's name
WHOLE_MODULES = ("reports",)
# spans whose individual durations are kept for percentiles
LATENCY_SPANS = ("simstudy.generate_panel",)


class Tracer:
    """Span and counter recorder; one per traced pass."""

    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self.main_thread = threading.get_ident()
        # (name, span id, parent span id, thread id, start, end, self time)
        self.spans: list[tuple[str, int, int | None, int, float, float, float]] = []
        self.counters: dict[str, float] = defaultdict(float)

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        frame = {"id": next(self._ids), "children": 0.0}
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent["children"] += end - start
            record = (name, frame["id"], parent["id"] if parent else None,
                      threading.get_ident(), start, end, end - start - frame["children"])
            with self._lock:
                self.spans.append(record)

    def _wrap(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(tracer, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "clusterpanel" and not mod_name.startswith("clusterpanel."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def install(self) -> None:
        for mod, func, hook in TARGETS:
            original = getattr(sys.modules[f"clusterpanel.{mod}"], func)
            self._rebind(original, self._wrap(f"{mod}.{func}", original, hook))
        for mod in WHOLE_MODULES:
            module = sys.modules[f"clusterpanel.{mod}"]
            for attr, value in list(vars(module).items()):
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    self._rebind(value, self._wrap(mod, value, None))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def summary(self) -> dict[str, float]:
        """Per-name calls and self time, latency percentiles and counters."""
        out: dict[str, float] = defaultdict(float)
        latencies = defaultdict(list)
        worker_self = 0.0
        main_self = 0.0
        for name, _span, _parent, thread, start, end, self_s in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            if name in LATENCY_SPANS:
                latencies[name].append((end - start) * 1e3)
            if thread == self.main_thread:
                main_self += self_s
            else:
                worker_self += self_s
        for name, values in latencies.items():
            out[f"{name}.p50_ms"] = float(np.percentile(values, 50))
            out[f"{name}.p99_ms"] = float(np.percentile(values, 99))
        out.update(self.counters)
        out["trace.main_self_s"] = main_self
        out["trace.worker_self_s"] = worker_self
        return dict(out)
