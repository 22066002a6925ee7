"""Spans and counters at the layer boundaries of parcornet.

Each layer is traced by replacing the name its caller looks up (for
example parcornet.em.select_edges) with a wrapper that records a span
and updates counters, so nothing under src/ changes. Spans are kept in
memory as [name, start, end, parent] and written out at the end. A
layer's self time is its spans' durations minus the durations of their
direct child spans.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict
from unittest import mock

import numpy as np

from parcornet import analytics, constrained_mle, em, neighborhood, pipeline, selection
from parcornet.errors import EstimationError

# Per-layer metrics in report order, with their units.
PER_LAYER_UNITS = {
    "elastic_net.calls": "count",
    "elastic_net.sweeps": "count",
    "elastic_net.unconverged": "count",
    "elastic_net.busy_s": "s",
    "neighborhood.calls": "count",
    "neighborhood.self_s": "s",
    "constrained_mle.calls": "count",
    "constrained_mle.sweeps": "count",
    "constrained_mle.cold_retries": "count",
    "constrained_mle.busy_s": "s",
    "constrained_mle.kkt_max": "ratio",
    "em.fits": "count",
    "em.iterations": "count",
    "em.unconverged": "count",
    "em.self_s": "s",
    "selection.lambdas": "count",
    "selection.failed_lambdas": "count",
    "selection.useful_frac": "ratio",
    "selection.bic_s": "s",
    "pipeline.garch_fits": "count",
    "pipeline.garch_busy_s": "s",
    "pipeline.windows": "count",
    "pipeline.failed_windows": "count",
    "analytics.busy_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory spans plus the counters read at the same boundaries."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self.kkt_max = 0.0
        self._stack = []
        self._edge_sets = []  # one list per open select call

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def busy(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def self_time(self, name: str) -> float:
        covered = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return sum(end - start - covered[i]
                   for i, (n, start, end, _) in enumerate(self.spans) if n == name)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- counter hooks, one group per layer

    def _solve_gram(self, args, kwargs, out):
        self.counts["elastic_net.calls"] += 1
        self.counts["elastic_net.sweeps"] += out.sweeps
        self.counts["elastic_net.unconverged"] += not out.converged

    def _select_edges(self, args, kwargs, out):
        self.counts["neighborhood.calls"] += 1

    def _mle_done(self, args, kwargs, out):
        self.counts["constrained_mle.calls"] += 1
        self.counts["constrained_mle.sweeps"] += out.sweeps
        scale = float(np.abs(np.asarray(args[0] if args else kwargs["scatter"])).max())
        self.kkt_max = max(self.kkt_max, out.kkt_residual / scale)

    def _mle_failed(self, args, kwargs, exc):
        self.counts["constrained_mle.calls"] += 1
        w_init = kwargs.get("w_init", args[2] if len(args) > 2 else None)
        # em retries a warm-started fit that raised once more from cold
        if w_init is not None and isinstance(exc, EstimationError):
            self.counts["constrained_mle.cold_retries"] += 1

    def _estimate_done(self, args, kwargs, out):
        self.counts["em.fits"] += 1
        self.counts["em.iterations"] += out.iterations
        self.counts["em.unconverged"] += not out.converged
        self.counts["selection.lambdas"] += 1
        if self._edge_sets:
            self._edge_sets[-1].append(out.edges.pairs)

    def _estimate_failed(self, args, kwargs, exc):
        self.counts["selection.lambdas"] += 1
        self.counts["selection.failed_lambdas"] += isinstance(exc, EstimationError)

    def _select_start(self):
        self._edge_sets.append([])

    def _select_end(self, *_):
        self.counts["selection.distinct_fits"] += len(set(self._edge_sets.pop()))

    def _garch(self, args, kwargs, out):
        self.counts["pipeline.garch_fits"] += 1

    def _rolling(self, args, kwargs, out):
        self.counts["pipeline.windows"] += len(out)
        self.counts["pipeline.failed_windows"] += sum(1 for w in out if w.error)

    def layer_metrics(self, overhead_s: float) -> dict:
        """Every per-layer metric, given the tracing overhead of the traced pass."""
        c = self.counts
        lambdas = c["selection.lambdas"]
        values = {
            "elastic_net.calls": c["elastic_net.calls"],
            "elastic_net.sweeps": c["elastic_net.sweeps"],
            "elastic_net.unconverged": c["elastic_net.unconverged"],
            "elastic_net.busy_s": self.busy("elastic_net.solve_gram"),
            "neighborhood.calls": c["neighborhood.calls"],
            "neighborhood.self_s": self.self_time("neighborhood.select_edges"),
            "constrained_mle.calls": c["constrained_mle.calls"],
            "constrained_mle.sweeps": c["constrained_mle.sweeps"],
            "constrained_mle.cold_retries": c["constrained_mle.cold_retries"],
            "constrained_mle.busy_s": self.busy("constrained_mle.fit"),
            "constrained_mle.kkt_max": self.kkt_max,
            "em.fits": c["em.fits"],
            "em.iterations": c["em.iterations"],
            "em.unconverged": c["em.unconverged"],
            "em.self_s": self.self_time("em.estimate"),
            "selection.lambdas": lambdas,
            "selection.failed_lambdas": c["selection.failed_lambdas"],
            "selection.useful_frac": c["selection.distinct_fits"] / lambdas if lambdas else 0.0,
            "selection.bic_s": self.busy("selection.bic"),
            "pipeline.garch_fits": c["pipeline.garch_fits"],
            "pipeline.garch_busy_s": self.busy("pipeline.fit_ar_garch"),
            "pipeline.windows": c["pipeline.windows"],
            "pipeline.failed_windows": c["pipeline.failed_windows"],
            "analytics.busy_s": self.busy("analytics.measures"),
            "cli.self_s": self.self_time("cli.main"),
            "trace.overhead_s": overhead_s,
        }
        return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}


def _wrap(tracer: Tracer, name: str, fn, done=None, failed=None, start=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if start:
            start()
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            tracer.close(idx)
            if failed:
                failed(args, kwargs, exc)
            raise
        tracer.close(idx)
        if done:
            done(args, kwargs, out)
        return out
    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace every layer boundary for the duration of the block."""
    t = tracer
    patches = [
        (neighborhood, "solve_gram", _wrap(t, "elastic_net.solve_gram", neighborhood.solve_gram,
                                           t._solve_gram)),
        (em, "select_edges", _wrap(t, "neighborhood.select_edges", em.select_edges,
                                   t._select_edges)),
        (constrained_mle, "fit", _wrap(t, "constrained_mle.fit", constrained_mle.fit,
                                       t._mle_done, t._mle_failed)),
        (selection, "estimate", _wrap(t, "em.estimate", selection.estimate,
                                      t._estimate_done, t._estimate_failed)),
        (selection, "bic", _wrap(t, "selection.bic", selection.bic)),
        (selection, "select", _wrap(t, "selection.select", selection.select,
                                    t._select_end, t._select_end, t._select_start)),
        (pipeline, "fit_ar_garch", _wrap(t, "pipeline.fit_ar_garch", pipeline.fit_ar_garch,
                                         t._garch)),
        (pipeline, "rolling_estimate", _wrap(t, "pipeline.rolling_estimate",
                                             pipeline.rolling_estimate, t._rolling)),
        (analytics, "measures", _wrap(t, "analytics.measures", analytics.measures)),
    ]
    with contextlib.ExitStack() as stack:
        for module, attr, wrapper in patches:
            stack.enter_context(mock.patch.object(module, attr, wrapper))
        yield tracer


@contextlib.contextmanager
def captured_selects(sink: list):
    """Append (data, report) for every selection.select call in the block."""
    original = selection.select

    @functools.wraps(original)
    def capture(data, grid, config):
        report = original(data, grid, config)
        sink.append((data, report))
        return report

    with mock.patch.object(selection, "select", capture):
        yield sink
