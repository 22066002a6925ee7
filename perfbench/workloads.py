"""The benchmark workloads.

Each workload builds its inputs from the workload seed, runs one unit of
work per call (one BIC-selected fit, or one CLI command), and checks
every output outside the timed region. Units are numbered 0..count-1;
the timed loop cycles through them, so the first pass over the units is
always complete and the accuracy figures come from a fixed set of fits.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from parcornet import cli, selection
from parcornet.elastic_net import PenaltyConfig
from parcornet.em import EMConfig
from parcornet.errors import SelectionError
from parcornet.matrices import precision_to_partial_correlation
from parcornet.metrics import confusion, f1_score, frobenius_distance
from parcornet.pipeline import window_count
from parcornet.samplers import DistributionSpec

from checks import fit_violations
from inputs import Truth, ar_garch_panel, datasets, write_text
from tracing import captured_selects

TOPO_SEED = 7  # the generating graph of acceptance criteria 04 and 05
T_NU = 3.0
# Criterion-10 AR(1)-GARCH(1,1) parameters, in percent-return units.
GARCH = {"c": 0.0, "phi": 0.1, "omega": 0.05, "a": 0.1, "b": 0.85}
# t5 rather than t3 shocks: a finite fourth moment keeps the Gaussian
# quasi-likelihood GARCH fit inside its residual-variance acceptance band.
PANEL_NU = 5.0
# Two trading years per window: at n=504 the CD work per t-mode fit varies
# half as much between draws as at the default n=252.
WINDOW = 504
# One command runs on one panel of PANEL_WINDOWS windows, so a unit takes
# about 10 s and the timed loop can stop close to --seconds. A pass covers
# PANELS independent panels: 8 windows average out the draws' CD work.
PANEL_WINDOWS = 2
PANELS = 4


@dataclass
class Unit:
    """One timed unit of work and what it produced."""

    k: int
    wall: float
    fits: int
    failed: int
    payload: dict = field(default_factory=dict)

    @property
    def per_fit(self) -> float:
        return self.wall / max(self.fits, 1)


@dataclass
class Outcome:
    f1: list
    frobenius: list
    violations: list
    digest: str


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _fit_line(lam: float, weighted_edges) -> str:
    """Chosen lambda and every (j, k, partial correlation), at full precision."""
    return f"{lam!r} " + " ".join(f"{j}-{k}:{w!r}" for j, k, w in sorted(weighted_edges))


def _report_line(report) -> str:
    pc = precision_to_partial_correlation(report.state.psi).values
    return _fit_line(report.chosen_lambda,
                     ((j, k, float(pc[j, k])) for j, k in report.state.edges.pairs))


def _accuracy(pc, truth: Truth) -> tuple:
    return f1_score(confusion(pc.edge_set(), truth.edges)), frobenius_distance(pc, truth.pc)


def _check_reports(captured: list, where: str) -> list:
    out = []
    for i, (data, report) in enumerate(captured):
        out += [f"{where} fit {i}: {v}" for v in fit_violations(data, report.state)]
    return out


def _run_cli(argv: list, tracer=None) -> tuple:
    """cli.main(argv) with its stdout swallowed; returns (exit code, wall seconds)."""
    span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        with span:
            rc = cli.main(argv)
        wall = time.perf_counter() - t0
    return rc, wall


class Workload:
    name = ""
    why = ""
    count = 1

    def build(self, seed: int, workdir: Path):
        raise NotImplementedError

    def run(self, inputs, k: int, tracer=None) -> Unit:
        raise NotImplementedError

    def check(self, inputs, units: list) -> Outcome:
        raise NotImplementedError


class SelectGaussWorkload(Workload):
    """Library select() in gaussian mode on the criterion-04 grid, one dataset per unit."""

    name = "select-gauss-p60"
    why = ("CD-heavy at width: gaussian mode on normal draws runs one EM pass per lambda, so EM "
           "is idle and elastic-net CD dominates")
    count = 6

    def build(self, seed, workdir):
        truth = Truth("scale-free", 60, TOPO_SEED)
        grid = selection.build_grid(0.02, 2.0, 16)
        config = EMConfig(PenaltyConfig(0.5, grid.lo), mode="gaussian")
        # normal draws: on t3 draws gaussian-mode CD at p=60 takes 2 s to over 100 s per fit
        return {"truth": truth, "grid": grid, "config": config,
                "data": datasets(truth, 500, DistributionSpec(kind="normal"), self.count, seed)}

    def run(self, inputs, k, tracer=None):
        t0 = time.perf_counter()
        try:
            report = selection.select(inputs["data"][k], inputs["grid"], inputs["config"])
        except SelectionError:
            report = None
        wall = time.perf_counter() - t0
        return Unit(k, wall, 1, int(report is None), {"report": report})

    def check(self, inputs, units):
        first = {}
        violations = []
        for u in units:
            report = u.payload["report"]
            if report is None:
                continue
            line = _report_line(report)
            if u.k not in first:
                first[u.k] = (report, line)
                violations += _check_reports([(inputs["data"][u.k], report)], f"dataset {u.k}")
            elif line != first[u.k][1]:
                violations.append(f"dataset {u.k}: repeated fit chose a different model")
        scores = [_accuracy(precision_to_partial_correlation(r.state.psi), inputs["truth"])
                  for r, _ in (first[k] for k in sorted(first))]
        return Outcome([s[0] for s in scores], [s[1] for s in scores], violations,
                       _digest(first[k][1] for k in sorted(first)))


class PipelineWorkload(Workload):
    """parcornet pipeline --mode t on synthetic AR-GARCH price panels, one panel per unit."""

    name = "pipeline-t-p10"
    why = ("empirical path: GARCH prewhitening, EM-heavy t-mode window fits and file writing, "
           "on price panels with a known graph")
    count = PANELS

    def build(self, seed, workdir):
        truth = Truth("scale-free", 10, TOPO_SEED)
        prices = []
        for k in range(self.count):
            # residuals lose one row to the AR(1) lag; windows do not overlap
            panel = ar_garch_panel(truth, PANEL_WINDOWS * WINDOW + 1, GARCH, PANEL_NU, seed,
                                   part=k)
            prices.append(workdir / f"prices-{k}.csv")
            write_text(prices[-1], panel.to_csv_text())
        return {"truth": truth, "prices": prices,
                "out": [workdir / f"pipeline-{k}" for k in range(self.count)],
                "windows": window_count(PANEL_WINDOWS * WINDOW, WINDOW, WINDOW)}

    def run(self, inputs, k, tracer=None):
        captured = []
        out = inputs["out"][k]
        argv = ["pipeline", str(inputs["prices"][k]), "--mode", "t", "--nu", str(T_NU),
                "--window", str(WINDOW), "--step", str(WINDOW), "--out", str(out)]
        with captured_selects(captured):
            rc, wall = _run_cli(argv, tracer)
        payload = {"rc": rc, "captured": captured, "summary": None, "networks": []}
        if rc == 0:
            payload["summary"] = json.loads((out / "summary.json").read_text())
            payload["networks"] = [json.loads(f.read_text())
                                   for f in sorted((out / "windows").glob("window_*.json"))]
            fits = payload["summary"]["windows"]
            failed = payload["summary"]["failed_windows"]
        else:
            fits = failed = inputs["windows"]
        return Unit(k, wall, fits, failed, payload)

    def check(self, inputs, units):
        violations = []
        first = {}
        f1, fro = [], []
        for i, u in enumerate(units):
            pl = u.payload
            if pl["rc"] != 0:
                violations.append(f"run {i}: pipeline exited with code {pl['rc']}")
                continue
            want = inputs["windows"]
            if pl["summary"]["windows"] != want or len(pl["networks"]) != want:
                violations.append(f"run {i}: expected {want} windows")
            violations += _check_reports(pl["captured"], f"run {i}")
            digest = _digest(_fit_line(n["lambda"], ((e["i"] - 1, e["j"] - 1, e["weight"])
                                                     for e in n["edges"]))
                             for n in pl["networks"] if "edges" in n)
            if u.k in first:
                if digest != first[u.k]:
                    violations.append(f"panel {u.k}: repeated pipeline run wrote different "
                                      "networks")
                continue
            first[u.k] = digest
            for net in pl["networks"]:
                if "edges" in net:
                    pc, _ = cli.network_from_json_dict(net)
                    a, b = _accuracy(pc, inputs["truth"])
                    f1.append(a)
                    fro.append(b)
        return Outcome(f1, fro, violations, _digest(first[k] for k in sorted(first)))


def workloads() -> dict:
    return {w.name: w for w in (SelectGaussWorkload(), PipelineWorkload())}
