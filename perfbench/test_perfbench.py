"""Tests of the benchmark's own logic: python3 -m pytest perfbench"""
import dataclasses
import json
import signal
import time
import warnings

import numpy as np

from parcornet import constrained_mle, em, selection
from parcornet.elastic_net import PenaltyConfig
from parcornet.em import EMConfig
from parcornet.errors import EstimationError
from parcornet.matrices import PrecisionMatrix
from parcornet.samplers import DistributionSpec

import env
import hostspeed
import run
import tracing
from checks import fit_violations
from inputs import Truth, ar_garch_panel, datasets
from workloads import GARCH, PANEL_NU, workloads

T3 = DistributionSpec(kind="t", nu=3.0)


def _arrays(datasets):
    return [d.values.tobytes() for d in datasets]


def test_datasets_are_deterministic_per_seed():
    truth = Truth("scale-free", 8, 7)
    a = datasets(truth, 50, T3, 2, seed=5)
    assert _arrays(a) == _arrays(datasets(truth, 50, T3, 2, seed=5))
    assert _arrays(a) != _arrays(datasets(truth, 50, T3, 2, seed=6))
    assert a[0].values.tobytes() != a[1].values.tobytes()


def test_price_panel_is_deterministic_per_seed():
    truth = Truth("scale-free", 4, 7)
    text = ar_garch_panel(truth, 300, GARCH, PANEL_NU, seed=3).to_csv_text()
    assert text == ar_garch_panel(truth, 300, GARCH, PANEL_NU, seed=3).to_csv_text()
    assert text != ar_garch_panel(truth, 300, GARCH, PANEL_NU, seed=4).to_csv_text()


def test_pipeline_build_writes_identical_files(tmp_path):
    wl = workloads()["pipeline-t-p10"]
    files = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        wl.build(11, tmp_path / sub)
        files.append({f.name: f.read_bytes() for f in (tmp_path / sub).iterdir()})
    assert files[0] == files[1]


def _small_fit():
    truth = Truth("scale-free", 6, 7)
    data = datasets(truth, 200, T3, 1, seed=1)[0]
    cfg = EMConfig(PenaltyConfig(0.5, 0.15), mode="t", nu=3.0)
    return data, em.estimate(data, cfg)


def test_fit_check_accepts_the_estimator_and_rejects_perturbed_psi():
    data, state = _small_fit()
    assert fit_violations(data, state) == []
    psi = np.array(state.psi.values)
    adj = state.edges.to_adjacency()
    j, k = np.argwhere(~adj & ~np.eye(6, dtype=bool))[0]
    off = psi.copy()
    off[j, k] = off[k, j] = 1e-9
    found = fit_violations(data, dataclasses.replace(state, psi=PrecisionMatrix(off)))
    assert any("off the selected pattern" in v for v in found)
    scaled = psi * (1.0 + 1e-4)
    found = fit_violations(data, dataclasses.replace(state, psi=PrecisionMatrix(scaled)))
    assert any("KKT gap" in v for v in found)


def test_useful_frac_counts_distinct_edge_sets_per_lambda():
    data, _ = _small_fit()
    grid = selection.build_grid(0.02, 40.0, 6)
    cfg = EMConfig(PenaltyConfig(0.5, grid.lo), mode="gaussian")
    distinct = {em.estimate(data, cfg.with_lam(lam)).edges.pairs for lam in grid.values}
    tracer = tracing.Tracer()
    with warnings.catch_warnings(), tracing.installed(tracer):
        warnings.simplefilter("ignore")
        selection.select(data, grid, cfg)
    got = tracer.layer_metrics(0.0)
    assert got["selection.lambdas"]["value"] == 6
    assert got["selection.useful_frac"]["value"] == len(distinct) / 6
    assert got["em.fits"]["value"] == 6
    assert got["neighborhood.calls"]["value"] == 6
    assert got["elastic_net.calls"]["value"] == 6 * 6


def test_cold_retries_count_warm_fits_that_raised(monkeypatch):
    data, _ = _small_fit()
    real_fit = constrained_mle.fit
    raised = []

    def flaky(scatter, edges, w_init=None, **kw):
        if w_init is not None and len(raised) < 2:
            raised.append(1)
            raise EstimationError("stalled warm start")
        return real_fit(scatter, edges, w_init=w_init, **kw)

    monkeypatch.setattr(constrained_mle, "fit", flaky)
    cfg = EMConfig(PenaltyConfig(0.5, 0.15), mode="t", nu=3.0, max_iter=6)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        state = em.estimate(data, cfg)
    got = tracer.layer_metrics(0.0)
    assert got["constrained_mle.cold_retries"]["value"] == 2
    assert got["constrained_mle.calls"]["value"] == state.iterations + 2


def test_self_time_subtracts_direct_children_only():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 7.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):          # 0 .. 10
        with tracer.span("mid"):        # 1 .. 7
            with tracer.span("inner"):  # 2 .. 3
                pass
    assert tracer.busy("outer") == 10.0
    assert tracer.self_time("outer") == 4.0
    assert tracer.self_time("mid") == 5.0
    assert [s[3] for s in tracer.spans] == [-1, 0, 1]


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads())



def test_ref_seconds_removes_kernel_time_and_scales_by_mean_kernel_speed():
    ref = hostspeed.REF_KERNEL_S
    sampler = hostspeed.Sampler()
    sampler.samples = [(1.0, 2 * ref), (1.5, 2 * ref), (1.8, 4 * ref), (5.0, ref)]
    assert sampler.between(1.0, 2.0) == [2 * ref, 2 * ref, 4 * ref]
    # mean speed over the unit: (1/2 + 1/2 + 1/4) / 3 of the reference speed
    assert np.isclose(sampler.ref_seconds(1.0, 2.0, 10.0), (10.0 - 8 * ref) * 1.25 / 3)
    # a unit with no samples uses the speed over the whole run
    assert np.isclose(sampler.ref_seconds(3.0, 4.0, 1.0), (1 / 2 + 1 / 2 + 1 / 4 + 1) / 4)


def test_sampler_times_the_kernel_while_running_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler()
    with sampler.running():
        t_end = time.perf_counter() + 0.35
        while time.perf_counter() < t_end:
            pass
    assert len(sampler.samples) >= 2
    assert all(s > 0 for _, s in sampler.samples)
    assert signal.getsignal(signal.SIGALRM) is before
