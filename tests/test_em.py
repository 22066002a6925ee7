import copy
import dataclasses
import pickle

import numpy as np
import pytest

from em_reference import cold_select, reference_estimate
from parcornet import constrained_mle
from parcornet.elastic_net import PenaltyConfig
from parcornet.em import (
    EMConfig,
    EMState,
    _constrained_fit,
    estimate,
    estimate_grid,
    expected_scales,
    weighted_mean,
    weighted_scatter,
)
from parcornet.errors import ConfigError, EstimationError
from parcornet.matrices import Dataset, EdgeSet, PrecisionMatrix, symmetrize
from parcornet.netgen import TopologySpec, generate_precision
from parcornet.samplers import DistributionSpec, sample, spawned_rng
from parcornet.selection import build_grid, select


def pen(lam, alpha=0.5):
    return PenaltyConfig(alpha, lam)


def criterion_04_draw():
    _, theta = generate_precision(TopologySpec("scale-free", 20, seed=7))
    return sample(theta, 500, DistributionSpec("t", nu=3.0), spawned_rng(4000, 0))


class TestEMConfig:
    def test_t_mode_needs_nu_above_two(self):
        with pytest.raises(ConfigError):
            EMConfig(pen(0.1), mode="t", nu=2.0)

    def test_gaussian_mode_ignores_nu(self):
        EMConfig(pen(0.1), mode="gaussian", nu=1.0)

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            EMConfig(pen(0.1), mode="student")

    def test_bad_rule_delta_cap(self):
        with pytest.raises(ConfigError):
            EMConfig(pen(0.1), rule="nand")
        with pytest.raises(ConfigError):
            EMConfig(pen(0.1), delta=0.0)
        with pytest.raises(ConfigError):
            EMConfig(pen(0.1), max_iter=0)

    def test_with_lam(self):
        cfg = EMConfig(pen(0.1, alpha=0.7))
        cfg2 = cfg.with_lam(0.4)
        assert cfg2.penalty.lam == 0.4
        assert cfg2.penalty.alpha == 0.7


class TestEStep:
    def test_formula_matches_manual(self):
        rng = np.random.default_rng(50)
        x = rng.standard_normal((9, 3))
        data = Dataset(x)
        mean = rng.standard_normal(3)
        a = rng.standard_normal((3, 3))
        psi = PrecisionMatrix(a @ a.T + 3 * np.eye(3))
        nu = 3.5
        tau = expected_scales(data, mean, psi, nu)
        for i in range(9):
            d = (x[i] - mean) @ psi.values @ (x[i] - mean)
            assert tau[i] == pytest.approx((nu + 3) / (nu + d), rel=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(51)
        data = Dataset(rng.standard_normal((50, 4)))
        psi = PrecisionMatrix(np.eye(4))
        tau = expected_scales(data, np.zeros(4), psi, 3.0)
        assert np.all(tau > 0.0)
        assert np.all(tau <= (3.0 + 4) / 3.0 + 1e-15)

    def test_row_at_center_gets_max_scale(self):
        x = np.vstack([np.zeros(3), np.ones((4, 3))])
        tau = expected_scales(Dataset(x), np.zeros(3), PrecisionMatrix(np.eye(3)), 3.0)
        assert tau[0] == pytest.approx(2.0)  # (3+3)/3


class TestMSteps:
    def test_weighted_mean_formula(self):
        x = np.array([[1.0, 0.0], [3.0, 2.0], [5.0, 4.0]])
        tau = np.array([1.0, 2.0, 1.0])
        want = (x * tau[:, None]).sum(axis=0) / 4.0
        assert np.allclose(weighted_mean(Dataset(x), tau), want)

    def test_weighted_scatter_formula(self):
        rng = np.random.default_rng(52)
        x = rng.standard_normal((7, 3))
        tau = rng.uniform(0.5, 2.0, size=7)
        mean = rng.standard_normal(3)
        want = sum(t * np.outer(r - mean, r - mean) for t, r in zip(tau, x)) / 7
        got = weighted_scatter(Dataset(x), tau, mean)
        assert np.abs(got - want).max() < 1e-12

    def test_weighted_scatter_is_symmetric_bit_for_bit(self):
        # the product averaged with its transpose by symmetrize's formula, so
        # that every stage-2 fit to the scatter takes symmetrize's copy path
        rng = np.random.default_rng(56)
        asymmetric = []
        for n, p in ((7, 3), (40, 12), (500, 60)):
            x = rng.standard_normal((n, p)) * rng.uniform(0.1, 10.0, size=p)
            tau = rng.uniform(0.2, 3.0, size=n)
            mean = weighted_mean(Dataset(x), tau)
            got = weighted_scatter(Dataset(x), tau, mean)
            assert got.tobytes() == got.T.tobytes()
            raw = ((x - mean) * tau[:, None]).T @ (x - mean) / n
            asymmetric.append(raw.tobytes() != raw.T.tobytes())
            assert got.tobytes() == symmetrize(raw).tobytes()
        assert any(asymmetric)  # the product alone is not symmetric

    def test_weighted_scatter_average_stays_finite_at_the_top_of_range(self):
        # each entry is a finite sum over n >= 2 rows divided by n, so at most
        # half the largest float: the average with the transpose cannot
        # overflow where the product itself did not
        big = np.finfo(float).max
        a = np.sqrt(big / 2) * (1 - 2.0**-40)
        x = np.array([[a, a, 1.0], [-a, -a * (1 - 2.0**-30), -1.0]])
        for tau in (np.ones(2), np.array([1.0, 0.999])):
            raw = (x * tau[:, None]).T @ x / 2
            assert np.isfinite(raw).all() and raw[0, 0] > 0.499 * big and raw[0, 1] > 0.499 * big
            got = weighted_scatter(Dataset(x), tau, np.zeros(3))
            assert np.isfinite(got).all()
            assert np.array_equal(np.diag(got), np.diag(raw))

    def test_unit_scales_recover_plain_moments(self):
        rng = np.random.default_rng(54)
        x = rng.standard_normal((15, 3))
        tau = np.ones(15)
        assert np.allclose(weighted_mean(Dataset(x), tau), x.mean(axis=0))
        xc = x - x.mean(axis=0)
        assert np.abs(weighted_scatter(Dataset(x), tau, x.mean(axis=0)) - xc.T @ xc / 15).max() < 1e-14


class TestGaussianMode:
    def test_single_pass_matches_manual_two_stage(self):
        rng = np.random.default_rng(55)
        x = rng.standard_normal((120, 5))
        data = Dataset(x)
        cfg = EMConfig(pen(0.15), mode="gaussian")
        state = estimate(data, cfg)
        assert state.iterations == 1
        assert state.converged
        assert np.all(state.tau == 1.0)
        # oracle: run the two stages directly on the plain scatter
        xc = x - x.mean(axis=0)
        scatter = xc.T @ xc / 120
        edges = cold_select(scatter, pen(0.15), "and")
        res = constrained_mle.fit(scatter, edges)
        assert edges == state.edges
        assert np.abs(res.psi.values - state.psi.values).max() < 1e-10

    def test_nu_does_not_matter(self):
        rng = np.random.default_rng(56)
        data = Dataset(rng.standard_normal((80, 4)))
        a = estimate(data, EMConfig(pen(0.2), mode="gaussian", nu=3.0))
        b = estimate(data, EMConfig(pen(0.2), mode="gaussian", nu=50.0))
        assert np.array_equal(a.psi.values, b.psi.values)


class TestColdRetry:
    @staticmethod
    def stage_inputs():
        x = np.random.default_rng(58).standard_normal((120, 5))
        xc = x - x.mean(axis=0)
        scatter = xc.T @ xc / 120
        return scatter, cold_select(scatter, pen(0.15), "and")

    def test_failed_warm_start_is_redone_cold(self, monkeypatch):
        scatter, edges = self.stage_inputs()
        real_fit = constrained_mle.fit
        warm_calls = []

        def warm_fails(scatter, edges, w_init=None):
            warm_calls.append(w_init is not None)
            if w_init is not None:
                raise EstimationError("warm start stalled")
            return real_fit(scatter, edges, w_init=w_init)

        monkeypatch.setattr(constrained_mle, "fit", warm_fails)
        res = _constrained_fit(scatter, edges, np.eye(5))
        assert warm_calls == [True, False]
        assert np.array_equal(res.psi.values, real_fit(scatter, edges).psi.values)

    def test_cold_failure_propagates(self, monkeypatch):
        scatter, edges = self.stage_inputs()
        cold_calls = []

        def always_fails(scatter, edges, w_init=None):
            cold_calls.append(w_init)
            raise EstimationError("cold fit failed")

        monkeypatch.setattr(constrained_mle, "fit", always_fails)
        with pytest.raises(EstimationError, match="cold fit failed"):
            _constrained_fit(scatter, edges, None)
        assert cold_calls == [None]

    def test_select_needs_the_retry(self, monkeypatch):
        # n = p + 2 t3 draws: many warm starts fail (116 here), and every
        # lambda still fits because each failed one is redone cold
        real_fit = constrained_mle.fit
        warm_raised = []

        def counting(scatter, edges, w_init=None):
            try:
                return real_fit(scatter, edges, w_init=w_init)
            except EstimationError:
                warm_raised.append(w_init is not None)
                raise

        monkeypatch.setattr(constrained_mle, "fit", counting)
        _, theta = generate_precision(TopologySpec("scale-free", 8, seed=11))
        data = sample(theta, 10, DistributionSpec("t", nu=3.0), np.random.default_rng(188))
        grid = build_grid(0.02, 2.0, 16)
        report = select(data, grid, EMConfig(pen(grid.lo), mode="t", nu=3.0))
        assert any(warm_raised)
        assert not any(r.failed for r in report.records)


class TestFailedFits:
    @pytest.mark.parametrize("mode", ["gaussian", "t"])
    def test_stage_two_failure_names_its_iteration(self, monkeypatch, mode):
        cause = EstimationError("stage 2 failed")

        def broken(scatter, edges, w_init=None):
            raise cause

        monkeypatch.setattr(constrained_mle, "fit", broken)
        data = Dataset(np.random.default_rng(57).standard_normal((60, 4)))
        out = estimate_grid(data, [0.1, 0.5], EMConfig(pen(0.1), mode=mode))
        for err in out:
            assert isinstance(err, EstimationError)
            assert str(err) == "iteration 1: stage 2 failed"
            assert err.__cause__ is cause


class TestSharedStates:
    def test_lambdas_with_one_history_share_a_read_only_state(self):
        data = criterion_04_draw()
        cfg = EMConfig(pen(0.02), mode="t", nu=3.0)
        # far above lambda_max both lambdas give the empty graph throughout
        states = estimate_grid(data, [50.0, 80.0], cfg)
        assert states[0] is states[1]
        state = states[0]
        for values in (state.mean, state.tau, state.psi.values):
            with pytest.raises(ValueError, match="read-only"):
                values[0] += 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.iterations = 1
        moved = dataclasses.replace(state, iterations=0)
        assert moved.iterations == 0 and states[1].iterations == state.iterations

    def test_state_survives_pickle_and_deepcopy(self):
        _, theta = generate_precision(TopologySpec("scale-free", 6, seed=6))
        data = sample(theta, 200, DistributionSpec("normal"), spawned_rng(2, 0))
        state = estimate(data, EMConfig(pen(0.05), mode="gaussian"))
        assert len(state.edges) > 0
        for copied in (pickle.loads(pickle.dumps(state)), copy.deepcopy(state)):
            assert copied.edges == state.edges and hash(copied.edges) == hash(state.edges)
            assert copied.edges.pairs == state.edges.pairs
            for name in ("mean", "tau"):
                assert np.array_equal(getattr(copied, name), getattr(state, name))
            assert np.array_equal(copied.psi.values, state.psi.values)
            assert (copied.iterations, copied.max_change, copied.converged) == (
                state.iterations, state.max_change, state.converged)

    def test_mean_and_tau_are_copies(self):
        mean, tau = np.zeros(3), np.ones(4)
        state = EMState(mean, PrecisionMatrix(np.eye(3)), tau, EdgeSet(3), 1, 0.0, True)
        mean[0] = tau[0] = 5.0
        assert state.mean[0] == 0.0 and state.tau[0] == 1.0


class TestTMode:
    def test_converges_on_t_data(self):
        edges, theta = generate_precision(TopologySpec("scale-free", 6, seed=2))
        rng = spawned_rng(7, 0)
        data = sample(theta, 500, DistributionSpec("t", nu=3.0), rng)
        state = estimate(data, EMConfig(pen(0.15), mode="t", nu=3.0))
        assert state.converged
        assert state.iterations <= 100
        assert state.max_change < 1e-4
        assert np.linalg.eigvalsh(state.psi.values).min() > 0.0

    def test_edges_selected_on_final_scatter(self):
        # 91 edges at lambda 0.02 on this draw; there, subtracting m m^T from
        # the scatter (m the mean of the sqrt(tau)-scaled centered rows)
        # gives another edge set, so the check tells the two apart
        data = criterion_04_draw()
        cfg = EMConfig(pen(0.02), mode="t", nu=3.0)
        state = estimate(data, cfg)
        assert state.converged
        scatter = weighted_scatter(data, state.tau, state.mean)
        assert state.edges == cold_select(scatter, cfg.penalty, cfg.rule)

    def test_iteration_cap_flags_unconverged(self):
        edges, theta = generate_precision(TopologySpec("scale-free", 5, seed=3))
        rng = spawned_rng(8, 0)
        data = sample(theta, 300, DistributionSpec("t", nu=3.0), rng)
        state = estimate(data, EMConfig(pen(0.15), mode="t", nu=3.0, max_iter=2))
        assert not state.converged
        assert state.iterations == 2

    def test_fewer_rows_than_columns(self):
        # the 8 x 12 scatter is singular, so the first psi is a ridged inverse
        data = Dataset(np.random.default_rng(0).standard_normal((8, 12)))
        state = estimate(data, EMConfig(pen(0.3), mode="t", nu=3.0))
        assert state.converged
        assert np.linalg.eigvalsh(state.psi.values).min() > 0.0

    def test_large_nu_approaches_gaussian_mode(self):
        rng = np.random.default_rng(57)
        data = Dataset(rng.standard_normal((300, 4)))
        g = estimate(data, EMConfig(pen(0.2), mode="gaussian"))
        t = estimate(data, EMConfig(pen(0.2), mode="t", nu=1e7))
        assert t.edges == g.edges
        # psi_t estimates the scatter inverse = nu/(nu-2) * precision
        assert np.abs(t.psi.values - g.psi.values).max() < 1e-3

    def test_heavy_rows_downweighted(self):
        edges, theta = generate_precision(TopologySpec("band", 4, seed=4))
        rng = spawned_rng(9, 0)
        data = sample(theta, 400, DistributionSpec("t", nu=3.0), rng)
        state = estimate(data, EMConfig(pen(0.2), mode="t", nu=3.0))
        d = np.einsum("ij,jk,ik->i", data.values - state.mean, state.psi.values,
                      data.values - state.mean)
        # scales are monotone decreasing in the Mahalanobis distance
        order = np.argsort(d)
        assert np.all(np.diff(state.tau[order]) <= 1e-12)


class TestRescaledScaleStep:
    """estimate's t mode against the plain n-denominator EM in tests/em_reference.py.

    Tolerances were fixed before the rescaled step was written: psi within
    1e-7 * max|psi| at delta 1e-9, sum(tau) = n within 1e-12 relative, and
    at most 20 iterations per lambda on the criterion-04 shape.
    """

    @pytest.mark.parametrize("index", [6, 12])  # 19 edges, and the empty graph
    def test_same_fixed_point_as_plain_em(self, index):
        data = criterion_04_draw()
        lam = build_grid(0.02, 2.0, 16).values[index]
        cfg = EMConfig(pen(lam), mode="t", nu=3.0, delta=1e-9, max_iter=1000)
        got = estimate(data, cfg)
        want = reference_estimate(data, cfg)
        assert got.converged and want.converged
        assert got.edges == want.edges
        scale = np.abs(want.psi.values).max()
        assert np.abs(got.psi.values - want.psi.values).max() <= 1e-7 * scale
        assert got.iterations < want.iterations

    def test_scales_sum_to_n(self):
        data = criterion_04_draw()
        state = estimate(data, EMConfig(pen(0.1), mode="t", nu=3.0))
        assert abs(state.tau.sum() - data.n) <= 1e-12 * data.n
        # the stored scales are the ones that built the final mean
        assert np.array_equal(state.mean, weighted_mean(data, state.tau))

    def test_few_iterations_on_criterion_04_shape(self):
        data = criterion_04_draw()
        state = estimate(data, EMConfig(pen(0.2), mode="t", nu=3.0))
        assert state.converged
        assert state.iterations <= 20
