import numpy as np
import pytest
from scipy import stats

from em_reference import reference_estimate
from parcornet import constrained_mle
from parcornet.elastic_net import PenaltyConfig
from parcornet.em import EMConfig, estimate
from parcornet.errors import ConfigError, DataError, EstimationError, SelectionError
from parcornet.matrices import Dataset, PrecisionMatrix
from parcornet.netgen import TopologySpec, generate_precision
from parcornet.pipeline import simulate_ar_garch
from parcornet.samplers import DistributionSpec, sample, spawned_rng
from parcornet.selection import (
    LambdaGrid,
    LambdaRecord,
    bic,
    build_grid,
    count_parameters,
    gaussian_log_likelihood,
    select,
    t_log_likelihood,
)


class TestBuildGrid:
    def test_endpoints_exact(self):
        g = build_grid(np.exp(-6), 2.0, 100)
        assert g.values[0] == np.exp(-6)
        assert g.values[-1] == 2.0
        assert g.count == 100

    def test_constant_ratio(self):
        g = build_grid(0.001, 1.5, 40)
        r = np.asarray(g.values[1:]) / np.asarray(g.values[:-1])
        assert np.abs(r - r[0]).max() < 1e-12 * r[0]

    def test_single_value(self):
        g = build_grid(0.5, 0.5, 1)
        assert g.values == (0.5,)

    def test_validation(self):
        with pytest.raises(ConfigError):
            build_grid(0.0, 1.0, 5)
        with pytest.raises(ConfigError):
            build_grid(1.0, 0.5, 5)
        with pytest.raises(ConfigError):
            build_grid(0.5, 1.0, 1)
        with pytest.raises(ConfigError):
            LambdaGrid((0.2, 0.1))


class TestLikelihoodOracles:
    def test_gaussian_matches_scipy(self):
        rng = np.random.default_rng(60)
        x = rng.standard_normal((30, 4))
        mean = rng.standard_normal(4)
        a = rng.standard_normal((4, 4))
        psi = PrecisionMatrix(a @ a.T + 4 * np.eye(4))
        want = stats.multivariate_normal.logpdf(x, mean, np.linalg.inv(psi.values)).sum()
        got = gaussian_log_likelihood(Dataset(x), mean, psi)
        assert got == pytest.approx(want, rel=1e-10)

    def test_t_matches_scipy(self):
        rng = np.random.default_rng(61)
        x = rng.standard_normal((25, 3))
        mean = rng.standard_normal(3)
        a = rng.standard_normal((3, 3))
        psi = PrecisionMatrix(a @ a.T + 3 * np.eye(3))
        nu = 4.5
        want = stats.multivariate_t.logpdf(x, mean, np.linalg.inv(psi.values), df=nu).sum()
        got = t_log_likelihood(Dataset(x), mean, psi, nu)
        assert got == pytest.approx(want, rel=1e-10)


class TestBIC:
    def test_formula(self):
        rng = np.random.default_rng(62)
        data = Dataset(rng.standard_normal((100, 4)))
        cfg = EMConfig(PenaltyConfig(0.5, 0.3), mode="gaussian")
        state = estimate(data, cfg)
        ll = gaussian_log_likelihood(data, state.mean, state.psi)
        k = len(state.edges) + 4
        assert bic(state, data, cfg) == pytest.approx(-2 * ll + np.log(100) * k, rel=1e-12)
        assert count_parameters(state) == k

    def test_t_mode_uses_t_likelihood(self):
        edges, theta = generate_precision(TopologySpec("band", 4, seed=5))
        data = sample(theta, 200, DistributionSpec("t", nu=3.0), spawned_rng(1, 0))
        cfg = EMConfig(PenaltyConfig(0.5, 0.3), mode="t", nu=3.0)
        state = estimate(data, cfg)
        ll = t_log_likelihood(data, state.mean, state.psi, 3.0)
        want = -2 * ll + np.log(200) * count_parameters(state)
        assert bic(state, data, cfg) == pytest.approx(want, rel=1e-12)


class TestSelect:
    def test_picks_minimum_bic(self):
        edges, theta = generate_precision(TopologySpec("scale-free", 6, seed=6))
        data = sample(theta, 400, DistributionSpec("normal"), spawned_rng(2, 0))
        grid = build_grid(0.02, 1.0, 8)
        cfg = EMConfig(PenaltyConfig(0.5, grid.lo), mode="gaussian")
        report = select(data, grid, cfg)
        finite = [r.bic for r in report.records if not r.failed]
        assert report.bic_value == min(finite)
        assert len(report.records) == 8
        assert report.chosen_lambda == grid.values[report.chosen_index]

    def test_ties_go_to_larger_lambda(self):
        rng = np.random.default_rng(63)
        data = Dataset(rng.standard_normal((100, 4)))
        # both grid points far above lambda_max give the identical empty model
        grid = build_grid(50.0, 80.0, 3)
        cfg = EMConfig(PenaltyConfig(0.5, grid.lo), mode="gaussian")
        report = select(data, grid, cfg)
        bics = [r.bic for r in report.records]
        assert max(bics) - min(bics) < 1e-9
        assert report.chosen_index == 2
        assert report.chosen_lambda == 80.0

    def test_failed_lambdas_excluded(self, monkeypatch):
        rng = np.random.default_rng(64)
        data = Dataset(rng.standard_normal((80, 3)))
        grid = build_grid(0.1, 1.0, 3)
        cfg = EMConfig(PenaltyConfig(0.5, 0.1), mode="gaussian")
        # fail the constrained fit of the smallest lambda's edge set only
        dense = estimate(data, cfg).edges
        assert estimate(data, cfg.with_lam(grid.hi)).edges != dense
        real = constrained_mle.fit

        def flaky(scatter, edges, w_init=None):
            if edges == dense:
                raise EstimationError("forced failure")
            return real(scatter, edges, w_init=w_init)

        monkeypatch.setattr(constrained_mle, "fit", flaky)
        report = select(data, grid, cfg)
        assert report.records[0].failed
        assert "forced failure" in report.records[0].error
        assert not np.isfinite(report.records[0].bic)
        assert report.chosen_index >= 1

    def test_all_failed_raises_with_records(self, monkeypatch):
        def broken(scatter, edges, w_init=None):
            raise EstimationError("nope")

        monkeypatch.setattr(constrained_mle, "fit", broken)
        rng = np.random.default_rng(65)
        data = Dataset(rng.standard_normal((40, 3)))
        grid = build_grid(0.1, 1.0, 4)
        cfg = EMConfig(PenaltyConfig(0.5, 0.1), mode="gaussian")
        with pytest.raises(SelectionError) as err:
            select(data, grid, cfg)
        assert len(err.value.records) == 4

    def test_report_serialization(self):
        rng = np.random.default_rng(66)
        data = Dataset(rng.standard_normal((60, 3)))
        grid = build_grid(0.1, 1.0, 4)
        cfg = EMConfig(PenaltyConfig(0.5, 0.1), mode="gaussian")
        report = select(data, grid, cfg)
        d = report.to_json_dict()
        assert d["chosen_lambda"] == report.chosen_lambda
        assert len(d["records"]) == 4

    def test_records_em_iterations(self):
        edges, theta = generate_precision(TopologySpec("band", 4, seed=5))
        data = sample(theta, 200, DistributionSpec("t", nu=3.0), spawned_rng(3, 0))
        grid = build_grid(0.05, 1.0, 4)
        cfg = EMConfig(PenaltyConfig(0.5, grid.lo), mode="t", nu=3.0)
        report = select(data, grid, cfg)
        states = [estimate(data, cfg.with_lam(lam)) for lam in grid.values]
        assert [r.iterations for r in report.records] == [s.iterations for s in states]
        assert all(s.iterations > 1 for s in states)
        table = report.to_json_dict()["records"]
        assert [r["em_iterations"] for r in table] == [s.iterations for s in states]


class TestGridEquivalence:
    """select fits the whole grid in one pass, sharing states between
    lambdas and warm-starting stage 1; each lambda must still equal an
    independent estimate call at that lambda, bit for bit."""

    @staticmethod
    def criterion_04_draw():
        _, theta = generate_precision(TopologySpec("scale-free", 20, seed=7))
        return sample(theta, 500, DistributionSpec("t", nu=3.0), spawned_rng(4000, 0))

    @staticmethod
    def garch_window():
        # 504 rows of criterion-10 AR(1)-GARCH(1,1) series mixed by a graph
        _, theta = generate_precision(TopologySpec("scale-free", 10, seed=7))
        z = np.column_stack([simulate_ar_garch(504, 0.0, 0.1, 0.05, 0.1, 0.85, rng=20 + j)
                             for j in range(10)])
        return Dataset(z @ np.linalg.cholesky(np.linalg.inv(theta.values)).T)

    @pytest.mark.parametrize("mode", ["gaussian", "t"])
    @pytest.mark.parametrize("draw", ["criterion_04_draw", "garch_window"])
    def test_select_equals_independent_fits(self, draw, mode):
        data = getattr(self, draw)()
        grid = build_grid(0.02, 2.0, 16)
        # at 5 iterations the t-mode EM is capped at some lambdas, not all
        cfg = EMConfig(PenaltyConfig(0.5, grid.lo), mode=mode, nu=3.0, max_iter=5)
        report = select(data, grid, cfg)
        states = [estimate(data, cfg.with_lam(lam)) for lam in grid.values]
        for lam, rec, state in zip(grid.values, report.records, states):
            assert rec == LambdaRecord(lam, bic(state, data, cfg), len(state.edges),
                                       state.converged, False, iterations=state.iterations)
        if mode == "t":
            assert {r.em_converged for r in report.records} == {True, False}
            # and equal to the EM with every stage-1 solve started from 0
            for state, lam in zip(states, grid.values):
                cold = reference_estimate(data, cfg.with_lam(lam), rescale=True)
                assert np.array_equal(state.psi.values, cold.psi.values)
                assert (state.edges, state.iterations) == (cold.edges, cold.iterations)
        want, got = states[report.chosen_index], report.state
        assert np.array_equal(got.psi.values, want.psi.values)
        assert np.array_equal(got.mean, want.mean)
        assert np.array_equal(got.tau, want.tau)
        assert got.edges == want.edges
        assert (got.iterations, got.max_change, got.converged) == (
            want.iterations, want.max_change, want.converged)
        assert report.bic_value == bic(want, data, cfg)


class TestDegenerateColumns:
    """One entry check in estimate, the same DataError in gaussian and t mode,
    whether estimate is called directly or through select."""

    @staticmethod
    def base(seed=67):
        return np.random.default_rng(seed).standard_normal((200, 10))

    @staticmethod
    def assert_rejected(data, mode, match):
        grid = build_grid(0.02, 1.0, 8)
        cfg = EMConfig(PenaltyConfig(0.5, grid.lo), mode=mode, nu=3.0)
        with pytest.raises(DataError, match=match):
            estimate(data, cfg)
        with pytest.raises(DataError, match=match):
            select(data, grid, cfg)

    @pytest.mark.parametrize("mode", ["gaussian", "t"])
    def test_constant_column(self, mode):
        x = self.base()
        x[:, 3] = 2.5
        self.assert_rejected(Dataset(x), mode, "column 3 has zero variance")
        names = tuple(f"c{j}" for j in range(10))
        self.assert_rejected(Dataset(x, names=names), mode, "column 'c3' has zero variance")

    @pytest.mark.parametrize("mode", ["gaussian", "t"])
    @pytest.mark.parametrize("factor", [1.0, -3.0])
    def test_collinear_columns(self, mode, factor):
        x = self.base()
        x[:, 7] = factor * x[:, 2] + 1.0
        self.assert_rejected(Dataset(x), mode, "columns 2 and 7 are collinear")

    def test_nearly_collinear_columns_pass(self):
        x = self.base()
        x[:, 7] = x[:, 2] + 1e-3 * x[:, 5]
        grid = build_grid(0.5, 1.0, 2)
        cfg = EMConfig(PenaltyConfig(0.5, grid.lo), mode="gaussian")
        assert len(select(Dataset(x), grid, cfg).records) == 2
