import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from em_reference import reference_estimate
from parcornet import constrained_mle, selection
from parcornet.elastic_net import PenaltyConfig
from parcornet.em import MODES, EMConfig, EMState, estimate, weighted_scatter
from parcornet.errors import ConfigError, DataError, EstimationError, SelectionError
from parcornet.matrices import Dataset, EdgeSet, PrecisionMatrix
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


def assert_records_match_independent_fits(report, data, grid, cfg):
    """Every fitted record equals an independent estimate at its lambda bit
    for bit; every skipped one (gaussian mode only) has bic NaN, that fit's
    edge count and a bic_bound at most its BIC and above the chosen BIC.
    Returns the independent states and the skipped indices."""
    states = [estimate(data, cfg.with_lam(lam)) for lam in grid.values]
    skipped = []
    for idx, (lam, rec, state) in enumerate(zip(grid.values, report.records, states)):
        if rec.bic_bound is None:
            assert rec == LambdaRecord(lam, bic(state, data, cfg), len(state.edges),
                                       state.converged, False, iterations=state.iterations)
            continue
        skipped.append(idx)
        assert cfg.mode == "gaussian"
        assert np.isnan(rec.bic)
        assert rec == LambdaRecord(lam, rec.bic, len(state.edges), False, False,
                                   bic_bound=rec.bic_bound)
        assert report.bic_value < rec.bic_bound <= bic(state, data, cfg)
    return states, skipped


class TestSelect:
    def test_picks_minimum_bic(self):
        edges, theta = generate_precision(TopologySpec("scale-free", 6, seed=6))
        data = sample(theta, 400, DistributionSpec("normal"), spawned_rng(2, 0))
        grid = build_grid(0.02, 1.0, 8)
        cfg = EMConfig(PenaltyConfig(0.5, grid.lo), mode="gaussian")
        report = select(data, grid, cfg)
        states, skipped = assert_records_match_independent_fits(report, data, grid, cfg)
        # best-first, only the two sparsest lambdas are fitted, and every
        # lambda's BIC, fitted or not, is at least the chosen one
        assert skipped == [0, 1, 2, 3, 4, 5]
        assert report.bic_value == min(bic(s, data, cfg) for s in states)
        assert report.bic_value == min(r.bic for r in report.records if r.bic_bound is None)
        assert len(report.records) == 8
        assert report.chosen_lambda == grid.values[report.chosen_index]
        table = report.to_json_dict()["records"]
        assert [r["bic"] is None for r in table] == [r["bic_bound"] is not None for r in table]

    def test_complete_graph_floor_equals_its_bic(self):
        """The floor is attained by the complete graph, so the margin is the
        only room between them: it must cover the rounding of both and stay
        far below one edge's log(n)."""
        for n, p, seed in [(500, 20, 0), (40, 20, 1), (22, 20, 2), (11, 10, 3)]:
            data = Dataset(np.random.default_rng(seed).standard_normal((n, p)))
            cfg = EMConfig(PenaltyConfig(0.5, 1e-6), mode="gaussian")
            state = estimate(data, cfg)
            assert len(state.edges) == p * (p - 1) // 2
            sign, logdet = np.linalg.slogdet(weighted_scatter(data, np.ones(n), state.mean))
            bound = selection._Scores(data, cfg).bound(state.edges, sign, logdet)
            margin = selection.FLOOR_RTOL * n * (abs(logdet) + p * (1 + np.log(2 * np.pi)))
            fitted = bic(state, data, cfg)
            assert abs(fitted - (bound + margin)) <= 0.01 * margin
            assert margin < 1e-3 * np.log(n)
            # so the skip rule, bound > best BIC, cannot skip it once it is the best
            assert bound <= fitted

    @pytest.mark.parametrize("mode, n", [("t", 200), ("gaussian", 10), ("gaussian", 8)])
    def test_nothing_skipped_without_a_floor(self, mode, n):
        # t mode has no closed-form floor, and with n <= p = 10 the scatter is singular
        x = np.random.default_rng(68).standard_normal((200, 10))
        x[:, 1] += x[:, 0]
        grid = build_grid(0.01, 1.0, 6)
        cfg = EMConfig(PenaltyConfig(0.5, grid.lo), mode="gaussian", nu=3.0)
        assert any(r.bic_bound is not None for r in select(Dataset(x), grid, cfg).records)
        data, cfg = Dataset(x[:n]), EMConfig(PenaltyConfig(0.5, grid.lo), mode=mode, nu=3.0)
        assert selection._Scores(data, cfg)._saturated is None
        assert all(r.bic_bound is None for r in select(data, grid, cfg).records)

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
        # fail the constrained fit of the largest lambda's edge set only: its
        # floor is the lowest, so it runs its first sweep before any BIC could
        # let a gaussian-mode select skip it
        sparse = estimate(data, cfg.with_lam(grid.hi)).edges
        assert estimate(data, cfg).edges != sparse
        real = constrained_mle.fit_stepwise

        def flaky(scatter, edges, w_init=None):
            if edges == sparse:
                raise EstimationError("forced failure")
            return (yield from real(scatter, edges, w_init=w_init))

        monkeypatch.setattr(constrained_mle, "fit_stepwise", flaky)
        report = select(data, grid, cfg)
        assert report.records[-1].failed
        assert "forced failure" in report.records[-1].error
        assert not np.isfinite(report.records[-1].bic)
        assert report.records[-1].bic_bound is None
        assert report.chosen_index < 2
        assert not report.records[report.chosen_index].failed

    def test_all_failed_raises_with_records(self, monkeypatch):
        def broken(scatter, edges, w_init=None):
            raise EstimationError("nope")
            yield  # a generator, as fit_stepwise is: it raises at its first sweep

        monkeypatch.setattr(constrained_mle, "fit_stepwise", broken)
        rng = np.random.default_rng(65)
        data = Dataset(rng.standard_normal((40, 3)))
        grid = build_grid(0.1, 1.0, 4)
        cfg = EMConfig(PenaltyConfig(0.5, 0.1), mode="gaussian")
        with pytest.raises(SelectionError) as err:
            select(data, grid, cfg)
        assert len(err.value.records) == 4
        assert str(err.value) == ("no lambda value produced a fit; "
                                  "lambda 0.1 failed with: iteration 1: nope")

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


class TestBICBound:
    """The bound select skips on: before the first sweep it is the floor F(E),
    the BIC of the saturated fit; it rises with every sweep and stays below
    the fitted BIC, to within far less than the margin."""

    def test_bound_rises_from_the_floor_to_the_fitted_bic(self):
        rng = np.random.default_rng(69)
        for case in range(100):
            p = int(rng.integers(4, 61))
            n = int(rng.choice([p + 1, p + 2, rng.integers(p + 1, 501)]))
            dist = DistributionSpec("normal") if case % 2 else DistributionSpec("t", nu=3.0)
            _, theta = generate_precision(TopologySpec("scale-free", p, seed=case))
            data = sample(theta, n, dist, spawned_rng(69, case))
            q = rng.uniform(0.02, 0.9)
            edges = EdgeSet.from_pairs(p, [(j, k) for j in range(p) for k in range(j + 1, p)
                                           if rng.random() < q])
            cfg = EMConfig(PenaltyConfig(0.5, 0.1), mode="gaussian")
            scores = selection._Scores(data, cfg)
            mean = data.values.mean(axis=0)
            s = weighted_scatter(data, np.ones(n), mean)

            def bound_and_margin(w):
                sign, logdet = np.linalg.slogdet(w)
                margin = selection.FLOOR_RTOL * n * (abs(logdet) + p * (1 + np.log(2 * np.pi)))
                return scores.bound(edges, sign, logdet), margin

            bounds = [bound_and_margin(s)]
            floor = (n * (np.linalg.slogdet(s)[1] + p * (1 + np.log(2 * np.pi)))
                     + np.log(n) * (len(edges) + p))
            assert sum(bounds[0]) == pytest.approx(floor, rel=1e-14)
            stepper = constrained_mle.fit_stepwise(s, edges)
            while True:
                try:
                    bounds.append(bound_and_margin(next(stepper)))
                except StopIteration as done:
                    fit = done.value
                    break
            fitted = bic(EMState(mean, fit.psi, np.ones(n), edges, 1, 0.0, True), data, cfg)
            raw = [bound + margin for bound, margin in bounds]
            assert all(b >= a for a, b in zip(raw, raw[1:]))
            assert all(r - fitted <= 0.01 * margin for r, (_, margin) in zip(raw, bounds))
            assert all(bound <= fitted for bound, _ in bounds)


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
        states, skipped = assert_records_match_independent_fits(report, data, grid, cfg)
        if mode == "gaussian":
            assert skipped
        else:
            assert not skipped
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

    @pytest.mark.parametrize("mode", ["gaussian", "t"])
    @pytest.mark.parametrize("scale", [1e160, 1e-160, 1e-200])
    def test_column_out_of_float_range(self, mode, scale):
        # the scatter diagonal of columns 4 on overflows, is subnormal or is zero
        x = self.base()
        x[:, 4:] *= scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assert_rejected(Dataset(x), mode, "^column 4 is out of floating-point range: "
                                 "its variance .* is not a finite normal float; "
                                 "rescale the data$")

    def test_nearly_collinear_columns_pass(self):
        x = self.base()
        x[:, 7] = x[:, 2] + 1e-3 * x[:, 5]
        grid = build_grid(0.5, 1.0, 2)
        cfg = EMConfig(PenaltyConfig(0.5, grid.lo), mode="gaussian")
        assert len(select(Dataset(x), grid, cfg).records) == 2


class TestRowPermutation:
    """select depends on the rows as a set: permuting them moves the scatter,
    log det S and every BIC only in their last bits. That must not change the
    chosen lambda, an edge count or which lambdas are skipped (the floor
    margin covers such rounding), and psi must agree to rounding."""

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(4, 10), mode=st.sampled_from(MODES),
           draw=st.data())
    def test_row_order_does_not_change_the_selection(self, seed, p, mode, draw):
        n = draw.draw(st.one_of(st.integers(30, 150), st.integers(p, p + 2)), label="n")
        rng = np.random.default_rng(seed)
        _, theta = generate_precision(TopologySpec("scale-free", p, seed=seed % 1000))
        x = sample(theta, n, DistributionSpec("t", nu=4.0), rng).values
        # the smallest lambda gives the complete graph, where floor and BIC meet
        grid = build_grid(1e-5, 1.0, 5)
        cfg = EMConfig(PenaltyConfig(0.5, grid.lo), mode=mode, nu=4.0, max_iter=50)
        reports = []
        for rows in (x, x[rng.permutation(n)]):
            try:
                reports.append(select(Dataset(rows), grid, cfg))
            except SelectionError as exc:
                reports.append(exc)
        a, b = reports
        if isinstance(a, SelectionError) or isinstance(b, SelectionError):
            assert [r.failed for r in a.records] == [r.failed for r in b.records]
            return
        assert a.chosen_index == b.chosen_index
        for field in ("n_edges", "failed", "iterations"):
            assert [getattr(r, field) for r in a.records] == [getattr(r, field) for r in b.records]
        assert ([r.bic_bound is None for r in a.records]
                == [r.bic_bound is None for r in b.records])
        if n >= 30:
            # at n <= p + 2 the scatter is singular or nearly so, and psi's rounding
            # grows with its condition number: 6.5e-6 relative at n = p was seen
            scale = np.abs(a.state.psi.values).max()
            assert np.abs(a.state.psi.values - b.state.psi.values).max() <= 1e-12 * scale
