import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, stats

from garch_reference import reference_fit
from parcornet.em import EMConfig
from parcornet.elastic_net import PenaltyConfig
from parcornet import pipeline, selection
from parcornet.errors import ConfigError, DataError, EstimationError, FitError
from parcornet.matrices import PrecisionMatrix
from parcornet.netgen import TopologySpec, generate_precision
from parcornet.pipeline import (
    PriceTable,
    _garch_sigma2,
    _negloglik_score,
    fit_ar_garch,
    ks_statistic,
    log_returns,
    rolling_estimate,
    simulate_ar_garch,
    window_count,
)
from parcornet.samplers import DistributionSpec, sample, spawned_rng
from parcornet.selection import build_grid
from test_cli import make_price_csv


def price_table(values, names=None):
    values = np.asarray(values, dtype=float)
    dates = tuple(f"2020-01-{d + 1:02d}" for d in range(values.shape[0]))
    names = names or tuple(f"s{j}" for j in range(values.shape[1]))
    return PriceTable(dates, names, values)


class TestPriceTable:
    def test_rejects_unsorted_dates(self):
        with pytest.raises(DataError, match="increasing"):
            PriceTable(("2020-01-02", "2020-01-01"), ("a",), [[1.0], [2.0]])

    def test_rejects_nonpositive_price(self):
        with pytest.raises(DataError, match="positive"):
            price_table([[1.0], [0.0]])

    def test_allows_missing_cells(self):
        t = price_table([[1.0, np.nan], [2.0, 3.0]])
        assert np.isnan(t.values[0, 1])

    def test_shape_mismatch(self):
        with pytest.raises(DataError, match="shape"):
            PriceTable(("2020-01-01",), ("a", "b"), [[1.0]])

    def test_csv_round_trip_preserves_nan(self):
        t = price_table([[100.0, np.nan], [101.5, 55.25], [99.125, 54.0]])
        back = PriceTable.from_csv_text(t.to_csv_text())
        assert back.dates == t.dates and back.names == t.names
        assert np.isnan(back.values[0, 1])
        mask = np.isfinite(t.values)
        assert np.array_equal(back.values[mask], t.values[mask])


class TestLogReturns:
    def test_matches_manual_ratio(self):
        t = price_table([[100.0], [110.0], [99.0]])
        r = log_returns(t)
        want = [np.log(110.0 / 100.0), np.log(99.0 / 110.0)]
        assert r.shape == (2, 1)
        assert r[:, 0] == pytest.approx(want, abs=1e-15)

    def test_nan_price_hits_both_neighbors(self):
        t = price_table([[1.0], [np.nan], [1.2], [1.3]])
        r = log_returns(t)
        assert np.isnan(r[0, 0]) and np.isnan(r[1, 0])
        assert np.isfinite(r[2, 0])

    def test_needs_two_rows(self):
        with pytest.raises(DataError):
            log_returns(price_table([[1.0]]))


class TestGarchRecursion:
    def test_matches_python_loop(self):
        rng = np.random.default_rng(5)
        eps = rng.standard_normal(40)
        omega, a, b = 0.05, 0.1, 0.85
        got = _garch_sigma2(eps, omega, a, b)
        want = np.empty_like(got)
        want[0] = eps.var()
        for t in range(1, eps.size):
            want[t] = omega + a * eps[t - 1] ** 2 + b * want[t - 1]
        assert np.abs(got - want).max() < 1e-12

    def test_b_zero_is_arch(self):
        eps = np.array([1.0, 2.0, -1.0, 0.5])
        got = _garch_sigma2(eps, 0.3, 0.2, 0.0)
        assert got[1:] == pytest.approx(0.3 + 0.2 * eps[:-1] ** 2)


class TestSimulate:
    def test_deterministic_for_seed(self):
        a = simulate_ar_garch(200, 0.0, 0.1, 0.05, 0.1, 0.85, rng=7)
        b = simulate_ar_garch(200, 0.0, 0.1, 0.05, 0.1, 0.85, rng=7)
        assert np.array_equal(a, b)

    def test_moments(self):
        r = simulate_ar_garch(200_000, 0.2, 0.5, 0.05, 0.1, 0.8, rng=11)
        var_eps = 0.05 / (1.0 - 0.1 - 0.8)
        assert r.mean() == pytest.approx(0.2 / (1.0 - 0.5), rel=0.05)
        assert r.var() == pytest.approx(var_eps / (1.0 - 0.5**2), rel=0.1)

    def test_rejects_nonstationary(self):
        with pytest.raises(ConfigError):
            simulate_ar_garch(100, 0.0, 0.0, 0.05, 0.5, 0.5, rng=0)
        with pytest.raises(ConfigError):
            simulate_ar_garch(100, 0.0, 1.0, 0.05, 0.1, 0.1, rng=0)


class TestFit:
    def test_recovers_known_parameters(self):
        truth = dict(c=0.0, phi=0.1, omega=0.05, a=0.1, b=0.85)
        r = simulate_ar_garch(5000, rng=3, **truth)
        fit = fit_ar_garch(r)
        for key, val in truth.items():
            assert abs(getattr(fit, key) - val) < 0.05, key

    def test_residuals_standardized(self):
        r = simulate_ar_garch(3000, 0.0, 0.2, 0.1, 0.05, 0.9, rng=9)
        fit = fit_ar_garch(r)
        assert 0.8 <= fit.residuals.var() <= 1.2
        assert fit.residuals.size == r.size - 1
        assert np.all(fit.sigma2 > 0)

    def test_short_series(self):
        with pytest.raises(DataError, match="short"):
            fit_ar_garch(np.zeros(100) + np.arange(100) * 0.01)

    def test_nonfinite_series(self):
        r = np.ones(300)
        r[5] = np.nan
        with pytest.raises(DataError, match="finite"):
            fit_ar_garch(r)

    def test_constant_series(self):
        with pytest.raises(FitError, match="variance"):
            fit_ar_garch(np.ones(300))

    def test_failure_names_every_start(self, monkeypatch):
        def stalled(fun, x0, **kwargs):
            return optimize.OptimizeResult(x=x0, fun=1.0, jac=np.full(5, 0.25),
                                           status=1, success=False)

        monkeypatch.setattr(pipeline.optimize, "minimize", stalled)
        r = simulate_ar_garch(300, 0.0, 0.1, 0.05, 0.1, 0.85, rng=5)
        with pytest.raises(FitError) as info:
            fit_ar_garch(r)
        msg = str(info.value)
        for start in range(1, 6):
            assert f"start {start}: optimizer status 1, max|score| 2.500e-01" in msg

    @pytest.mark.parametrize("status, score_in_gtol, accepted", [
        (2, 5.0, True),    # precision loss near the optimum counts as converged
        (2, 20.0, False),
        (1, 0.5, False),   # iteration cap
    ])
    def test_precision_loss_rule(self, monkeypatch, status, score_in_gtol, accepted):
        r = simulate_ar_garch(300, 0.0, 0.1, 0.05, 0.1, 0.85, rng=5)
        gtol = 1e-7 * r.size

        def stopped(fun, x0, **kwargs):
            return optimize.OptimizeResult(x=x0, fun=-1.0, jac=np.full(5, score_in_gtol * gtol),
                                           status=status, success=False)

        monkeypatch.setattr(pipeline.optimize, "minimize", stopped)
        if accepted:
            assert fit_ar_garch(r).loglik == 1.0
        else:
            with pytest.raises(FitError, match=f"start 5: optimizer status {status}"):
                fit_ar_garch(r)

    def test_equivariant_to_units(self):
        # c is fitted in units of the series' standard deviation, so a change
        # of units rescales c and omega, shifts the log-likelihood and leaves
        # the rest unchanged up to rounding
        r = simulate_ar_garch(1000, 0.01, 0.1, 0.05, 0.1, 0.85, rng=4)
        base = fit_ar_garch(r)
        for k in (1e-2, 1e2):
            fit = fit_ar_garch(k * r)
            assert fit.c / k == pytest.approx(base.c, rel=1e-9)
            assert fit.omega / k**2 == pytest.approx(base.omega, rel=1e-9)
            for key in ("phi", "a", "b"):
                assert getattr(fit, key) == pytest.approx(getattr(base, key), abs=1e-9), key
            shift = (r.size - 1) * np.log(k)
            assert fit.loglik + shift == pytest.approx(base.loglik, rel=1e-9)
            assert np.abs(fit.residuals - base.residuals).max() < 1e-9


def heavy_tailed_series():
    """Log returns of series s04 of a t5-shock AR(1)-GARCH(1,1) price panel.

    The panel's shocks are multivariate t5 draws (stream (407, 2, 3)) with
    the correlations of the p=10 scale-free graph of topology seed 7; each
    series follows the percent-unit recursion c=0, phi=0.1, omega=0.05,
    a=0.1, b=0.85 over 1,009 returns after a 500-step burn-in. Prices go
    through the CSV text, as `parcornet pipeline` reads them.
    """
    theta = generate_precision(TopologySpec(kind="scale-free", p=10, seed=7))[1].values
    sigma = np.linalg.inv(theta)
    sd = np.sqrt(np.diag(sigma))
    corr = sigma / np.outer(sd, sd)
    n, burn = 1009, 500
    shocks = sample(PrecisionMatrix(np.linalg.inv(corr)), n + burn,
                    DistributionSpec(kind="t", nu=5.0), spawned_rng(407, 2, 3)).values
    h = np.ones(10)  # the stationary variance omega / (1 - a - b)
    eps = np.zeros(10)
    r = np.zeros(10)
    returns = np.empty((n + burn, 10))
    for t in range(n + burn):
        h = 0.05 + 0.1 * eps**2 + 0.85 * h
        eps = np.sqrt(h) * shocks[t]
        r = 0.1 * r + eps
        returns[t] = r
    log_prices = np.log(100.0) + np.cumsum(returns[burn:] / 100.0, axis=0)
    prices = np.exp(np.vstack([np.full((1, 10), np.log(100.0)), log_prices]))
    dates = tuple(str(np.datetime64("2000-01-03") + k) for k in range(n + 1))
    table = PriceTable(dates, tuple(f"s{j + 1:02d}" for j in range(10)), prices)
    return log_returns(PriceTable.from_csv_text(table.to_csv_text()))[:, 3]


class TestAcceptsConvergedFit:
    """A converged QMLE fit is the fit, whatever its residual variance.

    On heavy_tailed_series every start converges to the same optimum,
    whose standardized residuals have sample variance 1.206.
    """

    def test_first_converged_start_is_the_fit(self, monkeypatch):
        results = []
        minimize = optimize.minimize

        def recorded(*args, **kwargs):
            results.append(minimize(*args, **kwargs))
            return results[-1]

        r = heavy_tailed_series()
        monkeypatch.setattr(pipeline.optimize, "minimize", recorded)
        fit = fit_ar_garch(r)
        assert len(results) == 1 and results[0].success
        assert fit.residuals.var() > 1.2
        scale = np.sqrt(r.var())
        assert (fit.c, fit.phi, fit.omega, fit.a, fit.b) == pipeline._unpack(results[0].x, scale)
        assert fit.loglik == -results[0].fun

    @pytest.mark.parametrize("start", [2, 3, 4, 5])
    def test_each_start_alone_is_accepted(self, monkeypatch, start):
        calls = []
        minimize = optimize.minimize

        def stall_until_start(fun, x0, **kwargs):
            calls.append(x0)
            if len(calls) < start:
                return optimize.OptimizeResult(x=x0, fun=1.0, jac=np.ones(5),
                                               status=1, success=False)
            return minimize(fun, x0, **kwargs)

        monkeypatch.setattr(pipeline.optimize, "minimize", stall_until_start)
        fit = fit_ar_garch(heavy_tailed_series())
        assert len(calls) == start
        assert fit.residuals.var() > 1.2


SCORE_SERIES = simulate_ar_garch(600, 0.0, 0.1, 0.05, 0.1, 0.85, rng=3)
SCORE_RTOL = 1e-5  # central differences with step 1e-5 on an objective of size ~1e3


def _score_start(r):
    """fit_ar_garch's start point: lag-1 AR fit, omega at a tenth of the variance."""
    scale = r.std()
    phi0 = np.corrcoef(r[:-1], r[1:])[0, 1]
    return scale, np.array([r.mean() * (1.0 - phi0) / scale, np.arctanh(phi0),
                            np.log(0.1 * r.var() * (1.0 - phi0**2)),
                            np.log(0.9 / 0.1), np.log(1.0 / 8.0)])


class TestScore:
    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5))
    def test_matches_central_differences(self, offset):
        r = SCORE_SERIES
        scale, start = _score_start(r)
        theta = start + np.asarray(offset)
        nll, grad = _negloglik_score(theta, r, scale)
        fd = np.empty(5)
        for k in range(5):
            step = np.zeros(5)
            step[k] = 1e-5 * max(1.0, abs(theta[k]))
            up = _negloglik_score(theta + step, r, scale)[0]
            down = _negloglik_score(theta - step, r, scale)[0]
            fd[k] = (up - down) / (2.0 * step[k])
        assert np.isfinite(nll)
        assert np.abs(grad - fd).max() <= SCORE_RTOL * max(1.0, np.abs(grad).max())


GARCH_TRUTH = (0.0, 0.1, 0.05, 0.1, 0.85)
REFERENCE_CASES = {  # name: (length, (c, phi, omega, a, b), seed)
    "sim-31": (1000, GARCH_TRUTH, 31),
    "sim-32": (1000, GARCH_TRUTH, 32),
    "sim-33": (1000, GARCH_TRUTH, 33),
    "sim-small-scale": (800, (2e-4, 0.05, 2e-5, 0.05, 0.9), 34),
}


class TestAgainstReference:
    """BFGS on the score against the Nelder-Mead search it replaced."""

    @staticmethod
    def assert_no_worse(r):
        got, want = fit_ar_garch(r), reference_fit(r)
        assert got.loglik >= want.loglik - 1e-9 * abs(want.loglik)
        if want.a > 1e-6:  # interior optimum: the same point
            for key in ("c", "phi", "omega", "a", "b"):
                assert abs(getattr(got, key) - getattr(want, key)) <= 1e-5, key

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_seeded_series(self, case):
        n, params, seed = REFERENCE_CASES[case]
        self.assert_no_worse(simulate_ar_garch(n, *params, rng=seed))

    def test_price_csv_series(self, tmp_path):
        make_price_csv(tmp_path / "px.csv")
        text = (tmp_path / "px.csv").read_text()
        returns = log_returns(PriceTable.from_csv_text(text))
        for j in range(returns.shape[1]):
            self.assert_no_worse(returns[:, j])


class TestKS:
    def test_matches_library_statistic(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal(500)
        d, _ = ks_statistic(x, "normal")
        assert d == pytest.approx(stats.kstest(x, "norm").statistic, abs=1e-12)

    def test_accepts_matching_reference(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal(2000)
        d, reject = ks_statistic(x, "normal")
        assert not reject
        assert d < 1.358 / np.sqrt(2000)

    def test_separates_t_from_normal(self):
        rng = np.random.default_rng(23)
        nu = 3.0
        x = rng.standard_t(nu, size=4000) * np.sqrt((nu - 2.0) / nu)
        _, reject_normal = ks_statistic(x, "normal")
        _, reject_t = ks_statistic(x, "t", nu=nu)
        assert reject_normal and not reject_t

    def test_t_reference_needs_nu(self):
        x = np.linspace(-2, 2, 50)
        with pytest.raises(ConfigError):
            ks_statistic(x, "t")
        with pytest.raises(ConfigError):
            ks_statistic(x, "t", nu=2.0)

    def test_unknown_reference(self):
        with pytest.raises(ConfigError):
            ks_statistic(np.zeros(30), "cauchy")

    def test_small_sample(self):
        with pytest.raises(DataError):
            ks_statistic(np.zeros(10), "normal")


class TestRolling:
    def test_window_count_formula(self):
        assert window_count(756, 252, 21) == 25
        assert window_count(100, 100, 10) == 1
        assert window_count(99, 100, 10) == 0
        assert window_count(120, 100, 10) == 3

    @staticmethod
    def _config():
        return EMConfig(PenaltyConfig(alpha=0.5, lam=0.2), mode="gaussian")

    def test_windows_cover_expected_ranges(self):
        rng = np.random.default_rng(31)
        vals = rng.standard_normal((80, 3))
        results = rolling_estimate(vals, window=40, step=20, config=self._config(),
                                   grid=build_grid(0.1, 0.5, 3))
        assert [(- w.start + w.stop) for w in results] == [40, 40, 40]
        assert [w.start for w in results] == [0, 20, 40]
        assert all(w.error is None for w in results)
        assert all(w.net_measures.p == 3 for w in results)

    def test_nan_window_flagged_not_fatal(self):
        rng = np.random.default_rng(32)
        vals = rng.standard_normal((80, 3))
        vals[10, 1] = np.nan  # poisons only the first window
        results = rolling_estimate(vals, window=40, step=20, config=self._config(),
                                   grid=build_grid(0.1, 0.5, 3))
        assert results[0].error is not None and results[0].report is None
        assert results[1].error is None and results[2].error is None

    def test_estimation_error_flags_window_but_bug_propagates(self, monkeypatch):
        rng = np.random.default_rng(34)
        vals = rng.standard_normal((80, 3))
        real_select = selection.select
        calls = []

        def failing_first(data, grid, config, exc):
            calls.append(1)
            if len(calls) == 1:
                raise exc
            return real_select(data, grid, config)

        monkeypatch.setattr(pipeline.selection, "select",
                            lambda d, g, c: failing_first(d, g, c, EstimationError("no fit")))
        results = rolling_estimate(vals, window=40, step=20, config=self._config(),
                                   grid=build_grid(0.1, 0.5, 2))
        assert results[0].error == "EstimationError: no fit" and results[0].report is None
        assert results[1].error is None and results[2].error is None
        calls.clear()
        monkeypatch.setattr(pipeline.selection, "select",
                            lambda d, g, c: failing_first(d, g, c, TypeError("a bug")))
        with pytest.raises(TypeError, match="a bug"):
            rolling_estimate(vals, window=40, step=20, config=self._config(),
                             grid=build_grid(0.1, 0.5, 2))

    def test_window_bounds_validated(self):
        vals = np.zeros((50, 3))
        with pytest.raises(ConfigError):
            rolling_estimate(vals, window=3, step=10, config=self._config(),
                             grid=build_grid(0.1, 0.5, 2))
        with pytest.raises(ConfigError):
            rolling_estimate(vals, window=60, step=10, config=self._config(),
                             grid=build_grid(0.1, 0.5, 2))
        with pytest.raises(ConfigError):
            rolling_estimate(vals, window=40, step=0, config=self._config(),
                             grid=build_grid(0.1, 0.5, 2))

    def test_window_with_missing_row_flagged_next_finite(self):
        rng = np.random.default_rng(33)
        vals = rng.standard_normal((80, 3))
        vals[5, 0] = np.nan
        results = rolling_estimate(vals, window=40, step=20, config=self._config(),
                                   grid=build_grid(0.1, 0.5, 2))
        assert results[0].index == 0
        assert results[0].net_measures is None and results[0].report is None
        assert "missing" in results[0].error
        assert results[1].error is None
        assert np.isfinite(results[1].net_measures.mean_strength)
