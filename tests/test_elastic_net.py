import re

import numpy as np
import pytest

from cd_reference import reference_nodes
from parcornet import elastic_net
from parcornet.elastic_net import (
    PenaltyConfig,
    lambda_max,
    penalty_value,
    solve,
    solve_gram,
)
from parcornet.errors import ConfigError, DataError, DomainError, ShapeError
from parcornet.neighborhood import select_edges
from parcornet.netgen import TopologySpec, generate_precision
from parcornet.samplers import DistributionSpec, sample, spawned_rng


def make_problem(n, m, rng, sparsity=0.5):
    x = rng.standard_normal((n, m))
    b_true = rng.standard_normal(m) * (rng.random(m) < sparsity)
    y = 1.5 + x @ b_true + 0.1 * rng.standard_normal(n)
    return x, y


def orthonormalize(x):
    # columns centered then scaled so X_c^T X_c / n = I
    n = x.shape[0]
    q, _ = np.linalg.qr(x - x.mean(axis=0))
    return q * np.sqrt(n)


def soft(z, t):
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


def joint_gram(x, y):
    # centered Gram of [X, y]: regressing its last column is solve(x, y)
    z = np.column_stack([x, y])
    zc = z - z.mean(axis=0)
    return zc.T @ zc / z.shape[0]


class TestPenaltyConfig:
    def test_alpha_range(self):
        with pytest.raises(ConfigError):
            PenaltyConfig(-0.1, 1.0)
        with pytest.raises(ConfigError):
            PenaltyConfig(1.1, 1.0)

    def test_lam_nonnegative(self):
        with pytest.raises(ConfigError):
            PenaltyConfig(0.5, -1e-9)

    def test_penalty_value_formula(self):
        b = np.array([1.0, -2.0, 0.0])
        pen = PenaltyConfig(0.25, 2.0)
        want = 2.0 * (0.25 * 3.0 + 0.5 * 0.75 * 5.0)
        assert penalty_value(b, pen) == pytest.approx(want, rel=1e-15)


class TestClosedFormOracles:
    def test_lambda_zero_matches_least_squares(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            x, y = make_problem(60, 5, rng)
            fit = solve(x, y, PenaltyConfig(0.5, 0.0))
            xc = x - x.mean(axis=0)
            b_ols, *_ = np.linalg.lstsq(xc, y - y.mean(), rcond=None)
            assert np.abs(fit.coefficients - b_ols).max() < 1e-8
            a_ols = y.mean() - x.mean(axis=0) @ b_ols
            assert fit.intercept == pytest.approx(a_ols, abs=1e-8)

    def test_orthonormal_design_soft_threshold(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = orthonormalize(rng.standard_normal((80, 6)))
            y = rng.standard_normal(80)
            alpha, lam = rng.uniform(0.2, 1.0), rng.uniform(0.01, 0.5)
            fit = solve(x, y, PenaltyConfig(alpha, lam))
            n = x.shape[0]
            c = x.T @ (y - y.mean()) / n
            want = soft(c, lam * alpha) / (1.0 + lam * (1.0 - alpha))
            assert np.abs(fit.coefficients - want).max() < 1e-8

    def test_at_lambda_max_all_zero(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            x, y = make_problem(50, 4, rng)
            alpha = rng.uniform(0.3, 1.0)
            lmax = lambda_max(x, y, alpha)
            fit = solve(x, y, PenaltyConfig(alpha, lmax))
            assert np.all(fit.coefficients == 0.0)
            # strictly below lambda_max something activates
            fit2 = solve(x, y, PenaltyConfig(alpha, 0.99 * lmax))
            assert np.any(fit2.coefficients != 0.0)


class TestSolverBehavior:
    def test_round_cap_reports_unconverged_and_warns(self, monkeypatch):
        # at the cap a response stops after one round and one feature-sign
        # step, unconverged; select_edges keeps its support and names it
        rng = np.random.default_rng(13)
        x, _ = make_problem(100, 8, rng)
        x[:, 1:] += 2.0 * x[:, :1]  # correlated columns: supports need several rounds
        gram = joint_gram(x[:, 1:], x[:, 0])
        pen = PenaltyConfig(0.7, 0.005)
        full = solve_gram(gram, np.arange(8), pen)
        assert full.converged and full.response_kkt.max() <= 1e-12
        monkeypatch.setattr(elastic_net, "MAX_ROUNDS", 1)
        capped = solve_gram(gram, np.arange(8), pen)
        bad = np.flatnonzero(~capped.response_converged)
        assert bad.size
        assert np.all(capped.response_rounds[bad] == 2)
        assert not capped.converged
        with pytest.warns(UserWarning, match=re.escape(f"did not converge in 2 rounds: nodes {bad.tolist()}")):
            select_edges(gram, pen)

    def test_kkt_residual_enforced(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            x, y = make_problem(70, 6, rng)
            fit = solve(x, y, PenaltyConfig(rng.uniform(0.1, 1.0), rng.uniform(0.0, 0.3)))
            assert fit.converged
            assert fit.kkt_residual <= 1e-7

    def test_exact_zeros_not_epsilon(self):
        rng = np.random.default_rng(15)
        x, y = make_problem(60, 10, rng, sparsity=0.2)
        fit = solve(x, y, PenaltyConfig(1.0, 0.3))
        zero = fit.coefficients == 0.0
        assert zero.any()

    def test_round_cap_reports_unconverged(self, monkeypatch):
        rng = np.random.default_rng(17)
        x, y = make_problem(60, 8, rng)
        monkeypatch.setattr(elastic_net, "MAX_ROUNDS", 1)
        fit = solve(x, y, PenaltyConfig(0.5, 0.01))
        assert not fit.converged
        assert fit.rounds == 2  # one PDAS round, then one feature-sign step

    def test_constant_column_gets_zero(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((50, 3))
        x[:, 1] = 2.0
        y = x[:, 0] + 0.05 * rng.standard_normal(50)
        fit = solve(x, y, PenaltyConfig(1.0, 0.0))
        assert fit.coefficients[1] == 0.0

    def test_ridge_limit(self):
        # alpha=0 keeps every coefficient nonzero and matches the ridge system
        rng = np.random.default_rng(19)
        x, y = make_problem(60, 5, rng)
        n, lam = x.shape[0], 0.3
        fit = solve(x, y, PenaltyConfig(0.0, lam))
        xc, yc = x - x.mean(axis=0), y - y.mean()
        want = np.linalg.solve(xc.T @ xc / n + lam * np.eye(5), xc.T @ yc / n)
        assert np.abs(fit.coefficients - want).max() < 1e-7


class TestBlockKernel:
    """solve_gram against the scalar per-node CD loop in tests/cd_reference.py.

    The active-set solve is exact and the reference stops within its own
    tolerance, so supports must match exactly and coefficients within
    COEF_ATOL times each response's problem scale.
    """

    COEF_ATOL = 1e-9

    @staticmethod
    def gram_with_constant_column(p, rng):
        x = rng.standard_normal((3 * p + 10, p)) + 0.5 * rng.standard_normal((3 * p + 10, 1))
        x[:, p // 2] = 1.5  # zero variance: an all-zero Gram row and column
        xc = x - x.mean(axis=0)
        return xc.T @ xc / x.shape[0]

    @staticmethod
    def lam_max(gram, alpha):
        # smallest lam at which every node's all-zero solution is exact
        peak = float(np.abs(gram - np.diag(np.diag(gram))).max())
        lam = peak / alpha
        while lam * alpha < peak:
            lam = np.nextafter(lam, np.inf)
        return lam

    def assert_matches(self, gram, pen, columns=None, coef_atol=COEF_ATOL):
        columns = range(gram.shape[0]) if columns is None else columns
        fit = solve_gram(gram, columns, pen)
        coefs, _, converged, scales = reference_nodes(gram, columns, pen)
        assert converged.all() and fit.converged
        assert np.array_equal(fit.coefficients != 0.0, coefs != 0.0)
        assert np.all(np.abs(fit.coefficients - coefs) <= coef_atol * scales)
        assert np.all(fit.response_kkt <= 1e-12 * scales)
        assert fit.sweeps == fit.response_rounds.sum()
        self.assert_warm_starts_agree(gram, pen, columns, fit)
        return fit

    @staticmethod
    def assert_warm_starts_agree(gram, pen, columns, cold):
        # warm starts from the solutions at the neighbouring lambdas, and
        # from random signs, end on the cold start's supports and signs
        columns = list(columns)
        rng = np.random.default_rng(len(columns))
        starts = [rng.integers(-1, 2, size=cold.coefficients.shape).astype(np.int8)]
        for factor in (0.5, 2.0):
            near = PenaltyConfig(pen.alpha, factor * pen.lam)
            starts.append(np.sign(solve_gram(gram, columns, near).coefficients).astype(np.int8))
        for start in starts:
            warm = solve_gram(gram, columns, pen, start)
            assert warm.converged
            assert np.array_equal(np.sign(warm.coefficients), np.sign(cold.coefficients))

    @pytest.mark.parametrize("p", [2, 3, 10, 60])
    def test_matches_per_node_reference(self, p):
        rng = np.random.default_rng(50 + p)
        gram = self.gram_with_constant_column(p, rng)
        self.assert_matches(gram, PenaltyConfig(1.0, 0.0))
        for alpha in (0.0, 0.5, 1.0):
            top = self.lam_max(gram, alpha) if alpha > 0.0 else float(np.abs(gram).max())
            for factor in (0.05, 0.4, 1.0, 1.5):
                pen = PenaltyConfig(alpha, factor * top)
                fit = self.assert_matches(gram, pen)
                if alpha > 0.0 and factor >= 1.0:
                    assert np.all(fit.coefficients == 0.0)
                if factor == 0.4:
                    self.assert_matches(gram, pen, columns=[p - 1, 0])

    def test_cycling_pdas_handed_to_feature_sign(self, monkeypatch):
        # at KAPPA = 1 PDAS cycles on the Gram of heavy-tailed data; the
        # responses it hands over still reach the reference's supports
        _, theta = generate_precision(TopologySpec(kind="scale-free", p=60, seed=7))
        data = sample(theta, 500, DistributionSpec(kind="t", nu=3.0), spawned_rng(4000, 0))
        xc = data.values - data.values.mean(axis=0)
        gram = xc.T @ xc / data.n
        handed = []
        feature_sign = elastic_net._feature_sign
        monkeypatch.setattr(elastic_net, "KAPPA", 1.0)
        monkeypatch.setattr(elastic_net, "_feature_sign",
                            lambda *args: handed.append(args[4]) or feature_sign(*args))
        for lam in (0.05, 0.126):
            handed.clear()
            self.assert_matches(gram, PenaltyConfig(0.5, lam))
            assert handed

    @pytest.mark.parametrize("p", [10, 20])
    def test_lasso_with_n_close_to_p(self, p):
        # alpha = 1 and n = p + 2: no ridge term and a Gram with condition
        # number near 1e4, on which CD stops up to 5e-8 from the solution
        rng = np.random.default_rng(70 + p)
        x = rng.standard_normal((p + 2, p)) + 0.5 * rng.standard_normal((p + 2, 1))
        xc = x - x.mean(axis=0)
        gram = xc.T @ xc / x.shape[0]
        for factor in (0.01, 0.05, 0.2, 0.5):
            pen = PenaltyConfig(1.0, factor * self.lam_max(gram, 1.0))
            self.assert_matches(gram, pen, coef_atol=1e-7)

    def test_lasso_with_singular_gram(self):
        # n < p: blocks larger than the rank are singular to working precision
        rng = np.random.default_rng(82)
        x = rng.standard_normal((8, 12)) + 0.5 * rng.standard_normal((8, 1))
        xc = x - x.mean(axis=0)
        gram = xc.T @ xc / x.shape[0]
        for factor in (0.01, 0.05, 0.2):
            self.assert_matches(gram, PenaltyConfig(1.0, factor * self.lam_max(gram, 1.0)),
                                coef_atol=1e-8)


    def test_duplicate_column(self):
        # alpha = 1: a block holding both copies is singular and the solution
        # is not unique, so only its KKT conditions are pinned; with a ridge
        # term it is unique and matches the reference
        rng = np.random.default_rng(90)
        x = rng.standard_normal((50, 8)) + 0.5 * rng.standard_normal((50, 1))
        x[:, 5] = x[:, 2]
        xc = x - x.mean(axis=0)
        gram = xc.T @ xc / x.shape[0]
        for lam in (0.001, 0.05):
            fit = solve_gram(gram, range(8), PenaltyConfig(1.0, lam))
            assert fit.converged and np.all(fit.response_kkt <= 1e-12)
        self.assert_matches(gram, PenaltyConfig(0.5, 0.2))


class TestWarmStart:
    """The active-set cases only a warm start reaches."""

    @staticmethod
    def gram(n, p, seed):
        x = np.random.default_rng(seed).standard_normal((n, p))
        x += 0.5 * np.random.default_rng(seed + 1).standard_normal((n, 1))
        xc = x - x.mean(axis=0)
        return xc.T @ xc / n

    def test_exact_start_converges_in_one_round(self):
        # the warm solve before the first round is not a round
        gram = self.gram(80, 8, 1)
        pen = PenaltyConfig(0.5, 0.05)
        cold = solve_gram(gram, range(8), pen)
        warm = solve_gram(gram, range(8), pen, np.sign(cold.coefficients).astype(np.int8))
        assert np.all(warm.response_rounds == 1)
        assert np.array_equal(warm.coefficients != 0.0, cold.coefficients != 0.0)

    def test_support_that_empties(self):
        # above lam_max every warm support empties in the first round, at
        # once for the whole batch
        gram = self.gram(80, 8, 2)
        pen = PenaltyConfig(0.5, 10.0)
        warm = solve_gram(gram, range(8), pen, np.ones((8, 8), dtype=np.int8))
        assert warm.converged
        assert np.all(warm.coefficients == 0.0)
        assert np.all(warm.response_rounds == 2)

    def test_singular_warm_block_starts_cold(self):
        # n < p, and the start is the support the first cold round picks,
        # which exceeds the rank: every warm block is singular, so every
        # response starts from 0 and repeats the cold solve exactly (kept
        # at that start with b = 0, it would stop there at once)
        gram = self.gram(8, 12, 3)
        pen = PenaltyConfig(1.0, 0.02)
        start = np.where(np.abs(gram) > pen.lam, np.sign(gram), 0).astype(np.int8)
        np.fill_diagonal(start, 0)
        assert np.all((start != 0).sum(axis=0) > 8)
        cold = solve_gram(gram, range(12), pen)
        warm = solve_gram(gram, range(12), pen, start)
        assert np.array_equal(warm.coefficients, cold.coefficients)
        assert np.array_equal(warm.response_rounds, cold.response_rounds)

    def test_start_shape_checked(self):
        gram = self.gram(40, 5, 4)
        with pytest.raises(ShapeError, match=r"start must have shape \(5, 2\)"):
            solve_gram(gram, [0, 3], PenaltyConfig(0.5, 0.1), np.zeros((5, 5), dtype=np.int8))

    def test_own_row_of_start_ignored(self):
        gram = self.gram(80, 6, 5)
        pen = PenaltyConfig(0.5, 0.02)
        start = np.sign(solve_gram(gram, [1, 4], PenaltyConfig(0.5, 0.2)).coefficients)
        start = start.astype(np.int8)
        marked = start.copy()
        marked[[1, 4], [0, 1]] = [1, -1]
        a = solve_gram(gram, [1, 4], pen, start)
        b = solve_gram(gram, [1, 4], pen, marked)
        assert np.array_equal(a.coefficients, b.coefficients)
        assert np.array_equal(a.response_rounds, b.response_rounds)
        assert np.all(b.coefficients[[1, 4], [0, 1]] == 0.0)


class TestLambdaMax:
    def test_orthogonal_response_gives_zero(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 1.0], [-1.0, -1.0]])
        y = np.zeros(4)
        assert lambda_max(x, y, 1.0) == 0.0

    def test_single_standardized_column(self):
        rng = np.random.default_rng(40)
        n = 64
        col = rng.standard_normal(n)
        col = (col - col.mean()) / col.std()
        y = rng.standard_normal(n)
        want = abs(col @ (y - y.mean())) / n
        assert lambda_max(col[:, None], y, 1.0) == pytest.approx(want, rel=1e-12)

    def test_bracketing(self):
        rng = np.random.default_rng(41)
        x, y = make_problem(50, 5, rng)
        lmax = lambda_max(x, y, 0.7)
        hi = solve(x, y, PenaltyConfig(0.7, 1.01 * lmax))
        lo = solve(x, y, PenaltyConfig(0.7, 0.99 * lmax))
        assert np.all(hi.coefficients == 0.0)
        assert np.any(lo.coefficients != 0.0)


class TestInvariants:
    def test_column_permutation_permutes_coefficients(self):
        rng = np.random.default_rng(42)
        x, y = make_problem(70, 6, rng)
        perm = rng.permutation(6)
        pen = PenaltyConfig(0.8, 0.07)
        base = solve(x, y, pen)
        shuffled = solve(x[:, perm], y, pen)
        assert np.abs(shuffled.coefficients - base.coefficients[perm]).max() < 1e-9
        assert shuffled.intercept == pytest.approx(base.intercept, abs=1e-9)

    def test_objective_matches_manual_evaluation(self):
        rng = np.random.default_rng(43)
        x, y = make_problem(50, 4, rng)
        pen = PenaltyConfig(0.4, 0.12)
        fit = solve(x, y, pen)
        resid = y - fit.intercept - x @ fit.coefficients
        want = 0.5 * float(resid @ resid) / x.shape[0] + penalty_value(fit.coefficients, pen)
        assert fit.objective == pytest.approx(want, rel=1e-10)


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            solve(np.ones((5, 2)), np.ones(4), PenaltyConfig(0.5, 0.1))

    def test_nonfinite_rejected(self):
        x = np.ones((5, 2))
        x[0, 0] = np.nan
        with pytest.raises(DataError):
            solve(x, np.ones(5), PenaltyConfig(0.5, 0.1))

    def test_nonfinite_gram_rejected(self):
        # a NaN would fail every support test and pass for an empty support
        gram = np.eye(3)
        gram[0, 1] = gram[1, 0] = np.nan
        with pytest.raises(DomainError):
            solve_gram(gram, [0, 1, 2], PenaltyConfig(0.5, 0.1))

    def test_lambda_max_requires_positive_alpha(self):
        with pytest.raises(DomainError):
            lambda_max(np.ones((4, 2)), np.ones(4), 0.0)
