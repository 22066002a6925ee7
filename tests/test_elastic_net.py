import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cd_reference import kkt_residual, kkt_residuals, reference_nodes
from parcornet import elastic_net
from parcornet.elastic_net import (
    GramFit,
    PenaltyConfig,
    lambda_max,
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


def solve_one(gram, columns, pen, start=None):
    # solve_gram on a stack of one Gram, from start (all zeros when None),
    # with the stack axis taken off every array of the result
    columns = list(columns)
    if start is None:
        start = np.zeros((gram.shape[0], len(columns)), dtype=np.int8)
    fit = solve_gram(gram[None], columns, [pen], start[None])
    return GramFit(fit.coefficients[0], fit.response_rounds[0], fit.response_converged[0])


class TestPenaltyConfig:
    def test_alpha_range(self):
        with pytest.raises(ConfigError):
            PenaltyConfig(-0.1, 1.0)
        with pytest.raises(ConfigError):
            PenaltyConfig(1.1, 1.0)

    def test_lam_nonnegative(self):
        with pytest.raises(ConfigError):
            PenaltyConfig(0.5, -1e-9)


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
        full = solve_one(gram, np.arange(8), pen)
        assert full.converged and kkt_residuals(full.coefficients, gram, range(8), pen).max() <= 1e-12
        monkeypatch.setattr(elastic_net, "MAX_ROUNDS", 1)
        capped = solve_one(gram, np.arange(8), pen)
        bad = np.flatnonzero(~capped.response_converged)
        assert bad.size
        assert np.all(capped.response_rounds[bad] == 2)
        assert not capped.converged
        with pytest.warns(UserWarning, match=re.escape(f"did not converge in 2 rounds: nodes {bad.tolist()}")):
            select_edges(gram[None], [pen], "and", np.zeros((1, 8, 8), dtype=np.int8))

    def test_kkt_residual_enforced(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            x, y = make_problem(70, 6, rng)
            pen = PenaltyConfig(rng.uniform(0.1, 1.0), rng.uniform(0.0, 0.3))
            fit = solve(x, y, pen)
            assert solve_one(joint_gram(x, y), [6], pen).converged
            xc, yc = x - x.mean(axis=0), y - y.mean()
            n = x.shape[0]
            assert kkt_residual(fit.coefficients, xc.T @ xc / n, xc.T @ yc / n, pen) <= 1e-7

    def test_exact_zeros_not_epsilon(self):
        rng = np.random.default_rng(15)
        x, y = make_problem(60, 10, rng, sparsity=0.2)
        fit = solve(x, y, PenaltyConfig(1.0, 0.3))
        zero = fit.coefficients == 0.0
        assert zero.any()

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
    """solve_gram against the cyclic CD over all responses in tests/cd_reference.py.

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
        fit = solve_one(gram, columns, pen)
        coefs, _, converged, scales = reference_nodes(gram, columns, pen)
        assert converged.all() and fit.converged
        assert np.array_equal(fit.coefficients != 0.0, coefs != 0.0)
        assert np.all(np.abs(fit.coefficients - coefs) <= coef_atol * scales)
        assert np.all(kkt_residuals(fit.coefficients, gram, columns, pen) <= 1e-12 * scales)
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
            starts.append(np.sign(solve_one(gram, columns, near).coefficients).astype(np.int8))
        for start in starts:
            warm = solve_one(gram, columns, pen, start)
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
            pen = PenaltyConfig(1.0, lam)
            fit = solve_one(gram, range(8), pen)
            assert fit.converged
            assert np.all(kkt_residuals(fit.coefficients, gram, range(8), pen) <= 1e-12)
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
        cold = solve_one(gram, range(8), pen)
        warm = solve_one(gram, range(8), pen, np.sign(cold.coefficients).astype(np.int8))
        assert np.all(warm.response_rounds == 1)
        assert np.array_equal(warm.coefficients != 0.0, cold.coefficients != 0.0)

    def test_support_that_empties(self):
        # above lam_max every warm support empties in the first round, at
        # once for the whole batch
        gram = self.gram(80, 8, 2)
        pen = PenaltyConfig(0.5, 10.0)
        warm = solve_one(gram, range(8), pen, np.ones((8, 8), dtype=np.int8))
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
        cold = solve_one(gram, range(12), pen)
        warm = solve_one(gram, range(12), pen, start)
        assert np.array_equal(warm.coefficients, cold.coefficients)
        assert np.array_equal(warm.response_rounds, cold.response_rounds)

    def test_zero_start_is_the_cold_start(self, monkeypatch):
        # an all-zero start has no warm support, so no support system is
        # solved before the first round's dual residuals: every response
        # starts from b = 0, and signs only on the ignored own rows change
        # nothing, bit for bit
        gram = self.gram(80, 8, 6)
        pen = PenaltyConfig(0.5, 0.05)
        calls = []
        for name in ("_residuals", "_solve_supports"):
            real = getattr(elastic_net, name)
            monkeypatch.setattr(elastic_net, name,
                                lambda *args, name=name, real=real: calls.append(name) or real(*args))
        cold = solve_one(gram, range(8), pen)
        assert calls[0] == "_residuals"
        own = np.diag(np.where(np.arange(8) % 2, 1, -1)).astype(np.int8)
        marked = solve_one(gram, range(8), pen, own)
        assert np.array_equal(marked.coefficients, cold.coefficients)
        assert np.array_equal(marked.response_rounds, cold.response_rounds)
        assert np.array_equal(marked.response_converged, cold.response_converged)
        assert cold.converged and np.any(cold.coefficients != 0.0)

    def test_start_shape_checked(self):
        gram = self.gram(40, 5, 4)
        with pytest.raises(ShapeError, match=r"start must have shape \(1, 5, 2\)"):
            solve_gram(gram[None], [0, 3], [PenaltyConfig(0.5, 0.1)], np.zeros((1, 5, 5), dtype=np.int8))

    def test_own_row_of_start_ignored(self):
        gram = self.gram(80, 6, 5)
        pen = PenaltyConfig(0.5, 0.02)
        start = np.sign(solve_one(gram, [1, 4], PenaltyConfig(0.5, 0.2)).coefficients)
        start = start.astype(np.int8)
        marked = start.copy()
        marked[[1, 4], [0, 1]] = [1, -1]
        a = solve_one(gram, [1, 4], pen, start)
        b = solve_one(gram, [1, 4], pen, marked)
        assert np.array_equal(a.coefficients, b.coefficients)
        assert np.array_equal(a.response_rounds, b.response_rounds)
        assert np.all(b.coefficients[[1, 4], [0, 1]] == 0.0)


class TestStack:
    """A stack of Grams, one penalty each, solved at once: each Gram's
    responses end as they do when that Gram is solved alone."""

    @staticmethod
    def draw_gram(rng, n, p):
        x = rng.standard_normal((n, p)) + 0.5 * rng.standard_normal((n, 1))
        xc = x - x.mean(axis=0)
        return xc.T @ xc / n

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_stacked_solve_matches_each_gram_alone(self, data):
        s = data.draw(st.integers(1, 6), label="s")
        p = data.draw(st.integers(2, 8), label="p")
        n = data.draw(st.sampled_from([p + 2, p, max(p - 2, 2)]), label="n")
        alpha = data.draw(st.sampled_from([1.0, 0.5]), label="alpha")
        warm = data.draw(st.booleans(), label="warm")
        huge = data.draw(st.integers(-1, s - 1), label="huge")  # -1: no scaled Gram
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        grams = np.stack([self.draw_gram(rng, n, p) for _ in range(s)])
        if huge >= 0:
            grams[huge] *= 1e6
        pens = [PenaltyConfig(alpha, rng.uniform(0.01, 1.0) * TestBlockKernel.lam_max(gram, alpha))
                for gram in grams]
        start = (rng.integers(-1, 2, size=(s, p, p)) if warm else np.zeros((s, p, p))).astype(np.int8)
        stacked = solve_gram(grams, range(p), pens, start)
        assert stacked.coefficients.shape == (s, p, p)
        for k in range(s):
            alone = solve_one(grams[k], range(p), pens[k], start[k])
            assert np.array_equal(np.sign(stacked.coefficients[k]), np.sign(alone.coefficients))
            assert np.array_equal(stacked.response_rounds[k], alone.response_rounds)
            assert np.array_equal(stacked.response_converged[k], alone.response_converged)
        assert stacked.sweeps == stacked.response_rounds.sum()

    @settings(deadline=None, max_examples=12)
    @given(st.data())
    def test_stacked_beside_other_size_bands_matches_alone(self, data):
        # p up to 40 and penalties from 0.002 to 0.8 of lam_max put the
        # supports of one stack in several batch bands (sizes 1-15, 16-17,
        # ..., 30-32, 33-36, ...), each Gram's at its own sizes
        s = data.draw(st.integers(2, 4), label="s")
        p = data.draw(st.integers(20, 40), label="p")
        alpha = data.draw(st.sampled_from([1.0, 0.5]), label="alpha")
        warm = data.draw(st.booleans(), label="warm")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        grams = np.stack([self.draw_gram(rng, 3 * p + 10, p) for _ in range(s)])
        factors = np.geomspace(0.002, 0.8, s)[rng.permutation(s)]
        pens = [PenaltyConfig(alpha, f * TestBlockKernel.lam_max(g, alpha)) for g, f in zip(grams, factors)]
        start = (rng.integers(-1, 2, size=(s, p, p)) if warm else np.zeros((s, p, p))).astype(np.int8)
        stacked = solve_gram(grams, range(p), pens, start)
        sizes = (stacked.coefficients != 0).sum(axis=1)
        assert sizes.max() >= elastic_net.BATCH_BLOCK > sizes.min()
        for k in range(s):
            alone = solve_one(grams[k], range(p), pens[k], start[k])
            assert np.array_equal(np.sign(stacked.coefficients[k]), np.sign(alone.coefficients))
            assert np.array_equal(stacked.response_rounds[k], alone.response_rounds)
            assert np.array_equal(stacked.response_converged[k], alone.response_converged)

    def test_scaled_gram_beside_others_changes_nothing(self):
        # the singular-block test reads each response's own Gram's scale
        rng = np.random.default_rng(91)
        grams = np.stack([self.draw_gram(rng, 8, 8), self.draw_gram(rng, 10, 8)])
        pens = [PenaltyConfig(1.0, 0.05 * TestBlockKernel.lam_max(g, 1.0)) for g in grams]
        cold = np.zeros((2, 8, 8), dtype=np.int8)
        alone = solve_gram(grams, range(8), pens, cold)
        grams[1] *= 1e6
        pens[1] = PenaltyConfig(1.0, 1e6 * pens[1].lam)
        beside = solve_gram(grams, range(8), pens, cold)
        assert np.array_equal(np.sign(beside.coefficients[0]), np.sign(alone.coefficients[0]))
        assert np.array_equal(beside.response_rounds[0], alone.response_rounds[0])

    def test_one_penalty_per_gram(self):
        grams = np.stack([np.eye(3)] * 2)
        with pytest.raises(ShapeError, match="2 Grams needs 2 penalties"):
            solve_gram(grams, range(3), [PenaltyConfig(0.5, 0.1)], np.zeros((2, 3, 3)))
        with pytest.raises(ShapeError, match=r"start must have shape \(2, 3, 3\)"):
            solve_gram(grams, range(3), [PenaltyConfig(0.5, 0.1)] * 2, np.zeros((3, 3)))

    def test_two_d_gram_rejected(self):
        with pytest.raises(ShapeError, match=r"got shape \(3, 3\)"):
            solve_gram(np.eye(3), range(3), [PenaltyConfig(0.5, 0.1)], np.zeros((1, 3, 3)))


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
            solve_gram(gram[None], [0, 1, 2], [PenaltyConfig(0.5, 0.1)], np.zeros((1, 3, 3)))

    def test_lambda_max_requires_positive_alpha(self):
        with pytest.raises(DomainError):
            lambda_max(np.ones((4, 2)), np.ones(4), 0.0)


def pinned_stage1_case(name):
    """The stack of a TestPinnedStage1 case: (grams, columns, penalties,
    start, constants), where constants maps elastic_net's module constants
    to the values the case runs at. Each case is drawn from its own seeded
    generator, so it does not depend on which others run.

    "p{p}-a{alpha}-{start}" cases are normal or t3 draws on scale-free
    graphs (a common factor at p = 2): "cold" from all zeros and "warm"
    from the signs of the solve at twice the penalty, each at one penalty
    from 0.02 to 0.6 of lam_max, and "stacked" five Grams at penalties
    from 0.005 to 0.5 of theirs, some from random signs and some from
    zeros. "lasso-n-below-p" is a rank-deficient lasso that reaches the
    feature-sign steps, "kappa-1-cycling" the t3 Gram on which PDAS cycles
    at KAPPA = 1, "capped-p24" a stack at MAX_ROUNDS = 2 that leaves
    responses unconverged, "path-p60" one t3 Gram at 16 penalties from a
    path's neighbouring signs, and "scaled-beside" a Gram scaled by 1e6
    beside unscaled ones.
    """
    seed = int(hashlib.sha256(name.encode()).hexdigest()[:8], 16)
    rng = np.random.default_rng(seed)

    def draw(p, n, dist="t"):
        if p < 5:
            return TestStack.draw_gram(rng, n, p)
        _, theta = generate_precision(TopologySpec(kind="scale-free", p=p, seed=int(rng.integers(1000))))
        spec = DistributionSpec(kind="t", nu=3.0) if dist == "t" else DistributionSpec(kind="normal")
        x = sample(theta, n, spec, rng).values
        xc = x - x.mean(axis=0)
        return xc.T @ xc / n

    def pen(gram, alpha, factor):
        return PenaltyConfig(alpha, factor * TestBlockKernel.lam_max(gram, alpha))

    def signs_at(grams, pens):
        s, p = grams.shape[:2]
        fit = solve_gram(grams, range(p), pens, np.zeros((s, p, p), dtype=np.int8))
        return np.sign(fit.coefficients).astype(np.int8)

    if name == "lasso-n-below-p":
        gram = TestStack.draw_gram(rng, 8, 12)
        grams = np.stack([gram] * 3)
        pens = [pen(gram, 1.0, f) for f in (0.01, 0.05, 0.2)]
        return grams, range(12), pens, np.zeros((3, 12, 12), dtype=np.int8), {}
    if name == "kappa-1-cycling":
        _, theta = generate_precision(TopologySpec(kind="scale-free", p=60, seed=7))
        data = sample(theta, 500, DistributionSpec(kind="t", nu=3.0), spawned_rng(4000, 0))
        xc = data.values - data.values.mean(axis=0)
        grams = np.stack([xc.T @ xc / data.n] * 2)
        pens = [PenaltyConfig(0.5, lam) for lam in (0.05, 0.126)]
        return grams, range(60), pens, np.zeros((2, 60, 60), dtype=np.int8), {"KAPPA": 1.0}
    if name == "path-p60":
        gram = draw(60, 500)
        lams = np.geomspace(2.0, 0.02, 16)
        near = signs_at(np.stack([gram + 0.02 * draw(60, 500)] * 16),
                        [PenaltyConfig(0.5, lam) for lam in lams])
        return (np.stack([gram] * 16), range(60), [PenaltyConfig(0.5, lam) for lam in lams], near, {})
    if name == "scaled-beside":
        grams = np.stack([draw(24, 60) for _ in range(4)])
        grams[2] *= 1e6
        pens = [pen(g, 0.5, f) for g, f in zip(grams, (0.05, 0.1, 0.05, 0.3))]
        return grams, range(24), pens, np.zeros((4, 24, 24), dtype=np.int8), {}
    if name == "capped-p24":
        grams = np.stack([draw(24, 40, "normal") for _ in range(3)])
        pens = [pen(g, 1.0, f) for g, f in zip(grams, (0.01, 0.05, 0.2))]
        return grams, range(24), pens, np.zeros((3, 24, 24), dtype=np.int8), {"MAX_ROUNDS": 2}
    p, alpha, start = re.fullmatch(r"p(\d+)-a([\d.]+)-(\w+)", name).groups()
    p, alpha = int(p), float(alpha)
    dist = "normal" if p % 2 else "t"
    if start == "stacked":
        grams = np.stack([draw(p, 3 * p + 10, dist) for _ in range(5)])
        pens = [pen(g, alpha, f) for g, f in zip(grams, rng.permutation(np.geomspace(0.005, 0.5, 5)))]
        signs = rng.integers(-1, 2, size=(5, p, p)) * (rng.random((5, 1, 1)) < 0.5)
        return grams, range(p), pens, signs.astype(np.int8), {}
    grams = draw(p, 3 * p + 10, dist)[None]
    pens = [pen(grams[0], alpha, rng.uniform(0.02, 0.6))]
    start_signs = np.zeros((1, p, p), dtype=np.int8)
    if start == "warm":
        start_signs = signs_at(grams, [PenaltyConfig(alpha, 2.0 * pens[0].lam)])
    return grams, range(p), pens, start_signs, {}


def stage1_pin(fit):
    """(sha256 of the sign bytes, sha256 of the round counts and flags,
    total rounds, unconverged responses) of a solve."""
    signs = np.sign(fit.coefficients).astype(np.int8)
    rounds = fit.response_rounds.astype(np.int64).tobytes() + fit.response_converged.tobytes()
    return (hashlib.sha256(signs.tobytes()).hexdigest(), hashlib.sha256(rounds).hexdigest(),
            fit.sweeps, int((~fit.response_converged).sum()))


# recorded with the PDAS kernel of the commit before the stage-1 rework
PINNED_STAGE1 = {
    "p2-a0.5-cold": ("d5e2d2ac07b741be58f6b9e50ede5fdcf16f3e8053ecef9350e7744b0d8bd90c",
                     "95b1eeca0dbd5003d49d943a096ea24a99886cc56d813db1a70aff7581016c39", 4, 0),
    "p2-a0.5-warm": ("10db5223d19bd1d58c2b8eb3c723b0ba104cf17564f9434e53e1b9e642fb3b37",
                     "bd74d3f49046d74a3df0426d1ec905077904690c357f060d902ed797905a068d", 2, 0),
    "p2-a0.5-stacked": ("ecb33944d9979b7204bde451b08af4a66ce18f7991ab4573ab7fb1010dbbe3aa",
                        "2d09070c6521a3dc7c7b990d3a6e01074bd8dda78b7a53c76e412f1f3f7666d7", 18, 0),
    "p2-a1.0-cold": ("d5e2d2ac07b741be58f6b9e50ede5fdcf16f3e8053ecef9350e7744b0d8bd90c",
                     "95b1eeca0dbd5003d49d943a096ea24a99886cc56d813db1a70aff7581016c39", 4, 0),
    "p2-a1.0-warm": ("d5e2d2ac07b741be58f6b9e50ede5fdcf16f3e8053ecef9350e7744b0d8bd90c",
                     "bd74d3f49046d74a3df0426d1ec905077904690c357f060d902ed797905a068d", 2, 0),
    "p2-a1.0-stacked": ("886dc181bba791c590a0997bf7ce401e28cdad8b5eeec46634a76a27b1db7eee",
                        "2d09070c6521a3dc7c7b990d3a6e01074bd8dda78b7a53c76e412f1f3f7666d7", 18, 0),
    "p5-a0.5-cold": ("a1a2402c2bb0d2a20a6a3e9c9c88b07f7dd51a6865c8690b39d8c28b07b6c1fd",
                     "9e851020603cdd6b91d7e58501c8483d265634e03306eb9b94266ac7cceaa76f", 11, 0),
    "p5-a0.5-warm": ("a59e158d9c60f1c1072325503ede591f8644b0d0f646995287938ac684754f5c",
                     "3ffd9fdc829d47ed9a49055151670d2e06ac29d0a46816e19bcba38528bdac6a", 7, 0),
    "p5-a0.5-stacked": ("49f167e0112536ef01ebf5ce9232a0f2437ac53f27bdf44ec2fae9d50af12368",
                        "2087f23ed9d2a41b46fd5ee391da8f89d25aa57069b65eb42e9510639862cfd3", 78, 0),
    "p5-a1.0-cold": ("1782ec5a31c8bd45db7c4740b240ba26bc9bc6a783b604bdc6f65fab5b63af51",
                     "431b04cccd1fd545cf231d17d7adcdf4d9db8887a873378433d6969f9801f9af", 14, 0),
    "p5-a1.0-warm": ("bf5a28ca9102526b971075e4ea41df895d8ccc4fad1fb22c6c740421e5689204",
                     "3dee9598f5b0ac86b64a4502df32e0d5334ee253557bdb654c01fd1e40dd1c17", 9, 0),
    "p5-a1.0-stacked": ("2c5b9f2c9215e99376af672f984757ad9c543f8b797374b6dfc26391f7b47784",
                        "31f0073ac9466ba09d38e829ba068625d3f49d1bd54c72198bb4cee30243abf4", 69, 0),
    "p12-a0.5-cold": ("a18138e274537aa5677a4144f2c4d4e7178b5d856450287bb1dbce17f97c44b3",
                      "829e2879855994779d7fe8c64ac5859ba9f92d6f1cbfeb7585d93cd39c61aac5", 35, 0),
    "p12-a0.5-warm": ("dad4b2b6cf6711d321a2a1a5a037ccbce83ad24d91692c3ac6dc5ac86ee72332",
                      "81caf755b413ab9ff241150d320e1cec68f02eb345873385048ae18524c04c17", 25, 0),
    "p12-a0.5-stacked": ("7e7cdf33006751bfafbdafa0795256b92b34aa53bf8c1298fa6ae73b2f591b72",
                         "9004e3455f31d4eb05913075ce3ce7c7d50720a152af0a3a0c6e0a87d952682b", 230, 0),
    "p12-a1.0-cold": ("6cc483937e3e67f66d0af1d49fc17be9e4e1e1cf71e466766ea3679b2eac041b",
                      "f4b4be1fdcebeaaa226230a78007302adc630a3dbf74238e2d70290807dcbb46", 41, 0),
    "p12-a1.0-warm": ("675c8a6d3af51e1d8e58b23bf278edb8be104571f5a58490140666a94c4deb15",
                      "589ee1a97dd34d81ba9bd2f500d79355d19a290dbe7dc5e06ad4f43b18278f1c", 21, 0),
    "p12-a1.0-stacked": ("5f67c5b902e4d1a6273f961dfc0b2d52259348fdde30cb74ca2007241a4a602d",
                         "84d7cd69c83c2f9c8cb8a63c4d455725006975e69f05f209f46d08352537a288", 227, 0),
    "p24-a0.5-cold": ("07a31276f7079118efbc78432de09b5e5b7a3f5c3e9d40d804352eeea60fd11f",
                      "cbed79674e0bf4494d813437b96f4fca44ad618ad4e19552858bf5480d6e2447", 50, 0),
    "p24-a0.5-warm": ("d27b95919f430ebbe606a3a3fb4f21ddf04a1f8dcb35c3a78afc4f2e0319f0ba",
                      "f690dd6f5d03c7b3e2c4531c046db8d349f724ff88901bfcc2f4aaab830eaed4", 42, 0),
    "p24-a0.5-stacked": ("adf2f56b79f6c10be5201f103672d0b7c5f83678d8b1ea8e7ab786645bd29dba",
                         "456c1564aa74ccfe8c00862e1932fbc98015f461ab37091e47b062f74299b39f", 518, 0),
    "p24-a1.0-cold": ("b5f3d13a6bf9b5c9164e8c270bc46e8f8551093dcae368c944386915b7e15366",
                      "a425b6d3c0ea1e28685c6cf9fde5e15ad91ea556e117a2a6d33db0518b6c2e7c", 69, 0),
    "p24-a1.0-warm": ("e3ff80b80c79909f1408603bacce377055b913dd0bf2d6191498a6daf96d541d",
                      "4e87607485ac18e5133a7c68124baefab96b6ab1c59226aa102733fa0b4451cb", 49, 0),
    "p24-a1.0-stacked": ("4917d3c19a426e516702766329b4c92a172f48c92b6b4b918efe73a4f4c95030",
                         "60704662dceba3e64648ab434c943b4df76ac017bd2f284fb34993132c0f2a48", 587, 0),
    "p40-a0.5-cold": ("5c0420875211a2f6f1e6362ac595693824474a81412e07ec6f65430c722b8c12",
                      "56ecfef3286f50fa884d4b58afa8335cf8e0d9b341bb100b7bfc1d0c831a1078", 81, 0),
    "p40-a0.5-warm": ("a55526dcd25f80b52c1c1cad131b68fc1ab8ca031d329cd695a734d5c5915270",
                      "3331b34a2d430a23e5d214da407eebe2022fabf445635787823a2c359c281a61", 114, 0),
    "p40-a0.5-stacked": ("4b9065da233a37ff47f5a2eef807587d1c2b2c48e98929e4c07111993ee0f431",
                         "57e67fb36e1ea35de326977aeee4fb4edbf2187f9fcf5bdacbda3e555563e1e4", 946, 0),
    "p40-a1.0-cold": ("c7a9b2ea00903cf34dccb874537b2acafa56b280cbc64512f561dca0a9b68896",
                      "b0077f4b77ff9561d64d9f63f990464a6bb6d35a2bda7c1297b49e6e3d65c92a", 161, 0),
    "p40-a1.0-warm": ("9762f02a6989f0c6362cf69aedd6712be844cddf5f4bbcc4752fb02d09d73279",
                      "c14443061b06d2f0162e42ee7191379ad4e30de3438c72452ca2126cdc8060cf", 130, 0),
    "p40-a1.0-stacked": ("3a7f066a6aeafb7c6db71f8bb82a2edd5fa4b8b7d8c65432fc7318b2548cb86a",
                         "8629430d89ec5c372ad5351cca13f69636338d1353ec78fa0291534329939c5e", 953, 0),
    "p60-a0.5-cold": ("895580227a5f3926e6c98c3d953761499365c794ebe5e013e3bfcc78656ad61f",
                      "8c5fecbe4eec21527903a2855063c5700d376fefa563a586a97b300a6d199d1d", 202, 0),
    "p60-a0.5-warm": ("8f6e25ff53492f8ccc743e0053c9e200e09203b806bed2a8eb1e09c45d48e0ab",
                      "ab98a969df477ece30d5342f6c790d3d25d8b9c757bff3897102e6141f6c3071", 185, 0),
    "p60-a0.5-stacked": ("cf6040119556dd55e1861bbe0817ab538ce41e59f77120059226df2d60e57ed3",
                         "06003ecb2f3ca62a64ac8a849e76ee0b0a16d6803eef1ba6150c6fc6ab2dc70e", 1350, 0),
    "p60-a1.0-cold": ("2f2389be612b158857a71da979ef7155884cf95e9922f906a3b585c2c402e2d8",
                      "0cf9ac7d134fc7a3be4e03abf3246ebc3b2d41b1dc929b2d394b401496b20732", 260, 0),
    "p60-a1.0-warm": ("d7cff396860358251b24be9bad764885a201412198ac8594be2b657873f8dcbd",
                      "e54d8fc97dbb6a9e7cea9f5a12cddbcbb7450a9595741b150be8dea25993c9a4", 132, 0),
    "p60-a1.0-stacked": ("969f186d3208cbbe1f77ee8c57087279650990f73bb273d8c65ba7bc346d6b74",
                         "a1cd9c54b47c7b04c0632c3536954c87ce50cb470e107b13077ce78703c277fc", 1398, 0),
    "lasso-n-below-p": ("e4dba3eb994418b23b5b2c6031ab80aadf25cf8622509846dc10757564cd5e5d",
                        "8839ce7083f4af17faf4158d21604c8d7ac971f6ba79245f72f4cd596fe0589f", 310, 0),
    "kappa-1-cycling": ("21cc410d5f58e5369bea455d8ec1610a2034308b99794c7d5bb3559e7f44f545",
                        "1bf59e7615e57870f615300487fceb1bce6a75fa561f31e99ab631cfeb1113d6", 630, 0),
    "capped-p24": ("5865fe5d1e8ab6509e50bee5c532bf2d5014ecf69d645e0ed94a04d1307bf9c7",
                   "2046c95ed3aa38397c1d7fa940515e738c95e4944637bd16de382c0372af3a7c", 280, 66),
    "path-p60": ("dfd0293819677956f3faf778879a5d4cfbc38710bf4eccd430f57162b1572808",
                 "240d6607526aa679f8538fc3eba356471f5e22c456e04d18d5480e1f4b6663a1", 1403, 0),
    "scaled-beside": ("22b2089e51d8b882e8580a06ab625d38bbc54884b81bceeace83a24a303f24d5",
                      "d5d7f7a1e9ec3018547dfffcbee30bb91c7b106a07d900bd9c3641d4746f519c", 372, 0),
}


class TestPinnedStage1:
    """Stage 1's decisions on fixed stacks: a change to the active-set
    kernel that moves one response's support, signs, round count or
    convergence flag fails here. The coefficient bits are not pinned: they
    move with the composition of the batched solves."""

    @pytest.mark.parametrize("name", list(PINNED_STAGE1))
    def test_signs_rounds_and_flags(self, name, monkeypatch):
        grams, columns, pens, start, constants = pinned_stage1_case(name)
        for constant, value in constants.items():
            monkeypatch.setattr(elastic_net, constant, value)
        assert stage1_pin(solve_gram(grams, columns, pens, start)) == PINNED_STAGE1[name]

    @pytest.mark.parametrize("name", ["lasso-n-below-p", "kappa-1-cycling", "capped-p24"])
    def test_reaches_the_feature_sign_steps(self, name, monkeypatch):
        grams, columns, pens, start, constants = pinned_stage1_case(name)
        for constant, value in constants.items():
            monkeypatch.setattr(elastic_net, constant, value)
        handed = []
        feature_sign = elastic_net._feature_sign
        monkeypatch.setattr(elastic_net, "_feature_sign",
                            lambda *args: handed.append(args[4]) or feature_sign(*args))
        solve_gram(grams, columns, pens, start)
        assert handed
