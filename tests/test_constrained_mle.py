import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmle_reference import reference_fit
from parcornet import constrained_mle
from parcornet.errors import DomainError, EstimationError
from parcornet.matrices import EdgeSet


def random_scatter(p, rng):
    a = rng.standard_normal((2 * p, p))
    s = a.T @ a / (2 * p)
    return 0.5 * (s + s.T)


def random_edges(p, rng, q=0.4):
    pairs = [(j, k) for j in range(p) for k in range(j + 1, p) if rng.random() < q]
    return EdgeSet.from_pairs(p, pairs)


class TestKKTIdentity:
    def test_inverse_matches_scatter_on_pattern(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            p = int(rng.integers(3, 10))
            s = random_scatter(p, rng)
            edges = random_edges(p, rng)
            res = constrained_mle.fit(s, edges)
            # independent check through the actual inverse
            w_direct = np.linalg.inv(res.psi.values)
            tol = 1e-6 * np.abs(s).max()
            for j, k in edges:
                assert abs(w_direct[j, k] - s[j, k]) <= tol
            assert np.abs(np.diag(w_direct) - np.diag(s)).max() <= tol

    def test_exact_zeros_off_pattern(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = int(rng.integers(4, 9))
            s = random_scatter(p, rng)
            edges = random_edges(p, rng, q=0.3)
            res = constrained_mle.fit(s, edges)
            adj = edges.to_adjacency()
            for j in range(p):
                for k in range(p):
                    if j != k and not adj[j, k]:
                        assert res.psi.values[j, k] == 0.0


class TestClosedFormOracles:
    def test_complete_pattern_is_plain_inverse(self):
        rng = np.random.default_rng(32)
        s = random_scatter(5, rng)
        res = constrained_mle.fit(s, EdgeSet.from_adjacency(~np.eye(5, dtype=bool)))
        assert np.abs(res.psi.values - np.linalg.inv(s)).max() < 1e-8

    def test_empty_pattern_is_diagonal_inverse(self):
        rng = np.random.default_rng(33)
        s = random_scatter(4, rng)
        res = constrained_mle.fit(s, EdgeSet(4))
        want = np.diag(1.0 / np.diag(s))
        assert np.abs(res.psi.values - want).max() < 1e-12

    def test_chain_decomposable_formula(self):
        # For the decomposable chain 0-1-2 the MLE has a clique-sum closed form:
        # Psi = [inv S_{01}]_pad + [inv S_{12}]_pad - [inv S_{11}]_pad
        rng = np.random.default_rng(34)
        for _ in range(5):
            s = random_scatter(3, rng)
            edges = EdgeSet.from_pairs(3, [(0, 1), (1, 2)])
            res = constrained_mle.fit(s, edges)
            want = np.zeros((3, 3))
            want[np.ix_([0, 1], [0, 1])] += np.linalg.inv(s[np.ix_([0, 1], [0, 1])])
            want[np.ix_([1, 2], [1, 2])] += np.linalg.inv(s[np.ix_([1, 2], [1, 2])])
            want[1, 1] -= 1.0 / s[1, 1]
            assert np.abs(res.psi.values - want).max() < 1e-8


class TestSolverBehavior:
    def test_result_is_positive_definite(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            s = random_scatter(6, rng)
            res = constrained_mle.fit(s, random_edges(6, rng))
            assert np.linalg.eigvalsh(res.psi.values).min() > 0.0

    def test_warm_start_same_answer(self):
        rng = np.random.default_rng(36)
        s = random_scatter(7, rng)
        edges = random_edges(7, rng)
        cold = constrained_mle.fit(s, edges)
        warm = constrained_mle.fit(s, edges, w_init=cold.covariance)
        assert warm.sweeps <= cold.sweeps
        assert np.abs(cold.psi.values - warm.psi.values).max() < 1e-8

    def test_diagonal_of_working_covariance_matches_scatter(self):
        rng = np.random.default_rng(37)
        s = random_scatter(5, rng)
        res = constrained_mle.fit(s, random_edges(5, rng))
        assert np.array_equal(np.diag(res.covariance), np.diag(s))

    def test_kkt_residual_reported(self):
        rng = np.random.default_rng(38)
        s = random_scatter(5, rng)
        res = constrained_mle.fit(s, random_edges(5, rng))
        assert res.kkt_residual <= 1e-6 * np.abs(s).max()

    def test_kkt_residual_is_the_inverse_gap(self):
        # W matches S on the pattern after every sweep, so only the inverse
        # of the recovered precision shows how far the fit is from optimal
        rng = np.random.default_rng(41)
        for _ in range(30):
            p = int(rng.integers(3, 15))
            s = random_scatter(p, rng)
            edges = random_edges(p, rng)
            res = constrained_mle.fit(s, edges)
            mask = edges.to_adjacency() | np.eye(p, dtype=bool)
            gap = np.abs(np.linalg.inv(res.psi.values) - s)[mask].max()
            assert res.kkt_residual == pytest.approx(gap, rel=1e-6)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.floats(-4.0, 2.0))
    def test_independent_of_data_units(self, seed, p, log_c):
        rng = np.random.default_rng(seed)
        s = random_scatter(p, rng)
        edges = random_edges(p, rng, q=float(rng.uniform(0.1, 0.9)))
        c = 10.0**log_c
        base = constrained_mle.fit(s, edges)
        scaled = constrained_mle.fit(c * s, edges)
        assert scaled.sweeps == base.sweeps
        assert np.array_equal(scaled.psi.values == 0.0, base.psi.values == 0.0)
        tol = 1e-12 * np.abs(base.psi.values).max()
        assert np.abs(c * scaled.psi.values - base.psi.values).max() <= tol
        # the gap scales with the data, up to rounding in the units of S
        assert abs(scaled.kkt_residual / c - base.kkt_residual) <= 1e-13 * np.abs(s).max()


class TestErrors:
    def test_nonpositive_diagonal_rejected(self):
        s = np.eye(3)
        s[1, 1] = 0.0
        with pytest.raises(DomainError):
            constrained_mle.fit(s, EdgeSet(3))

    def test_p_mismatch(self):
        with pytest.raises(EstimationError):
            constrained_mle.fit(np.eye(3), EdgeSet(4))

    def test_degenerate_scatter_with_full_pattern_fails(self):
        # rank-1 scatter cannot support a complete pattern
        v = np.arange(1.0, 5.0)
        s = np.outer(v, v)
        with pytest.raises(EstimationError):
            constrained_mle.fit(s, EdgeSet.from_adjacency(~np.eye(4, dtype=bool)))

    def test_sweep_cap_raises(self, monkeypatch):
        rng = np.random.default_rng(39)
        s = random_scatter(8, rng)
        monkeypatch.setattr(constrained_mle, "MAX_SWEEPS", 0)
        with pytest.raises(EstimationError, match="converge"):
            constrained_mle.fit(s, random_edges(8, rng, q=0.6))

    def test_sweep_cap_names_the_mean_change(self, monkeypatch):
        rng = np.random.default_rng(39)
        s = random_scatter(8, rng)
        edges = random_edges(8, rng, q=0.6)
        assert constrained_mle.fit(s, edges).sweeps > 2
        monkeypatch.setattr(constrained_mle, "MAX_SWEEPS", 2)
        w_tol = constrained_mle.W_TOL_SCALE * np.abs(s).mean()
        with pytest.raises(EstimationError,
                           match=rf"in 2 iterations \(mean change \d\.\d{{3}}e[-+]\d+, "
                                 rf"tolerance {w_tol:.3e}\)"):
            constrained_mle.fit(s, edges)


class TestNeighborKernel:
    """fit against the full-block LU sweep in tests/cmle_reference.py.

    Only the summation order of the column products and the solver of the
    neighbor blocks differ, so sweep counts and exact-zero patterns must
    match exactly and psi to 1e-12 times max|psi|.
    """

    @staticmethod
    def assert_matches(s, edges, w_init=None):
        want = reference_fit(s, edges, w_init=w_init)
        got = constrained_mle.fit(s, edges, w_init=w_init)
        assert got.sweeps == want.sweeps
        assert np.array_equal(got.psi.values == 0.0, want.psi.values == 0.0)
        tol = 1e-12 * np.abs(want.psi.values).max()
        assert np.abs(got.psi.values - want.psi.values).max() <= tol
        return want

    @pytest.mark.parametrize("p", [2, 3, 10, 60])
    def test_matches_full_block_reference(self, p):
        rng = np.random.default_rng(60 + p)
        for _ in range(3):
            s = random_scatter(p, rng)
            for edges in (EdgeSet(p), EdgeSet.from_adjacency(~np.eye(p, dtype=bool)),
                          random_edges(p, rng, q=0.1), random_edges(p, rng, q=0.4)):
                want = self.assert_matches(s, edges)
                # warm start from the converged covariance of a nearby scatter
                nearby = s + 0.05 * random_scatter(p, rng)
                self.assert_matches(nearby, edges, w_init=want.covariance)

    def test_same_errors_as_reference(self, monkeypatch):
        v = np.arange(1.0, 5.0)
        cases = [
            (np.outer(v, v), EdgeSet.from_adjacency(~np.eye(4, dtype=bool)),
             constrained_mle.MAX_SWEEPS),
            (random_scatter(8, np.random.default_rng(39)),
             random_edges(8, np.random.default_rng(40), q=0.6), 0),
        ]
        for s, edges, cap in cases:
            monkeypatch.setattr(constrained_mle, "MAX_SWEEPS", cap)
            with pytest.raises(EstimationError) as want:
                reference_fit(s, edges, max_sweeps=cap)
            with pytest.raises(EstimationError) as got:
                constrained_mle.fit(s, edges)
            assert type(got.value) is type(want.value)
