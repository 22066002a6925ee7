import gc
import hashlib
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmle_reference import reference_fit
from parcornet import constrained_mle
from parcornet.elastic_net import PenaltyConfig
from parcornet.em import EMConfig
from parcornet.errors import DomainError, EstimationError, ShapeError
from parcornet.matrices import EdgeSet
from parcornet.netgen import TopologySpec, generate_precision
from parcornet.samplers import DistributionSpec, sample, spawned_rng
from parcornet.selection import build_grid, select


def random_scatter(p, rng):
    a = rng.standard_normal((2 * p, p))
    s = a.T @ a / (2 * p)
    return 0.5 * (s + s.T)


def random_edges(p, rng, q=0.4):
    pairs = [(j, k) for j in range(p) for k in range(j + 1, p) if rng.random() < q]
    return EdgeSet.from_pairs(p, pairs)


def complete_edges(p):
    return EdgeSet(p, np.argwhere(np.triu(np.ones((p, p), dtype=bool), 1)))


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
        res = constrained_mle.fit(s, complete_edges(5))
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

    def test_reversed_and_repeated_pairs_fit_bit_for_bit(self):
        # the neighbour lists come from the adjacency, so the order and
        # orientation in which the pairs were given cannot change a sweep
        rng = np.random.default_rng(42)
        for p, pairs in ((3, [(1, 0), (0, 1), (2, 1)]),
                         (10, [(j, k) for j in range(10) for k in range(j + 1, 10)
                               if rng.random() < 0.4])):
            s = random_scatter(p, rng)
            messy = [(k, j) for j, k in pairs] + pairs[::2]
            rng.shuffle(messy)
            canonical = sorted({(min(e), max(e)) for e in pairs})
            want = constrained_mle.fit(s, EdgeSet.from_pairs(p, canonical))
            got = constrained_mle.fit(s, EdgeSet.from_pairs(p, messy))
            assert np.array_equal(got.psi.values, want.psi.values)
            assert np.array_equal(got.covariance, want.covariance)
            assert got.sweeps == want.sweeps

    def test_inputs_are_not_written(self):
        # the sweeps write W through row and column views, so W must be a copy
        rng = np.random.default_rng(43)
        s = random_scatter(6, rng)
        edges = random_edges(6, rng, q=0.5)
        s_before = s.copy()
        cold = constrained_mle.fit(s, edges)
        w_init = cold.covariance + 0.01 * np.eye(6)
        w_before = w_init.copy()
        warm = constrained_mle.fit(s, edges, w_init=w_init)
        assert np.array_equal(s, s_before)
        assert np.array_equal(w_init, w_before)
        assert not np.shares_memory(warm.covariance, w_init)

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
            assert res.kkt_residual == gap

    def test_kkt_residual_is_computed_on_read(self, monkeypatch):
        # the fit itself inverts nothing; the first read does, and a second
        # read gives the same float without inverting again
        rng = np.random.default_rng(46)
        s = random_scatter(7, rng)
        edges = random_edges(7, rng)
        inverted = []
        real_inv = np.linalg.inv

        def counting_inv(a):
            inverted.append(a)
            return real_inv(a)

        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        res = constrained_mle.fit(s, edges)
        constrained_mle.fit(s, edges, w_init=res.covariance)
        assert inverted == []
        first = res.kkt_residual
        assert len(inverted) == 1 and inverted[0] is res.psi.values
        assert res.kkt_residual == first and len(inverted) == 1

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
        with pytest.raises(EstimationError, match=r"^edge set has p=4, scatter has p=3$"):
            constrained_mle.fit(np.eye(3), EdgeSet(4))

    def test_one_by_one_scatter_rejected_up_front(self):
        with pytest.raises(ShapeError, match=r"^constrained fit needs a p x p scatter with "
                                             r"p >= 2, got 1 x 1$"):
            constrained_mle.fit(2.0 * np.eye(1), EdgeSet(1))

    def test_w_init_shape_named(self):
        with pytest.raises(EstimationError, match=r"^w_init must have shape \(3,3\)$"):
            constrained_mle.fit(np.eye(3), EdgeSet(3), w_init=np.eye(4))

    @pytest.mark.parametrize("seed, message", [
        (0, r"^recovered precision is not positive definite: "
            r"precision matrix is not positive definite$"),
        (3, r"^nonpositive partial variance at node 0: -?\d\.\d{3}e[-+]\d+$"),
    ])
    def test_collinear_scatter_fails_in_recovery(self, seed, message):
        # d = a + b - c makes the scatter singular, but any three of the four
        # columns are independent, so every neighbor block of the complete
        # pattern is positive definite, the sweeps converge and the recovery fails
        a, b, c = np.random.default_rng(seed).integers(-5, 6, size=(60, 3)).T
        x = np.column_stack([a, b, c, a + b - c]).astype(float)
        with pytest.raises(EstimationError, match=message):
            constrained_mle.fit(x.T @ x / 60, complete_edges(4))

    def test_degenerate_scatter_with_full_pattern_fails(self):
        # rank-1 scatter cannot support a complete pattern
        v = np.arange(1.0, 5.0)
        s = np.outer(v, v)
        with pytest.raises(EstimationError,
                           match=r"^edge subproblem at node 0, sweep 1 is singular or not "
                                 r"positive definite$"):
            constrained_mle.fit(s, complete_edges(4))

    def test_non_finite_column_names_its_node(self):
        # node 0's column picks up the inf in row 1; node 2's neighbor block
        # would read it in the same sweep, but the error names node 0
        a = np.random.default_rng(0).standard_normal((12, 4))
        s = a.T @ a / 12
        s = 0.5 * (s + s.T)
        w = s.copy()
        w[1, 3] = w[3, 1] = np.inf
        edges = EdgeSet.from_pairs(4, [(0, 1), (0, 2), (2, 3)])
        with pytest.raises(EstimationError, match=r"^non-finite column update at node 0, sweep 1$"):
            constrained_mle.fit(s, edges, w_init=w)

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


class TestStepwise:
    """fit_stepwise driven to its end is fit: the same bytes, sweep count,
    KKT residual and error, on fits that converge, start warm, hit the
    sweep cap, or fail in a sweep, in the recovery or up front."""

    @staticmethod
    def battery():
        rng = np.random.default_rng(44)
        for p in (2, 3, 10, 60):
            s = random_scatter(p, rng)
            for edges in (EdgeSet(p), complete_edges(p), random_edges(p, rng)):
                yield s, edges, None, None
                warm = constrained_mle.fit(s, edges).covariance
                yield s + 0.05 * random_scatter(p, rng), edges, warm, None
        v = np.arange(1.0, 5.0)
        yield np.outer(v, v), complete_edges(4), None, None  # singular at node 0, sweep 1
        capped = random_scatter(8, np.random.default_rng(39))
        yield capped, random_edges(8, np.random.default_rng(40), q=0.6), None, 2
        yield capped, random_edges(8, np.random.default_rng(40), q=0.6), None, 0
        for seed in (0, 3):  # singular scatters that fail in the recovery
            a, b, c = np.random.default_rng(seed).integers(-5, 6, size=(60, 3)).T
            x = np.column_stack([a, b, c, a + b - c]).astype(float)
            yield x.T @ x / 60, complete_edges(4), None, None
        w = np.eye(4)
        w[1, 3] = w[3, 1] = np.inf  # a non-finite column update
        yield 2.0 * np.eye(4), EdgeSet.from_pairs(4, [(0, 1), (0, 2), (2, 3)]), w, None
        yield 2.0 * np.eye(1), EdgeSet(1), None, None
        yield np.eye(3), EdgeSet(4), None, None
        yield np.eye(3), EdgeSet(3), np.eye(4), None
        yield np.diag([1.0, 0.0, 1.0]), EdgeSet(3), None, None

    @staticmethod
    def run(call):
        try:
            return call()
        except (DomainError, EstimationError, ShapeError) as exc:
            return exc

    def test_stepping_to_the_end_equals_fit(self, monkeypatch):
        outcomes = set()
        default_cap = constrained_mle.MAX_SWEEPS
        for s, edges, w_init, cap in self.battery():
            monkeypatch.setattr(constrained_mle, "MAX_SWEEPS", default_cap if cap is None else cap)
            want = self.run(lambda: constrained_mle.fit(s, edges, w_init=w_init))
            stepper = constrained_mle.fit_stepwise(s, edges, w_init)
            err_state = np.geterr()
            yielded = []

            def drive():
                while True:
                    try:
                        with np.errstate(all="ignore"):  # as fit and em run each step
                            w = next(stepper)
                    except StopIteration as done:
                        return done.value
                    # a suspended fit leaves the caller's numpy error state as it
                    # was, and W is read-only
                    assert np.geterr() == err_state
                    assert not w.flags.writeable
                    yielded.append(w.copy())

            got = self.run(drive)
            outcomes.add(type(got).__name__)
            if isinstance(want, Exception):
                assert (type(got), str(got)) == (type(want), str(want))
                continue
            assert np.array_equal(got.psi.values, want.psi.values)
            assert np.array_equal(got.covariance, want.covariance)
            assert (got.sweeps, got.kkt_residual) == (want.sweeps, want.kkt_residual)
            # a yield after every sweep but the last, each W matching S on the diagonal
            assert len(yielded) == got.sweeps - 1
            assert all(np.array_equal(np.diag(w), np.diag(s)) for w in yielded)
        assert outcomes == {"ConstrainedMLEResult", "DomainError", "EstimationError",
                            "ShapeError"}


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
            # the star gives node 0 a (p-1) x (p-1) block; the complete pattern
            # less a few pairs is the near-complete shape of small lambdas
            complete = list(complete_edges(p))
            dropped = rng.choice(len(complete), size=min(3, len(complete) - 1), replace=False)
            near_complete = EdgeSet(p, np.delete(complete, dropped, axis=0))
            star = EdgeSet.from_pairs(p, [(0, k) for k in range(1, p)])
            for edges in (EdgeSet(p), complete_edges(p), random_edges(p, rng, q=0.1),
                          random_edges(p, rng, q=0.4), star, near_complete):
                want = self.assert_matches(s, edges)
                # warm start from the converged covariance of a nearby scatter
                nearby = s + 0.05 * random_scatter(p, rng)
                self.assert_matches(nearby, edges, w_init=want.covariance)

    def test_same_errors_as_reference(self, monkeypatch):
        v = np.arange(1.0, 5.0)
        cases = [
            (np.outer(v, v), complete_edges(4),
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


def fit_bytes(res):
    """The psi and covariance bytes, sweep count and KKT residual of a fit."""
    tail = f"{res.sweeps} {res.kkt_residual.hex()};".encode()
    return res.psi.values.tobytes() + res.covariance.tobytes() + tail


# (fits, total sweeps) and sha256 of the fit_bytes of TestPinnedFits' two batteries
PINNED_BATTERY_SHAPE = (88, 229)
PINNED_BATTERY_DIGEST = "3fa74d0d5273c773881862ac376919608affaa2045a3c726c94398e64c3b21bc"
PINNED_SELECT_CHOSEN = 2
PINNED_SELECT_SHAPE = (35, 104)
PINNED_SELECT_DIGEST = "c04f80d87c53114711c434d57f118ef3eafa97feb696c50bfa1d49be60d614de"


class TestPinnedFits:
    """Stage 2's exact output on fixed inputs: a change to stage 2 that
    moves one bit of psi, W, a sweep count or the KKT residual fails here.
    The bytes are those of the pinned numpy and OpenBLAS."""

    def test_cold_and_warm_fits_from_p2_to_p12(self):
        rng = np.random.default_rng(45)
        fits = []
        for p in range(2, 13):
            s = random_scatter(p, rng)
            # the empty pattern isolates every node, the sparse random one some
            for edges in (EdgeSet(p), complete_edges(p), random_edges(p, rng, q=0.25),
                          random_edges(p, rng, q=0.6)):
                cold = constrained_mle.fit(s, edges)
                warm = constrained_mle.fit(s + 0.05 * random_scatter(p, rng), edges,
                                           w_init=cold.covariance)
                fits += [cold, warm]
        assert (len(fits), sum(f.sweeps for f in fits)) == PINNED_BATTERY_SHAPE
        assert hashlib.sha256(b"".join(map(fit_bytes, fits))).hexdigest() == PINNED_BATTERY_DIGEST

    def test_fits_of_a_t_mode_select(self, monkeypatch):
        real = constrained_mle.fit
        digest = hashlib.sha256()
        sweeps, results = [], []

        def capture(scatter, edges, w_init=None):
            out = real(scatter, edges, w_init)
            digest.update(fit_bytes(out))
            sweeps.append(out.sweeps)
            results.append(weakref.ref(out))
            return out

        monkeypatch.setattr(constrained_mle, "fit", capture)
        _, theta = generate_precision(TopologySpec("scale-free", 8, seed=7))
        data = sample(theta, 150, DistributionSpec("t", nu=4.0), spawned_rng(5, 0))
        grid = build_grid(0.05, 0.8, 5)
        report = select(data, grid, EMConfig(PenaltyConfig(0.5, grid.lo), mode="t", nu=4.0))
        assert report.chosen_index == PINNED_SELECT_CHOSEN
        assert (len(sweeps), sum(sweeps)) == PINNED_SELECT_SHAPE
        assert digest.hexdigest() == PINNED_SELECT_DIGEST
        # a result holds its scatter for kkt_residual, so none may outlive
        # select inside the report
        gc.collect()
        assert all(ref() is None for ref in results)
