import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parcornet.errors import DataError, DomainError, ShapeError
from parcornet.matrices import (
    Dataset,
    EdgeSet,
    PartialCorrelationMatrix,
    PrecisionMatrix,
    is_positive_definite,
    precision_to_partial_correlation,
    symmetrize,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def random_pd(p, rng, cond=None):
    a = rng.standard_normal((p, p))
    m = a @ a.T + p * np.eye(p)
    return 0.5 * (m + m.T)


class TestSymmetrize:
    def test_small_asymmetry_is_averaged(self):
        m = np.array([[1.0, 0.5 + 1e-10], [0.5, 2.0]])
        out = symmetrize(m)
        assert np.array_equal(out, out.T)
        assert out[0, 1] == pytest.approx(0.5 + 5e-11)
        assert out.tobytes() == (0.5 * (m + m.T)).tobytes()

    def test_exactly_symmetric_input_keeps_the_bits_of_the_average(self):
        # including signed zeros and subnormals; the copy is a new array
        rng = np.random.default_rng(7)
        a = rng.standard_normal((9, 9)) * 10.0 ** rng.integers(-300, 300, size=(9, 9))
        a = 0.5 * (a + a.T)
        a[0, 1] = a[1, 0] = -0.0
        a[2, 3] = a[3, 2] = 5e-324
        out = symmetrize(a)
        assert out.tobytes() == (0.5 * (a + a.T)).tobytes()
        assert not np.shares_memory(out, a)
        # mixed signed zeros are equal but not the same bits: they are averaged to +0.0
        b = np.eye(3)
        b[0, 1], b[1, 0] = 0.0, -0.0
        assert symmetrize(b).tobytes() == (0.5 * (b + b.T)).tobytes()

    def test_exactly_symmetric_entries_past_half_the_float_range_are_kept(self):
        # the one input whose bits differ from the average's: 2 * x overflowed to inf
        big = np.finfo(float).max
        m = np.array([[big, 1.0], [1.0, big]])
        assert np.array_equal(symmetrize(m), m)
        with np.errstate(over="ignore"):
            assert np.isinf(0.5 * (m + m.T)).all(where=np.eye(2, dtype=bool))

    def test_large_asymmetry_rejected(self):
        m = np.array([[1.0, 0.6], [0.5, 2.0]])
        with pytest.raises(ShapeError):
            symmetrize(m)

    def test_nonsquare_rejected(self):
        with pytest.raises(ShapeError):
            symmetrize(np.ones((2, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            symmetrize(np.array([[1.0, np.nan], [np.nan, 1.0]]))


class TestIsPositiveDefinite:
    def test_pd(self):
        assert is_positive_definite(np.array([[2.0, 1.0], [1.0, 2.0]]))

    def test_indefinite(self):
        assert not is_positive_definite(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_semidefinite(self):
        assert not is_positive_definite(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_random_pd(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert is_positive_definite(random_pd(6, rng))


class TestPrecisionMatrix:
    def test_stores_symmetrized_readonly(self):
        theta = PrecisionMatrix(np.array([[2.0, 0.5], [0.5, 1.0]]))
        assert theta.p == 2
        assert not theta.values.flags.writeable

    def test_rejects_non_pd(self):
        with pytest.raises(DomainError):
            PrecisionMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_1x1(self):
        with pytest.raises(ShapeError):
            PrecisionMatrix(np.array([[1.0]]))


class TestPartialCorrelationMatrix:
    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(DomainError):
            PartialCorrelationMatrix(np.array([[1e-8, 0.2], [0.2, 0.0]]))

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            PartialCorrelationMatrix(np.array([[0.0, 1.1], [1.1, 0.0]]))

    def test_clips_roundoff_overshoot(self):
        v = 1.0 + 1e-12
        pc = PartialCorrelationMatrix(np.array([[0.0, v], [v, 0.0]]))
        assert pc.values[0, 1] == 1.0

    def test_edge_set_is_nonzero_pattern(self):
        vals = np.zeros((3, 3))
        vals[0, 1] = vals[1, 0] = 0.4
        pc = PartialCorrelationMatrix(vals)
        assert sorted(pc.edge_set().pairs) == [(0, 1)]


class TestPrecisionToPartialCorrelation:
    def test_2x2_closed_form(self):
        pc = precision_to_partial_correlation(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        assert pc.values[0, 1] == pytest.approx(0.5, abs=1e-15)
        assert pc.values[0, 0] == 0.0

    def test_formula_matches_direct_computation(self):
        rng = np.random.default_rng(1)
        theta = random_pd(7, rng)
        pc = precision_to_partial_correlation(theta)
        for j in range(7):
            for k in range(7):
                if j == k:
                    assert pc.values[j, k] == 0.0
                else:
                    want = -theta[j, k] / np.sqrt(theta[j, j] * theta[k, k])
                    assert pc.values[j, k] == pytest.approx(want, abs=1e-14)

    def test_diagonal_scaling_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            theta = random_pd(5, rng)
            d = np.exp(rng.uniform(-2, 2, size=5))
            scaled = np.outer(d, d) * theta
            a = precision_to_partial_correlation(theta).values
            b = precision_to_partial_correlation(scaled).values
            assert np.abs(a - b).max() < 1e-12

    @settings(deadline=None)
    @given(st.data())
    def test_diagonal_scaling_invariance_property(self, data):
        p = data.draw(st.integers(2, 6))
        entry = st.floats(-1.0, 1.0, allow_subnormal=False)
        a = np.array(data.draw(st.lists(entry, min_size=p * p, max_size=p * p))).reshape(p, p)
        theta = a @ a.T + p * np.eye(p)
        d = np.array(data.draw(st.lists(st.floats(0.05, 20.0), min_size=p, max_size=p)))
        want = precision_to_partial_correlation(theta).values
        got = precision_to_partial_correlation(np.outer(d, d) * theta).values
        assert np.abs(got - want).max() < 1e-12

    def test_rejects_nonpositive_diagonal(self):
        m = np.array([[0.0, 0.1], [0.1, 1.0]])
        with pytest.raises(DomainError, match="index 0"):
            precision_to_partial_correlation(m)


class TestErrorMessages:
    """Every validation error keeps its type and its exact text."""

    @pytest.mark.parametrize("build, exc, message", [
        (lambda: symmetrize(np.ones((2, 3)), "scatter matrix"), ShapeError,
         "scatter matrix must be a square 2-d array, got shape (2, 3)"),
        (lambda: symmetrize(np.ones(3)), ShapeError,
         "matrix must be a square 2-d array, got shape (3,)"),
        (lambda: symmetrize(np.array([[1.0, np.inf], [np.inf, 1.0]])), DataError,
         "matrix contains non-finite entries"),
        (lambda: symmetrize(np.array([[1.0, 0.6], [0.5, 2.0]]), "w"), ShapeError,
         "w is not symmetric: max asymmetry 1.000e-01 exceeds 1e-08 relative tolerance"),
        (lambda: PrecisionMatrix(np.array([[1.0, 2.0], [2.0, 1.0]])), DomainError,
         "precision matrix is not positive definite"),
        (lambda: PrecisionMatrix(np.array([[1.0, np.nan], [np.nan, 1.0]])), DataError,
         "precision matrix contains non-finite entries"),
        (lambda: PrecisionMatrix(np.array([[1.0, 0.6], [0.5, 2.0]])), ShapeError,
         "precision matrix is not symmetric: max asymmetry 1.000e-01 exceeds 1e-08 "
         "relative tolerance"),
        (lambda: PrecisionMatrix(np.ones((2, 3))), ShapeError,
         "precision matrix must be a square 2-d array, got shape (2, 3)"),
        (lambda: PrecisionMatrix(np.array([[1.0]])), ShapeError,
         "precision matrix needs dimension >= 2"),
        (lambda: EdgeSet(3, [(0, 1), (2, 2), (0, 5)]), DomainError,
         "self loop (2,2) not allowed"),
        (lambda: EdgeSet(3, [(0, 5), (-1, -1)]), DomainError,
         "self loop (-1,-1) not allowed"),
        (lambda: EdgeSet(3, [(1, 0), (3, 1), (0, -1)]), DomainError,
         "edge (3,1) out of range for p=3"),
        (lambda: EdgeSet(4, np.array([[0, -1]])), DomainError,
         "edge (0,-1) out of range for p=4"),
        (lambda: EdgeSet(4, np.array([[0, 1, 2]])), ShapeError,
         "edges must be node pairs, got an array of shape (1, 3)"),
        (lambda: EdgeSet(4, [0, 1]), ShapeError,
         "edges must be node pairs, got an array of shape (2,)"),
        (lambda: EdgeSet(0), ShapeError, "EdgeSet needs p >= 1"),
    ])
    def test_type_and_text(self, build, exc, message):
        with pytest.raises(exc) as err:
            build()
        assert type(err.value) is exc and str(err.value) == message


def canonical_pairs(p, ends):
    """EdgeSet's canonicalization as a loop over the pairs: the first self
    loop is an error, then the first pair out of range, else the set of
    (min, max) pairs."""
    for j, k in ends:
        if j == k:
            raise DomainError(f"self loop ({j},{k}) not allowed")
    for j, k in ends:
        if not (0 <= j < p and 0 <= k < p):
            raise DomainError(f"edge ({j},{k}) out of range for p={p}")
    return frozenset((min(j, k), max(j, k)) for j, k in ends)


def loop_adjacency(edges):
    """EdgeSet.to_adjacency as a loop over the pairs."""
    adj = np.zeros(edges.p * edges.p, dtype=bool)
    adj[[j * edges.p + k for j, k in edges.pairs]] = True
    adj = adj.reshape(edges.p, edges.p)
    return adj | adj.T


class TestEdgeSet:
    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 8).flatmap(lambda p: st.tuples(
        st.just(p),
        st.lists(st.tuples(st.integers(-1, p), st.integers(-1, p)), max_size=12),
        st.floats(0.0, 1.0),
        st.randoms(use_true_random=False))))
    def test_pairs_match_the_loop_canonicalization(self, case):
        # arrays and lists of pairs, with reversed and repeated pairs, and
        # mostly valid ones, so that a fault is often one pair among many
        p, ends, keep, rng = case
        valid = [(j, k) for j, k in ends if j != k and 0 <= j < p and 0 <= k < p]
        for pairs in (ends, valid + [(k, j) for j, k in valid][: int(keep * len(valid))]):
            try:
                want = canonical_pairs(p, pairs)
            except DomainError as exc:
                # the error names a pair by its place in the input
                for given_as in (pairs, np.array(pairs, dtype=np.int64).reshape(-1, 2)):
                    with pytest.raises(DomainError) as err:
                        EdgeSet(p, given_as)
                    assert str(err.value) == str(exc)
                continue
            # the same pairs in any order, either way round and repeated or not,
            # make one edge set, which reads as the frozenset reference does
            shuffled = [(k, j) if rng.random() < 0.5 else (j, k)
                        for j, k in rng.sample(pairs, len(pairs))]
            orders = (pairs, pairs[::-1], shuffled, sorted(want))
            built = [EdgeSet(p, o) for o in orders]
            built += [EdgeSet(p, np.array(o, dtype=np.int64).reshape(-1, 2)) for o in orders]
            adj = loop_adjacency(built[0])
            for e in built:
                assert e == built[0] and hash(e) == hash(built[0])
                assert e.pairs == want and len(e) == len(want)
                assert all(type(j) is int and type(k) is int for j, k in e.pairs)
                assert list(e) == sorted(want)
                for a in range(-1, p + 1):
                    for b in range(-1, p + 1):
                        assert ((a, b) in e) == ((min(a, b), max(a, b)) in want)
                assert np.array_equal(e.to_adjacency(), adj)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(1, 12).flatmap(lambda p: st.tuples(
        st.just(p), st.lists(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)), max_size=40))))
    def test_adjacency_matches_the_loop_version(self, case):
        p, ends = case
        e = EdgeSet(p, [(j, k) for j, k in ends if j != k])
        adj = e.to_adjacency()
        assert adj.dtype == bool and adj.shape == (p, p)
        assert np.array_equal(adj, loop_adjacency(e))
        # stage 2's neighbor lists are the adjacency's nonzeros, row by row
        rows, cols = e.neighbor_lists()
        want_rows, want_cols = np.nonzero(loop_adjacency(e))
        assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)

    def test_canonical_ordering_and_contains(self):
        e = EdgeSet.from_pairs(4, [(2, 0), (1, 3)])
        assert (0, 2) in e and (2, 0) in e
        assert list(e) == [(0, 2), (1, 3)]

    def test_rejects_self_loop(self):
        with pytest.raises(DomainError):
            EdgeSet.from_pairs(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            EdgeSet.from_pairs(3, [(0, 3)])

    def test_adjacency_round_trip(self):
        e = EdgeSet.from_pairs(5, [(0, 1), (2, 4)])
        assert EdgeSet(5, np.argwhere(np.triu(e.to_adjacency(), 1))) == e

    def test_complete_and_empty(self):
        assert len(EdgeSet(5)) == 0

    def test_index_array_pairs(self):
        # an (m, 2) index array is stored as the same canonical tuples
        e = EdgeSet(5, np.array([[3, 1], [0, 4], [1, 3]]))
        assert e == EdgeSet.from_pairs(5, [(1, 3), (0, 4)])
        assert all(type(j) is int and type(k) is int for j, k in e.pairs)
        with pytest.raises(DomainError, match=r"self loop \(2,2\)"):
            EdgeSet(4, np.array([[0, 1], [2, 2]]))
        with pytest.raises(DomainError, match=r"edge \(0,-1\) out of range"):
            EdgeSet(4, np.array([[0, -1]]))
        with pytest.raises(ShapeError):
            EdgeSet(4, np.array([[0, 1, 2]]))

    def test_reversed_and_repeated_pairs_collapse_to_one_pair(self):
        # reversed and repeated input pairs are one canonical (j, k) pair each,
        # with the adjacency of the canonical pairs
        want = EdgeSet(4, [(0, 1), (0, 3), (1, 2)])
        for pairs in ([(0, 1), (1, 0), (1, 2), (3, 0)], [(2, 1), (0, 3), (1, 0), (0, 1), (2, 1)],
                      np.array([[1, 2], [3, 0], [1, 0], [0, 3]])):
            e = EdgeSet(4, pairs)
            assert e == want and len(e) == 3
            assert np.array_equal(e.to_adjacency(), want.to_adjacency())

    def test_pairs_past_the_range_of_one_flat_index(self):
        # at p = 2**33 a pair taken as one index j * p + k would wrap int64
        p = 2**33
        e = EdgeSet(p, [(2**32, p - 1), (0, 1)])
        same = EdgeSet(p, [(1, 0), (p - 1, 2**32)])
        assert e == same and hash(e) == hash(same)
        assert len(e) == 2 and list(e) == [(0, 1), (2**32, p - 1)]
        assert (2**32, p - 1) in e and (p - 1, 2**32) in same and (0, 1) in e
        assert (0, p - 1) not in e and (1, 2**32) not in e and (0, 2**32) not in e
        assert e.pairs == same.pairs == frozenset({(0, 1), (2**32, p - 1)})
        assert e != EdgeSet(p + 1, [(0, 1), (2**32, p - 1)])

    def test_survives_pickle_and_deepcopy(self):
        e = EdgeSet(6, [(4, 1), (0, 5), (2, 3), (1, 4)])
        for copied in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e), copy.copy(e)):
            assert copied == e and hash(copied) == hash(e)
            assert copied.pairs == e.pairs and list(copied) == list(e)
            assert np.array_equal(copied.to_adjacency(), e.to_adjacency())
            with pytest.raises(AttributeError):
                copied.p = 7
        assert pickle.loads(pickle.dumps(EdgeSet(3))) == EdgeSet(3)

    def test_unpickled_in_another_process_hashes_as_one_built_there(self):
        # bytes hash differently in each interpreter, so a hash kept from
        # before pickling would be stale in the process that loads it
        e = EdgeSet(6, [(4, 1), (0, 5)])
        assert {e: 1}[EdgeSet(6, [(0, 5), (1, 4)])] == 1
        code = ("import pickle, sys\nfrom parcornet.matrices import EdgeSet\n"
                "e = pickle.loads(sys.stdin.buffer.read())\n"
                "assert {e: 1}[EdgeSet(6, [(0, 5), (1, 4)])] == 1\n")
        subprocess.run([sys.executable, "-c", code], input=pickle.dumps(e), check=True,
                       env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="random"))

    def test_random_adjacency_round_trip(self):
        rng = np.random.default_rng(3)
        adj = np.triu(rng.random((30, 30)) < 0.4, k=1)
        adj |= adj.T
        e = EdgeSet(30, np.argwhere(np.triu(adj, 1)))
        assert e.pairs == {(j, k) for j in range(30) for k in range(j + 1, 30) if adj[j, k]}
        assert np.array_equal(e.to_adjacency(), adj)


class TestDataset:
    def test_rejects_nonfinite(self):
        with pytest.raises(DataError):
            Dataset(np.array([[1.0, 2.0], [np.inf, 0.0]]))

    def test_rejects_single_row(self):
        with pytest.raises(ShapeError):
            Dataset(np.ones((1, 3)))

    def test_names_length_checked(self):
        with pytest.raises(ShapeError):
            Dataset(np.ones((2, 2)), names=("a",))

    def test_csv_round_trip_with_names(self):
        x = np.array([[1.25, -3.5], [0.0, 2.0], [1e-7, 4.0]])
        back = Dataset.from_csv_text("alpha,beta\n1.25,-3.5\n0,2\n1e-07,4\n")
        assert back.names == ("alpha", "beta")
        assert np.array_equal(back.values, x)

    def test_csv_headerless(self):
        back = Dataset.from_csv_text("1.0,2.0\n3.0,4.0\n")
        assert back.names is None
        assert np.array_equal(back.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_csv_bad_cell(self):
        with pytest.raises(DataError):
            Dataset.from_csv_text("a,b\n1.0,2.0\n1.0,oops\n")
