import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parcornet import elastic_net
from parcornet.elastic_net import PenaltyConfig, solve_gram
from parcornet.errors import ConfigError, ShapeError
from parcornet.neighborhood import select_edges


def block_data(n, rng):
    # two independent pairs of strongly coupled columns
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    return np.column_stack([
        z1, z1 + 0.3 * rng.standard_normal(n),
        z2, z2 + 0.3 * rng.standard_normal(n),
    ])


def centered_gram(x):
    xc = x - x.mean(axis=0)
    return xc.T @ xc / x.shape[0]


def chosen(gram, pen):
    """chosen[k, j]: node j's regression gives node k a nonzero coefficient."""
    return solve_gram(gram, np.arange(gram.shape[0]), pen).coefficients != 0.0


class TestAssembleEdges:
    """The AND/OR join of the per-node supports into undirected edges."""

    def test_and_requires_both_directions(self):
        # unequal column scales: some node selects another that does not select it back
        x = np.random.default_rng(28).standard_normal((30, 6)) * np.arange(0.5, 3.5, 0.5)
        gram = centered_gram(x)
        pen = PenaltyConfig(1.0, 0.2)
        c = chosen(gram, pen)
        one_way = [(j, k) for j in range(6) for k in range(j + 1, 6) if c[k, j] != c[j, k]]
        assert one_way
        e_and, e_or = select_edges(gram, pen, "and"), select_edges(gram, pen, "or")
        for pair in one_way:
            assert pair in e_or and pair not in e_and

    def test_mutual_edge_kept_by_both(self):
        gram = centered_gram(block_data(400, np.random.default_rng(22)))
        pen = PenaltyConfig(1.0, 0.1)
        assert chosen(gram, pen)[1, 0] and chosen(gram, pen)[0, 1]
        assert (0, 1) in select_edges(gram, pen, "and")
        assert (0, 1) in select_edges(gram, pen, "or")

    def test_rule_validation(self):
        with pytest.raises(ConfigError):
            select_edges(np.eye(3), PenaltyConfig(0.5, 0.1), "xor")

    def test_rule_case_insensitive(self):
        # the draw of test_and_requires_both_directions, where the two joins differ
        x = np.random.default_rng(28).standard_normal((30, 6)) * np.arange(0.5, 3.5, 0.5)
        gram = centered_gram(x)
        pen = PenaltyConfig(1.0, 0.2)
        e_and, e_or = select_edges(gram, pen, "AND"), select_edges(gram, pen, "OR")
        assert e_and != e_or
        assert e_and == select_edges(gram, pen, "and")
        assert e_or == select_edges(gram, pen, "or")

    @settings(deadline=None)
    @given(st.data())
    def test_and_subset_of_or_property(self, data):
        p = data.draw(st.integers(2, 6))
        n = data.draw(st.integers(p + 2, 40))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = rng.standard_normal((n, p)) + rng.uniform(0.0, 1.0) * rng.standard_normal((n, 1))
        gram = centered_gram(x)
        pen = PenaltyConfig(data.draw(st.floats(0.1, 1.0)), data.draw(st.floats(0.0, 0.5)))
        c = chosen(gram, pen)
        want_and, want_or = set(), set()
        for j in range(p):
            for k in range(j + 1, p):
                if c[k, j] and c[j, k]:
                    want_and.add((j, k))
                if c[k, j] or c[j, k]:
                    want_or.add((j, k))
        e_and, e_or = select_edges(gram, pen, "and"), select_edges(gram, pen, "or")
        assert e_and.pairs == want_and
        assert e_or.pairs == want_or
        assert e_and.pairs <= e_or.pairs
        assert e_and.p == e_or.p == p
        assert all(j != k for j, k in e_or)


class TestSelectNeighborhoods:
    """Stage 1 end to end: the p regressions on a Gram, then the join."""

    def test_and_subset_of_or(self):
        rng = np.random.default_rng(20)
        for _ in range(5):
            gram = centered_gram(rng.standard_normal((80, 6)))
            pen = PenaltyConfig(0.8, 0.05)
            assert select_edges(gram, pen, "and").pairs <= select_edges(gram, pen, "or").pairs

    def test_no_self_neighbors(self):
        # with no penalty every node selects every other: the complete graph, no loops
        gram = centered_gram(np.random.default_rng(21).standard_normal((60, 5)))
        edges = select_edges(gram, PenaltyConfig(0.5, 0.0), "and")
        assert edges == select_edges(gram, PenaltyConfig(0.5, 0.0), "or")
        assert sorted(edges.pairs) == [(j, k) for j in range(5) for k in range(j + 1, 5)]

    def test_block_structure_recovered(self):
        gram = centered_gram(block_data(400, np.random.default_rng(22)))
        edges = select_edges(gram, PenaltyConfig(1.0, 0.1), "and")
        assert (0, 1) in edges
        assert (2, 3) in edges
        for j in (0, 1):
            for k in (2, 3):
                assert (j, k) not in edges

    def test_signs_warm_start_and_return_the_end_signs(self):
        gram = centered_gram(np.random.default_rng(29).standard_normal((80, 6)) @
                             np.triu(np.ones((6, 6))))
        signs = np.zeros((6, 6), dtype=np.int8)
        for lam in (0.5, 0.1, 0.02):  # each lambda starts from the one before
            pen = PenaltyConfig(0.5, lam)
            edges = select_edges(gram, pen, "or", signs)
            assert edges == select_edges(gram, pen, "or")
            cold = solve_gram(gram, np.arange(6), pen).coefficients
            assert signs.dtype == np.int8
            assert np.array_equal(signs, np.sign(cold))

    def test_non_square_gram_rejected(self):
        with pytest.raises(ShapeError):
            select_edges(np.ones((3, 4)), PenaltyConfig(0.5, 0.1))
        with pytest.raises(ShapeError):
            select_edges(np.ones(3), PenaltyConfig(0.5, 0.1))

    def test_huge_penalty_gives_empty_sets(self):
        gram = centered_gram(np.random.default_rng(24).standard_normal((50, 4)))
        pen = PenaltyConfig(1.0, 50.0)
        assert not chosen(gram, pen).any()
        assert len(select_edges(gram, pen, "or")) == 0

    def test_select_edges_rule_case_insensitive(self):
        gram = centered_gram(np.random.default_rng(26).standard_normal((40, 4)))
        pen = PenaltyConfig(0.5, 0.2)
        assert select_edges(gram, pen, "OR") == select_edges(gram, pen, "or")

    def test_round_cap_recorded_and_warned(self, monkeypatch):
        gram = centered_gram(np.random.default_rng(25).standard_normal((60, 5)))
        pen = PenaltyConfig(0.5, 0.001)
        monkeypatch.setattr(elastic_net, "MAX_ROUNDS", 1)
        fit = solve_gram(gram, np.arange(5), pen)
        bad = np.flatnonzero(~fit.response_converged).tolist()
        assert bad
        with pytest.warns(UserWarning) as record:
            select_edges(gram, pen)
        assert len(record) == 1
        assert "did not converge in 2 rounds" in str(record[0].message)
        assert f"nodes {bad}" in str(record[0].message)
