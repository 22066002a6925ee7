import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from em_reference import cold_select
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


def cold(s, p):
    # all-zero starting signs for a stack of s scatters
    return np.zeros((s, p, p), dtype=np.int8)


def solve_cold(gram, pen):
    """The p regressions on one scatter, from a cold start."""
    p = gram.shape[0]
    return solve_gram(gram[None], np.arange(p), [pen], cold(1, p))


def chosen(gram, pen):
    """chosen[k, j]: node j's regression gives node k a nonzero coefficient."""
    return solve_cold(gram, pen).coefficients[0] != 0.0


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
        e_and, e_or = cold_select(gram, pen, "and"), cold_select(gram, pen, "or")
        for pair in one_way:
            assert pair in e_or and pair not in e_and

    def test_mutual_edge_kept_by_both(self):
        gram = centered_gram(block_data(400, np.random.default_rng(22)))
        pen = PenaltyConfig(1.0, 0.1)
        assert chosen(gram, pen)[1, 0] and chosen(gram, pen)[0, 1]
        assert (0, 1) in cold_select(gram, pen, "and")
        assert (0, 1) in cold_select(gram, pen, "or")

    def test_rule_validation(self):
        with pytest.raises(ConfigError):
            select_edges(np.eye(3)[None], [PenaltyConfig(0.5, 0.1)], "xor", cold(1, 3))

    def test_rule_case_insensitive(self):
        # the draw of test_and_requires_both_directions, where the two joins differ
        x = np.random.default_rng(28).standard_normal((30, 6)) * np.arange(0.5, 3.5, 0.5)
        gram = centered_gram(x)
        pen = PenaltyConfig(1.0, 0.2)
        e_and, e_or = cold_select(gram, pen, "AND"), cold_select(gram, pen, "OR")
        assert e_and != e_or
        assert e_and == cold_select(gram, pen, "and")
        assert e_or == cold_select(gram, pen, "or")

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
        e_and, e_or = cold_select(gram, pen, "and"), cold_select(gram, pen, "or")
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
            assert cold_select(gram, pen, "and").pairs <= cold_select(gram, pen, "or").pairs

    def test_no_self_neighbors(self):
        # with no penalty every node selects every other: the complete graph, no loops
        gram = centered_gram(np.random.default_rng(21).standard_normal((60, 5)))
        edges = cold_select(gram, PenaltyConfig(0.5, 0.0), "and")
        assert edges == cold_select(gram, PenaltyConfig(0.5, 0.0), "or")
        assert sorted(edges.pairs) == [(j, k) for j in range(5) for k in range(j + 1, 5)]

    def test_block_structure_recovered(self):
        gram = centered_gram(block_data(400, np.random.default_rng(22)))
        edges = cold_select(gram, PenaltyConfig(1.0, 0.1), "and")
        assert (0, 1) in edges
        assert (2, 3) in edges
        for j in (0, 1):
            for k in (2, 3):
                assert (j, k) not in edges

    def test_signs_warm_start_and_return_the_end_signs(self):
        gram = centered_gram(np.random.default_rng(29).standard_normal((80, 6)) @
                             np.triu(np.ones((6, 6))))
        signs = cold(1, 6)
        for lam in (0.5, 0.1, 0.02):  # each lambda starts from the one before
            pen = PenaltyConfig(0.5, lam)
            (edges,), signs = select_edges(gram[None], [pen], "or", signs)
            assert edges == cold_select(gram, pen, "or")
            assert signs.dtype == np.int8
            assert np.array_equal(signs[0], np.sign(solve_cold(gram, pen).coefficients[0]))

    def test_non_square_gram_rejected(self):
        with pytest.raises(ShapeError):
            select_edges(np.ones((1, 3, 4)), [PenaltyConfig(0.5, 0.1)], "and", np.zeros((1, 3, 4)))
        with pytest.raises(ShapeError):
            select_edges(np.ones(3), [PenaltyConfig(0.5, 0.1)], "and", np.zeros((1, 3, 3)))

    def test_two_d_gram_rejected(self):
        with pytest.raises(ShapeError, match=r"got shape \(3, 3\)"):
            select_edges(np.eye(3), [PenaltyConfig(0.5, 0.1)], "and", cold(1, 3))

    def test_huge_penalty_gives_empty_sets(self):
        gram = centered_gram(np.random.default_rng(24).standard_normal((50, 4)))
        pen = PenaltyConfig(1.0, 50.0)
        assert not chosen(gram, pen).any()
        assert len(cold_select(gram, pen, "or")) == 0

    def test_select_edges_rule_case_insensitive(self):
        gram = centered_gram(np.random.default_rng(26).standard_normal((40, 4)))
        pen = PenaltyConfig(0.5, 0.2)
        assert cold_select(gram, pen, "OR") == cold_select(gram, pen, "or")

    def test_round_cap_recorded_and_warned(self, monkeypatch):
        gram = centered_gram(np.random.default_rng(25).standard_normal((60, 5)))
        pen = PenaltyConfig(0.5, 0.001)
        monkeypatch.setattr(elastic_net, "MAX_ROUNDS", 1)
        fit = solve_cold(gram, pen)
        bad = np.flatnonzero(~fit.response_converged[0]).tolist()
        assert bad
        with pytest.warns(UserWarning) as record:
            cold_select(gram, pen, "and")
        assert len(record) == 1
        assert "did not converge in 2 rounds" in str(record[0].message)
        assert f"nodes {bad}" in str(record[0].message)


class TestStackedSelect:
    """select_edges on a stack of scatters, one penalty each."""

    @staticmethod
    def stack(seed, s=3, p=6):
        rng = np.random.default_rng(seed)
        return np.stack([centered_gram(rng.standard_normal((80, p)) @ np.triu(np.ones((p, p))))
                         for _ in range(s)])

    def test_one_edge_set_and_end_signs_per_scatter(self):
        grams = self.stack(31)
        pens = [PenaltyConfig(0.5, lam) for lam in (0.3, 0.05, 0.3)]
        found, signs = select_edges(grams, pens, "or", cold(3, 6))
        assert len(found) == 3
        assert signs.shape == (3, 6, 6) and signs.dtype == np.int8
        for gram, pen, edges, sign in zip(grams, pens, found, signs):
            assert edges == cold_select(gram, pen, "or")
            assert np.array_equal(sign, np.sign(solve_cold(gram, pen).coefficients[0]))

    def test_caller_signs_read_not_written(self):
        # a warm start from other signs ends on the cold start's signs, in a
        # new array, and leaves the caller's array as it was
        grams = self.stack(32)
        pens = [PenaltyConfig(0.5, lam) for lam in (0.3, 0.05, 0.02)]
        start = np.random.default_rng(33).integers(-1, 2, size=(3, 6, 6)).astype(np.int8)
        before = start.copy()
        found, signs = select_edges(grams, pens, "or", start)
        assert np.array_equal(start, before)
        assert not np.shares_memory(signs, start)
        want_found, want_signs = select_edges(grams, pens, "or", cold(3, 6))
        assert found == want_found
        assert np.array_equal(signs, want_signs)
        assert not np.array_equal(signs, start)

    def test_round_cap_warns_once_per_lambda(self, monkeypatch):
        gram = centered_gram(np.random.default_rng(25).standard_normal((60, 5)))
        lams = (0.001, 50.0, 0.002)  # at 50 every support is empty after one round
        pens = [PenaltyConfig(0.5, lam) for lam in lams]
        monkeypatch.setattr(elastic_net, "MAX_ROUNDS", 1)
        bad = [np.flatnonzero(~solve_cold(gram, pen).response_converged[0]).tolist()
               for pen in pens]
        assert bad[0] and not bad[1] and bad[2]
        with pytest.warns(UserWarning) as record:
            select_edges(np.stack([gram] * 3), pens, "and", cold(3, 5))
        messages = [str(r.message) for r in record]
        assert len(messages) == 2
        for message, lam, nodes in zip(messages, (lams[0], lams[2]), (bad[0], bad[2])):
            assert message.startswith(f"lambda {lam:g}: ")
            assert f"did not converge in 2 rounds: nodes {nodes}" in message
