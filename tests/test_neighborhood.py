import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from parcornet.elastic_net import PenaltyConfig
from parcornet.errors import ConfigError, ShapeError
from parcornet.neighborhood import (
    assemble_edges,
    select_edges,
    select_neighborhoods,
)


def block_data(n, rng):
    # two independent pairs of strongly coupled columns
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    return np.column_stack([
        z1, z1 + 0.3 * rng.standard_normal(n),
        z2, z2 + 0.3 * rng.standard_normal(n),
    ])


class TestAssembleEdges:
    def test_and_requires_both_directions(self):
        sets = [frozenset({1}), frozenset(), frozenset({1})]
        e_and = assemble_edges(sets, "and")
        e_or = assemble_edges(sets, "or")
        assert len(e_and) == 0
        assert sorted(e_or.pairs) == [(0, 1), (1, 2)]

    def test_mutual_edge_kept_by_both(self):
        sets = [frozenset({1}), frozenset({0})]
        assert sorted(assemble_edges(sets, "and").pairs) == [(0, 1)]
        assert sorted(assemble_edges(sets, "or").pairs) == [(0, 1)]

    def test_rule_validation(self):
        with pytest.raises(ConfigError):
            assemble_edges([frozenset(), frozenset()], "xor")

    def test_rule_case_insensitive(self):
        sets = [frozenset({1}), frozenset({0})]
        assert len(assemble_edges(sets, "AND")) == 1

    def test_neighbor_out_of_range(self):
        with pytest.raises(ConfigError):
            assemble_edges([frozenset({5}), frozenset()], "or")

    @given(st.data())
    def test_and_subset_of_or_property(self, data):
        p = data.draw(st.integers(1, 8))
        sets = [data.draw(st.frozensets(st.integers(0, p - 1))) - {j} for j in range(p)]
        e_and, e_or = assemble_edges(sets, "and"), assemble_edges(sets, "or")
        assert e_and.pairs <= e_or.pairs
        for j, k in e_and:
            assert k in sets[j] and j in sets[k]
        for j, k in e_or:
            assert k in sets[j] or j in sets[k]


class TestSelectNeighborhoods:
    def test_and_subset_of_or(self):
        rng = np.random.default_rng(20)
        for _ in range(5):
            x = rng.standard_normal((80, 6))
            xc = x - x.mean(axis=0)
            gram = xc.T @ xc / 80
            nbhd = select_neighborhoods(gram, PenaltyConfig(0.8, 0.05))
            assert assemble_edges(nbhd, "and").pairs <= assemble_edges(nbhd, "or").pairs

    def test_no_self_neighbors(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((60, 5))
        xc = x - x.mean(axis=0)
        gram = xc.T @ xc / 60
        nbhd = select_neighborhoods(gram, PenaltyConfig(0.5, 0.01))
        for j, s in enumerate(nbhd.sets):
            assert j not in s

    def test_block_structure_recovered(self):
        rng = np.random.default_rng(22)
        xc = block_data(400, rng)
        xc -= xc.mean(axis=0)
        edges = select_edges(xc.T @ xc / 400, PenaltyConfig(1.0, 0.1), "and")
        assert (0, 1) in edges
        assert (2, 3) in edges
        for j in (0, 1):
            for k in (2, 3):
                assert (j, k) not in edges

    def test_non_square_gram_rejected(self):
        with pytest.raises(ShapeError):
            select_neighborhoods(np.ones((3, 4)), PenaltyConfig(0.5, 0.1))
        with pytest.raises(ShapeError):
            select_edges(np.ones(3), PenaltyConfig(0.5, 0.1))

    def test_huge_penalty_gives_empty_sets(self):
        rng = np.random.default_rng(24)
        x = rng.standard_normal((50, 4))
        xc = x - x.mean(axis=0)
        gram = xc.T @ xc / 50
        nbhd = select_neighborhoods(gram, PenaltyConfig(1.0, 50.0))
        assert all(len(s) == 0 for s in nbhd.sets)

    def test_sweep_cap_recorded_and_warned(self):
        rng = np.random.default_rng(25)
        x = rng.standard_normal((60, 5))
        xc = x - x.mean(axis=0)
        gram = xc.T @ xc / 60
        with pytest.warns(UserWarning) as record:
            nbhd = select_neighborhoods(gram, PenaltyConfig(0.5, 0.001), max_sweeps=1)
        assert len(nbhd.unconverged) > 0
        assert len(record) == 1
        assert "did not converge" in str(record[0].message)
        assert str(list(nbhd.unconverged)) in str(record[0].message)

    def test_select_edges_rule_case_insensitive(self):
        rng = np.random.default_rng(26)
        x = rng.standard_normal((40, 4))
        xc = x - x.mean(axis=0)
        gram = xc.T @ xc / 40
        pen = PenaltyConfig(0.5, 0.2)
        assert select_edges(gram, pen, "OR") == select_edges(gram, pen, "or")
