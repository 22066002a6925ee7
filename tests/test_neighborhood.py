import numpy as np
import pytest

from parcornet.elastic_net import PenaltyConfig
from parcornet.errors import ConfigError
from parcornet.matrices import Dataset
from parcornet.neighborhood import (
    Neighborhoods,
    assemble_edges,
    centered_gram,
    select_edges,
    select_neighborhoods,
)


def block_data(n, rng):
    # two independent pairs of strongly coupled columns
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    x = np.column_stack([
        z1, z1 + 0.3 * rng.standard_normal(n),
        z2, z2 + 0.3 * rng.standard_normal(n),
    ])
    return Dataset(x)


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


class TestSelectNeighborhoods:
    def test_and_subset_of_or(self):
        rng = np.random.default_rng(20)
        for _ in range(5):
            data = Dataset(rng.standard_normal((80, 6)))
            nbhd = select_neighborhoods(data, PenaltyConfig(0.8, 0.05))
            assert assemble_edges(nbhd, "and").issubset(assemble_edges(nbhd, "or"))

    def test_no_self_neighbors(self):
        rng = np.random.default_rng(21)
        data = Dataset(rng.standard_normal((60, 5)))
        nbhd = select_neighborhoods(data, PenaltyConfig(0.5, 0.01))
        for j, s in enumerate(nbhd.sets):
            assert j not in s

    def test_block_structure_recovered(self):
        rng = np.random.default_rng(22)
        data = block_data(400, rng)
        res = select_edges(data, PenaltyConfig(1.0, 0.1), "and")
        assert (0, 1) in res.edges
        assert (2, 3) in res.edges
        for j in (0, 1):
            for k in (2, 3):
                assert (j, k) not in res.edges

    def test_precomputed_gram_matches(self):
        rng = np.random.default_rng(23)
        data = Dataset(rng.standard_normal((50, 5)))
        pen = PenaltyConfig(0.6, 0.08)
        a = select_neighborhoods(data, pen)
        b = select_neighborhoods(data, pen, gram=centered_gram(data.values))
        assert a.sets == b.sets

    def test_huge_penalty_gives_empty_sets(self):
        rng = np.random.default_rng(24)
        data = Dataset(rng.standard_normal((50, 4)))
        nbhd = select_neighborhoods(data, PenaltyConfig(1.0, 50.0))
        assert all(len(s) == 0 for s in nbhd.sets)

    def test_sweep_cap_recorded_and_warned(self):
        rng = np.random.default_rng(25)
        data = Dataset(rng.standard_normal((60, 5)))
        with pytest.warns(UserWarning) as record:
            nbhd = select_neighborhoods(data, PenaltyConfig(0.5, 0.001), max_sweeps=1)
        assert len(nbhd.unconverged) > 0
        assert len(record) == 1
        assert "did not converge" in str(record[0].message)
        assert str(list(nbhd.unconverged)) in str(record[0].message)

    def test_result_bundles_rule(self):
        rng = np.random.default_rng(26)
        data = Dataset(rng.standard_normal((40, 4)))
        res = select_edges(data, PenaltyConfig(0.5, 0.2), "OR")
        assert res.rule == "or"
        assert isinstance(res.neighborhoods, Neighborhoods)
