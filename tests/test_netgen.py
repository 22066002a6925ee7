import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from parcornet.errors import ConfigError
from parcornet.matrices import EdgeSet
from parcornet.netgen import (
    KINDS,
    TopologySpec,
    _draw_pairs,
    generate_pattern,
    generate_precision,
    pattern_to_precision,
)


def n_components(edges: EdgeSet) -> int:
    return connected_components(csr_matrix(edges.to_adjacency()), directed=False)[0]


class TestSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            TopologySpec("lattice", 10)

    def test_p_minimum(self):
        with pytest.raises(ConfigError):
            TopologySpec("band", 3)

    def test_bandwidth_bounds(self):
        with pytest.raises(ConfigError):
            TopologySpec("band", 5, bandwidth=5)

    def test_ring_neighbors_must_be_even_and_fit(self):
        with pytest.raises(ConfigError):
            TopologySpec("small-world", 10, ring_neighbors=3)
        with pytest.raises(ConfigError):
            TopologySpec("small-world", 5, ring_neighbors=4)

    def test_probability_ranges(self):
        with pytest.raises(ConfigError):
            TopologySpec("random", 10, edge_prob=1.5)
        with pytest.raises(ConfigError):
            TopologySpec("cluster", 10, within_prob=-0.1)


class TestDeterminism:
    @pytest.mark.parametrize("kind", KINDS)
    def test_same_spec_same_pattern(self, kind):
        a = generate_pattern(TopologySpec(kind, 20, seed=5))
        b = generate_pattern(TopologySpec(kind, 20, seed=5))
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_pattern(TopologySpec("random", 20, seed=1))
        b = generate_pattern(TopologySpec("random", 20, seed=2))
        assert a != b


class TestStructures:
    def test_scale_free_is_spanning_tree(self):
        for seed in range(5):
            e = generate_pattern(TopologySpec("scale-free", 25, seed=seed))
            assert len(e) == 24
            assert n_components(e) == 1

    def test_scale_free_prefers_high_degree(self):
        # across seeds the max degree should well exceed the tree minimum
        degs = []
        for seed in range(20):
            e = generate_pattern(TopologySpec("scale-free", 40, seed=seed))
            degs.append(e.to_adjacency().sum(axis=1).max())
        assert np.mean(degs) > 4.0

    def test_band_exact(self):
        e = generate_pattern(TopologySpec("band", 6, bandwidth=2))
        want = {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2), (1, 3), (2, 4), (3, 5)}
        assert set(e.pairs) == want

    def test_random_extremes(self):
        assert len(generate_pattern(TopologySpec("random", 8, edge_prob=1.0))) == 28
        assert len(generate_pattern(TopologySpec("random", 8, edge_prob=0.0))) == 0

    def test_random_default_density(self):
        # edge_prob defaults to 3/p, so expected edge count is 3(p-1)/2
        counts = [len(generate_pattern(TopologySpec("random", 30, seed=s))) for s in range(30)]
        assert 30 < np.mean(counts) < 58  # expectation 43.5

    def test_cluster_edges_stay_within_groups(self):
        spec = TopologySpec("cluster", 20, seed=3, groups=5, within_prob=0.9)
        e = generate_pattern(spec)
        blocks = np.array_split(np.arange(20), 5)
        owner = {}
        for bi, blk in enumerate(blocks):
            for node in blk:
                owner[int(node)] = bi
        assert len(e) > 0
        for j, k in e:
            assert owner[j] == owner[k]

    def test_hub_stars(self):
        e = generate_pattern(TopologySpec("hub", 20, groups=5))
        assert len(e) == 15
        deg = e.to_adjacency().sum(axis=1)
        hubs = np.arange(20)[deg == 3]
        assert len(hubs) == 5
        for j, k in e:
            assert deg[j] == 3 or deg[k] == 3

    def test_small_world_edge_count_preserved(self):
        for seed in range(5):
            e = generate_pattern(TopologySpec("small-world", 20, seed=seed, ring_neighbors=4))
            assert len(e) == 40  # p*k/2

    def test_small_world_zero_rewire_is_ring(self):
        e = generate_pattern(TopologySpec("small-world", 10, rewire_prob=0.0))
        want = {(min(j, (j + d) % 10), max(j, (j + d) % 10))
                for j in range(10) for d in (1, 2)}
        assert set(e.pairs) == want

    def test_core_periphery_block_probabilities(self):
        spec = TopologySpec(
            "core-periphery", 20, seed=4, core_fraction=0.2,
            core_core_prob=1.0, core_periphery_prob=1.0, periphery_prob=0.0,
        )
        e = generate_pattern(spec)
        # 4 core nodes: complete among themselves and to all 16 periphery nodes
        assert len(e) == 6 + 4 * 16
        for j, k in e:
            assert j < 4  # canonical order puts the core node first

    def test_core_periphery_density_gradient(self):
        spec = TopologySpec("core-periphery", 40, seed=5)
        e = generate_pattern(spec)
        adj = e.to_adjacency()
        core = adj[:4, :4].sum() / (4 * 3)
        peri = adj[4:, 4:].sum() / (36 * 35)
        assert core > peri


class TestDrawPairs:
    @pytest.mark.parametrize("q", [0.3, "mixed"])
    def test_matches_per_pair_loop(self, q):
        jj, kk = np.triu_indices(15, k=1)
        if q == "mixed":  # zero- and one-probability pairs draw too
            q = np.random.default_rng(0).choice([0.0, 0.25, 0.7, 1.0], size=jj.size)
        qs = np.broadcast_to(q, jj.shape)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            want = [(j, k) for j, k, qi in zip(jj, kk, qs) if rng.random() < qi]
            got = list(_draw_pairs(jj, kk, q, np.random.default_rng(seed)))
            assert got == want


PINNED_PAIRS = {
    ("random", 3): [(0, 1), (0, 2), (0, 5), (0, 8), (0, 10), (1, 11), (2, 10), (3, 5),
                    (3, 8), (4, 6), (5, 8), (6, 7), (7, 11), (8, 9), (10, 11)],
    ("random", 8): [(0, 9), (0, 11), (1, 3), (1, 4), (2, 3), (2, 6), (2, 7), (3, 5), (3, 6),
                    (3, 8), (4, 6), (4, 10), (6, 10), (7, 8), (7, 11), (8, 10), (10, 11)],
    ("cluster", 3): [(0, 1), (0, 2), (3, 5), (8, 9)],
    ("cluster", 8): [(10, 11)],
    ("core-periphery", 3): [(0, 1), (0, 5), (0, 8), (0, 10), (1, 11)],
    ("core-periphery", 8): [(0, 9), (2, 6)],
}


class TestPinnedPairs:
    """Exact patterns of the Bernoulli generators at p=12, fixed per seed."""

    @pytest.mark.parametrize("kind, seed", sorted(PINNED_PAIRS))
    def test_sorted_pairs(self, kind, seed):
        e = generate_pattern(TopologySpec(kind, 12, seed=seed))
        assert sorted(e.pairs) == PINNED_PAIRS[kind, seed]


class TestPatternToPrecision:
    def test_two_node_closed_form(self):
        e = EdgeSet.from_pairs(2, [(0, 1)])
        theta = pattern_to_precision(e, v=0.3, u=0.1)
        assert np.allclose(np.diag(theta.values), 0.5)
        assert theta.values[0, 1] == pytest.approx(0.3)
        eigs = np.linalg.eigvalsh(theta.values)
        assert eigs == pytest.approx([0.2, 0.8], abs=1e-12)

    def test_empty_pattern_diagonal(self):
        theta = pattern_to_precision(EdgeSet(4), v=0.3, u=0.1)
        assert np.allclose(theta.values, 0.2 * np.eye(4))

    def test_eigenvalue_floor(self):
        for kind in KINDS:
            edges, theta = generate_precision(TopologySpec(kind, 15, seed=7, u=0.05))
            lam_min = np.linalg.eigvalsh(theta.values).min()
            assert lam_min >= 0.1 + 0.05 - 1e-9

    def test_sparsity_pattern_matches(self):
        edges, theta = generate_precision(TopologySpec("random", 12, seed=8))
        adj = edges.to_adjacency()
        off = ~np.eye(12, dtype=bool)
        assert np.all((theta.values != 0.0)[off] == adj[off])

    def test_validation(self):
        e = EdgeSet.from_pairs(4, [(0, 1)])
        with pytest.raises(ConfigError):
            pattern_to_precision(e, v=0.0)
        with pytest.raises(ConfigError):
            pattern_to_precision(e, u=-0.2)
