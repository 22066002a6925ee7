import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from parcornet import analytics
from parcornet.analytics import (
    abs_radius_bound,
    adjacency,
    clustering_coefficients,
    degrees,
    distance_matrix,
    eigenvector_centrality,
    measures,
    node_centralities,
    shock,
    spectral_radius,
    strengths,
)
from parcornet.errors import DataError, DivergenceError
from parcornet.matrices import PartialCorrelationMatrix


def net(pairs, p, w=0.3):
    vals = np.zeros((p, p))
    for j, k in pairs:
        vals[j, k] = vals[k, j] = w if np.isscalar(w) else w[(j, k)]
    return PartialCorrelationMatrix(vals)


def weighted_net(weight_map, p):
    vals = np.zeros((p, p))
    for (j, k), w in weight_map.items():
        vals[j, k] = vals[k, j] = w
    return PartialCorrelationMatrix(vals)


PATH3 = net([(0, 1), (1, 2)], 3)
TRIANGLE = net([(0, 1), (1, 2), (0, 2)], 3)
EMPTY4 = PartialCorrelationMatrix(np.zeros((4, 4)))


class TestGraphBasics:
    def test_adjacency_from_nonzeros(self):
        adj = adjacency(PATH3)
        assert adj.sum() == 4
        assert not adj[0, 2]

    def test_degrees(self):
        assert degrees(PATH3).tolist() == [1, 2, 1]

    def test_strength_signed_and_absolute(self):
        g = weighted_net({(0, 1): 0.4, (1, 2): -0.4}, 3)
        assert strengths(g).tolist() == pytest.approx([0.4, 0.0, -0.4])
        assert strengths(g, absolute=True).tolist() == pytest.approx([0.4, 0.8, 0.4])

    def test_distances_and_disconnection(self):
        g = net([(0, 1)], 4)
        d = distance_matrix(g)
        assert d[0, 1] == 1.0
        assert np.isinf(d[0, 2])

    def test_path_distances(self):
        d = distance_matrix(PATH3)
        assert d[0, 2] == 2.0


class TestDistanceOracle:
    """distance_matrix equals scipy's unweighted shortest paths exactly."""

    @settings(max_examples=80, deadline=None)
    @given(p=st.integers(2, 150), density=st.sampled_from([0.0, 0.01, 0.05, 0.2, 0.7]),
           groups=st.integers(1, 4), isolated=st.sampled_from([0.0, 0.1, 0.5]),
           seed=st.integers(0, 2**32 - 1))
    @example(p=150, density=0.0, groups=1, isolated=0.0, seed=0)
    @example(p=2, density=0.7, groups=1, isolated=0.0, seed=1)
    @example(p=150, density=0.7, groups=4, isolated=0.5, seed=2)
    def test_matches_csgraph(self, p, density, groups, isolated, seed):
        rng = np.random.default_rng(seed)
        a = np.triu(rng.random((p, p)) < density, k=1)
        group = rng.integers(groups, size=p)
        a &= group[:, None] == group[None, :]  # no edge between components
        lone = rng.random(p) < isolated
        a[lone, :] = a[:, lone] = False
        a |= a.T
        w = np.triu(rng.choice([-1.0, 1.0], (p, p)) * rng.uniform(0.05, 0.5, (p, p)), k=1)
        g = PartialCorrelationMatrix(np.where(a, w + w.T, 0.0))
        want = shortest_path(csr_matrix(a), method="D", directed=False, unweighted=True)
        assert np.array_equal(distance_matrix(g), want)


class TestEccentricity:
    # measures averages each node's largest finite distance
    def test_path(self):
        assert measures(PATH3).mean_eccentricity == pytest.approx((2 + 1 + 2) / 3)

    def test_isolated_nodes_zero(self):
        g = net([(0, 1)], 4)
        assert measures(g).mean_eccentricity == pytest.approx((1 + 1 + 0 + 0) / 4)

    def test_empty(self):
        assert measures(EMPTY4).mean_eccentricity == 0.0


class TestMeanDistance:
    # measures averages the distances of the unordered pairs at finite distance
    def test_path(self):
        assert measures(PATH3).mean_distance == pytest.approx((1 + 1 + 2) / 3)

    def test_skips_unreachable_pairs(self):
        g = net([(0, 1), (2, 3)], 4)
        assert measures(g).mean_distance == pytest.approx(1.0)

    def test_empty_zero(self):
        assert measures(EMPTY4).mean_distance == 0.0


class TestClustering:
    def test_triangle(self):
        assert clustering_coefficients(TRIANGLE).tolist() == [1.0, 1.0, 1.0]

    def test_path_zero(self):
        assert clustering_coefficients(PATH3).tolist() == [0.0, 0.0, 0.0]

    def test_partial(self):
        g = net([(0, 1), (1, 2), (0, 2), (2, 3)], 4)
        cc = clustering_coefficients(g)
        assert cc[2] == pytest.approx(1.0 / 3.0)
        assert cc[3] == 0.0


class TestEigenvectorCentrality:
    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(80)
        for _ in range(10):
            vals = np.zeros((6, 6))
            for j in range(6):
                for k in range(j + 1, 6):
                    if rng.random() < 0.6:
                        vals[j, k] = vals[k, j] = rng.uniform(-0.3, 0.3)
            if not vals.any():
                continue
            pc = PartialCorrelationMatrix(vals)
            got = eigenvector_centrality(pc)
            w, v = np.linalg.eigh(np.abs(vals))
            want = np.abs(v[:, np.argmax(w)])
            if want.max() > 0:
                want = want / want.max()
            # compare only when the top eigenvalue is simple
            if w[-1] - w[-2] > 1e-8:
                assert np.abs(got - want).max() < 1e-6

    def test_star_closed_form(self):
        g = net([(0, j) for j in range(1, 5)], 5)
        c = eigenvector_centrality(g)
        assert c[0] == pytest.approx(1.0)
        assert c[1:] == pytest.approx(np.full(4, 1.0 / np.sqrt(4.0)), abs=1e-9)

    def test_sign_irrelevant(self):
        a = eigenvector_centrality(weighted_net({(0, 1): 0.5, (1, 2): 0.5}, 3))
        b = eigenvector_centrality(weighted_net({(0, 1): -0.5, (1, 2): 0.5}, 3))
        assert np.abs(a - b).max() < 1e-10

    def test_matches_power_iteration_oracle_degenerate(self):
        # two equal disconnected edges: the top eigenvalue is repeated and the
        # uniform start splits mass equally across the components
        g = net([(0, 1), (2, 3)], 4, w=0.4)
        got = eigenvector_centrality(g)
        a = np.abs(g.values) + np.eye(4)
        v = np.full(4, 0.5)
        for _ in range(10_000):
            nxt = a @ v
            nxt /= np.linalg.norm(nxt)
            if np.abs(nxt - v).max() < 1e-12:
                break
            v = nxt
        want = np.abs(v) / np.abs(v).max()
        assert np.abs(got - want).max() < 1e-9
        assert got == pytest.approx(np.ones(4))

    def test_zero_matrix(self):
        assert eigenvector_centrality(EMPTY4).tolist() == [0.0] * 4

    def test_bipartite_converges(self):
        # |P| of a path has eigenvalues +-rho; only +rho is the Perron root
        c = eigenvector_centrality(PATH3)
        assert c[1] == pytest.approx(1.0)
        assert c[0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-9)

    @pytest.mark.parametrize("gap", [1e-9, 1e-6, 1e-4, 1e-3])
    def test_near_tie_picks_larger_component(self, gap):
        # two disjoint edges with nearly equal Perron roots: only the
        # heavier edge carries the Perron vector
        g = weighted_net({(0, 1): 0.3, (2, 3): 0.3 + gap}, 4)
        got = eigenvector_centrality(g)
        assert np.abs(got - [0.0, 0.0, 1.0, 1.0]).max() < 1e-12

    @settings(deadline=None)
    @given(st.data())
    def test_perron_pair_property(self, data):
        p = data.draw(st.integers(2, 8))
        entry = st.floats(-0.3, 0.3, allow_subnormal=False)
        vals = np.zeros((p, p))
        iu = np.triu_indices(p, k=1)
        vals[iu] = data.draw(st.lists(entry, min_size=len(iu[0]), max_size=len(iu[0])))
        vals += vals.T
        assume(vals.any())
        c = eigenvector_centrality(vals)
        rho = abs_radius_bound(vals)
        assert c.min() >= 0.0 and c.max() == 1.0
        assert np.abs(np.abs(vals) @ c - rho * c).max() <= 1e-10 * max(1.0, rho)


class TestMeasures:
    def test_full_summary_on_known_graph(self):
        m = measures(PATH3)
        assert m.p == 3
        assert m.edge_count == 2
        assert m.mean_degree == pytest.approx(4.0 / 3.0)
        assert m.mean_distance == pytest.approx(4.0 / 3.0)
        assert m.mean_eccentricity == pytest.approx(5.0 / 3.0)
        assert m.mean_clustering == 0.0
        assert m.mean_strength == pytest.approx((0.3 + 0.6 + 0.3) / 3.0)

    def test_empty_graph_zero(self):
        m = measures(EMPTY4)
        assert (m.edge_count, m.mean_degree, m.mean_distance) == (0, 0.0, 0.0)
        assert (m.mean_eccentricity, m.mean_clustering, m.mean_strength) == (0.0, 0.0, 0.0)

    def test_absolute_strength_flag(self):
        g = weighted_net({(0, 1): 0.4, (1, 2): -0.4}, 3)
        assert measures(g).mean_strength == pytest.approx(0.0)
        assert measures(g, absolute_strength=True).mean_strength == pytest.approx(1.6 / 3.0)

    def test_shortest_paths_computed_once(self, monkeypatch):
        calls = []
        real = analytics.distance_matrix
        monkeypatch.setattr(analytics, "distance_matrix",
                            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
        m = measures(PATH3)
        assert len(calls) == 1
        assert (m.mean_distance, m.mean_eccentricity) == pytest.approx((4.0 / 3.0, 5.0 / 3.0))

    def test_node_centralities_bundle(self):
        c = node_centralities(PATH3)
        assert c.degree.tolist() == [1, 2, 1]
        assert c.eigenvector[1] == pytest.approx(1.0)


class TestShock:
    def test_two_node_closed_form(self):
        g = net([(0, 1)], 2, w=0.5)
        res = shock(g, 0)
        assert res.steady_state == pytest.approx([4.0 / 3.0, 2.0 / 3.0], abs=1e-12)
        assert res.total == pytest.approx(2.0, abs=1e-12)
        assert res.spectral_radius == pytest.approx(0.5)

    def test_node_out_of_range_is_data_error(self):
        for node in (3, -1):
            with pytest.raises(DataError, match="out of range"):
                shock(PATH3, node)

    def test_zero_network_total_one(self):
        res = shock(EMPTY4, 2)
        assert res.total == 1.0
        assert res.steady_state.tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_neumann_series_oracle(self):
        rng = np.random.default_rng(81)
        for _ in range(5):
            raw = rng.uniform(-1, 1, size=(5, 5))
            raw = 0.5 * (raw + raw.T)
            np.fill_diagonal(raw, 0.0)
            raw *= 0.7 / np.abs(np.linalg.eigvalsh(raw)).max()
            g = PartialCorrelationMatrix(raw)
            res = shock(g, 1)
            term = np.zeros(5)
            term[1] = 1.0
            total = term.copy()
            for _ in range(200):
                term = raw @ term
                total += term
            assert np.abs(res.steady_state - total).max() < 1e-8

    def test_radius_at_least_one_raises(self):
        g = net([(0, 1)], 2, w=1.0)
        with pytest.raises(DivergenceError) as err:
            shock(g, 0)
        assert err.value.spectral_radius == pytest.approx(1.0)

    def test_totals_differ_across_nodes(self):
        res0 = shock(PATH3, 0)
        res1 = shock(PATH3, 1)
        assert res0.total != res1.total

    def test_reports_abs_bound(self):
        g = weighted_net({(0, 1): 0.3, (1, 2): -0.3}, 3)
        res = shock(g, 0)
        assert res.abs_radius_bound >= res.spectral_radius - 1e-9
        assert res.abs_radius_bound == pytest.approx(
            np.abs(np.linalg.eigvalsh(np.abs(g.values))).max(), abs=1e-8
        )

    def test_spectral_radius_and_bound_helpers(self):
        g = weighted_net({(0, 1): 0.3, (1, 2): -0.3}, 3)
        assert spectral_radius(g) == pytest.approx(0.3 * np.sqrt(2.0))
        assert abs_radius_bound(g) == pytest.approx(0.3 * np.sqrt(2.0), abs=1e-8)
