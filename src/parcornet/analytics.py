"""Descriptive measures, centralities, and shock propagation on a
partial correlation network.

The graph is the binarized network: nodes j,k are adjacent exactly when
the partial correlation is nonzero. Weighted quantities (strength,
eigenvector centrality, shocks) use the matrix entries themselves.
Eigenvector centrality and the Perron root each come from one exact
symmetric eigensolve of |P|, with no iteration cap to hit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DivergenceError
from .matrices import PartialCorrelationMatrix

EIG_TOL = 1e-12


@dataclass(frozen=True)
class NetworkMeasures:
    p: int
    edge_count: int
    mean_degree: float
    mean_distance: float
    mean_eccentricity: float
    mean_clustering: float
    mean_strength: float

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "edge_count": self.edge_count,
            "mean_degree": self.mean_degree,
            "mean_distance": self.mean_distance,
            "mean_eccentricity": self.mean_eccentricity,
            "mean_clustering": self.mean_clustering,
            "mean_strength": self.mean_strength,
        }


@dataclass(frozen=True)
class NodeCentralities:
    degree: np.ndarray
    strength: np.ndarray
    eigenvector: np.ndarray


@dataclass(frozen=True)
class ShockResult:
    node: int
    steady_state: np.ndarray
    total: float
    spectral_radius: float
    abs_radius_bound: float


def _as_pc(network) -> PartialCorrelationMatrix:
    """The network itself, or a raw array validated once."""
    if isinstance(network, PartialCorrelationMatrix):
        return network
    return PartialCorrelationMatrix(np.asarray(network, dtype=float))


def adjacency(network) -> np.ndarray:
    """Boolean adjacency: an edge wherever the entry is nonzero."""
    vals = _as_pc(network).values
    adj = vals != 0.0
    np.fill_diagonal(adj, False)
    return adj


def degrees(network) -> np.ndarray:
    return adjacency(network).sum(axis=1)


def strengths(network, absolute: bool = False) -> np.ndarray:
    """Row sums of the weights; signed by default, absolute on request."""
    vals = _as_pc(network).values
    return np.abs(vals).sum(axis=1) if absolute else vals.sum(axis=1)


def distance_matrix(network) -> np.ndarray:
    """Unweighted shortest-path distances; inf marks unreachable pairs.

    A breadth-first search from every node at once: row i of the frontier
    holds the nodes first reached from i at the current hop count, and one
    product with the adjacency steps every row to its next hop.
    """
    adj = adjacency(network).astype(float)
    p = adj.shape[0]
    d = np.full((p, p), np.inf)
    np.fill_diagonal(d, 0.0)
    reached = np.eye(p, dtype=bool)
    frontier = reached
    hops = 0
    while frontier.any():
        hops += 1
        frontier = (frontier @ adj > 0.0) & ~reached
        reached |= frontier
        d[frontier] = hops
    return d


def _eccentricities(d: np.ndarray) -> np.ndarray:
    return np.where(np.isfinite(d), d, 0.0).max(axis=1)


def _mean_distance(d: np.ndarray) -> float:
    vals = d[np.triu_indices_from(d, k=1)]
    finite = vals[np.isfinite(vals)]
    return float(finite.mean()) if finite.size else 0.0


def clustering_coefficients(network) -> np.ndarray:
    """Triangles over wedges per node; degree < 2 gives 0."""
    a = adjacency(network).astype(float)
    deg = a.sum(axis=1)
    tri = np.diag(a @ a @ a) / 2.0
    return np.divide(tri, deg * (deg - 1.0) / 2.0, out=np.zeros_like(deg), where=deg >= 2.0)


def eigenvector_centrality(network) -> np.ndarray:
    """Perron vector of |P|, scaled so the largest entry is 1.

    One symmetric eigensolve of |P|. The eigenvectors whose eigenvalue
    lies within EIG_TOL * max(1, top) of the top one span the Perron
    space; the uniform vector is projected onto it. A connected network
    has a simple Perron root, so this is its exact Perron vector; equal
    disconnected components share the mass rather than one being picked.
    An all-zero matrix returns zeros.
    """
    w = np.abs(_as_pc(network).values)
    if not w.any():
        return np.zeros(w.shape[0])
    vals, vecs = np.linalg.eigh(w)
    top = vecs[:, vals >= vals[-1] - EIG_TOL * max(1.0, vals[-1])]
    v = np.abs(top @ top.sum(axis=0))
    return v / v.max()


def node_centralities(network, absolute_strength: bool = False) -> NodeCentralities:
    return NodeCentralities(
        degree=degrees(network),
        strength=strengths(network, absolute=absolute_strength),
        eigenvector=eigenvector_centrality(network),
    )


def measures(network, absolute_strength: bool = False) -> NetworkMeasures:
    """The network-wide summary; the shortest paths are computed once.

    mean_distance is the mean over the unordered pairs at finite distance,
    0 when there are none. mean_eccentricity averages each node's largest
    finite distance, which is 0 for an isolated node.
    """
    pc = _as_pc(network)
    adj = adjacency(pc)
    deg = adj.sum(axis=1)
    d = distance_matrix(pc)
    return NetworkMeasures(
        p=pc.p,
        edge_count=int(adj.sum()) // 2,
        mean_degree=float(deg.mean()),
        mean_distance=_mean_distance(d),
        mean_eccentricity=float(_eccentricities(d).mean()),
        mean_clustering=float(clustering_coefficients(pc).mean()),
        mean_strength=float(strengths(pc, absolute=absolute_strength).mean()),
    )


def spectral_radius(network) -> float:
    """Largest absolute eigenvalue (symmetric input)."""
    vals = _as_pc(network).values
    return float(np.abs(np.linalg.eigvalsh(vals)).max())


def abs_radius_bound(network) -> float:
    """Spectral radius of |P|, its Perron root; an upper bound for the
    radius of P itself."""
    return float(np.linalg.eigvalsh(np.abs(_as_pc(network).values))[-1])


def shock(network, node: int) -> ShockResult:
    """Steady state of s(t+1) = e_node + P s(t).

    Requires spectral radius < 1; otherwise the series has no limit and
    DivergenceError (carrying the radius) is raised. The limit solves
    (I - P) s = e_node.
    """
    pc = _as_pc(network)
    vals, p = pc.values, pc.p
    if not (0 <= node < p):
        raise DataError(f"node {node} out of range for p={p}")
    rho = spectral_radius(pc)
    if rho >= 1.0:
        raise DivergenceError(
            f"shock propagation diverges: spectral radius {rho:.6f} >= 1",
            spectral_radius=rho,
        )
    e = np.zeros(p)
    e[node] = 1.0
    steady = np.linalg.solve(np.eye(p) - vals, e)
    return ShockResult(
        node=node,
        steady_state=steady,
        total=float(steady.sum()),
        spectral_radius=rho,
        abs_radius_bound=abs_radius_bound(pc),
    )
