"""Synthetic sparsity patterns and the precision matrices built on them.

Every generator is a pure function of its TopologySpec: the same spec
(including seed) always returns the same edge set. Randomness comes from
numpy's Generator seeded per spec.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .matrices import MAX_ENTRIES, EdgeSet, PrecisionMatrix

KINDS = (
    "scale-free",
    "random",
    "band",
    "cluster",
    "hub",
    "small-world",
    "core-periphery",
)

EDGE_VALUE = 0.3
DIAG_MARGIN = 0.1


@dataclass(frozen=True)
class TopologySpec:
    kind: str
    p: int
    seed: int = 0
    v: float = EDGE_VALUE
    u: float = DIAG_MARGIN
    edge_prob: float | None = None  # random: defaults to 3/p
    bandwidth: int = 2
    groups: int = 5  # cluster and hub
    within_prob: float = 0.3
    ring_neighbors: int = 4  # small-world
    rewire_prob: float = 0.1
    core_fraction: float = 0.1
    core_core_prob: float = 0.8
    core_periphery_prob: float = 0.2
    periphery_prob: float = 0.02

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.p < 4:
            raise ConfigError(f"need p >= 4, got {self.p}")
        if self.p * self.p > MAX_ENTRIES:  # the p x p precision matrix
            raise ConfigError(f"need p <= {math.isqrt(MAX_ENTRIES)}, got {self.p}")
        if not self.v > 0.0:
            raise ConfigError(f"edge value v must be > 0, got {self.v}")
        if self.u < 0.0:
            raise ConfigError(f"diagonal margin u must be >= 0, got {self.u}")
        for name in ("edge_prob", "within_prob", "rewire_prob", "core_core_prob",
                     "core_periphery_prob", "periphery_prob"):
            val = getattr(self, name)
            if val is not None and not (0.0 <= val <= 1.0):
                raise ConfigError(f"{name} must be in [0, 1], got {val}")
        if not (0.0 < self.core_fraction < 1.0):
            raise ConfigError(f"core_fraction must be in (0, 1), got {self.core_fraction}")
        if self.kind == "band" and not (1 <= self.bandwidth < self.p):
            raise ConfigError(f"bandwidth must be in [1, p), got {self.bandwidth}")
        if self.kind in ("cluster", "hub") and not (1 <= self.groups <= self.p):
            raise ConfigError(f"groups must be in [1, p], got {self.groups}")
        if self.kind == "small-world":
            k = self.ring_neighbors
            if k < 2 or k % 2 != 0 or k > self.p - 2:
                raise ConfigError(
                    f"ring_neighbors must be even, >= 2 and <= p-2, got {k}"
                )


def _pattern_scale_free(p: int, rng) -> set:
    # preferential attachment, one edge per new node
    degrees = np.zeros(p)
    edges = {(0, 1)}
    degrees[0] = degrees[1] = 1
    for i in range(2, p):
        probs = degrees[:i] / degrees[:i].sum()
        target = int(rng.choice(i, p=probs))
        edges.add((target, i))
        degrees[target] += 1
        degrees[i] = 1
    return edges


def _draw_pairs(jj: np.ndarray, kk: np.ndarray, q, rng):
    """Keep candidate pair (jj[i], kk[i]) when the i-th uniform draw is
    below q, a scalar or one probability per pair.

    Every candidate draws, zero-probability ones included, in candidate
    order: the same stream as one rng.random() call per pair.
    """
    keep = rng.random(jj.size) < q
    return zip(jj[keep], kk[keep])


def _pattern_band(p: int, bw: int) -> set:
    return {(j, j + d) for d in range(1, bw + 1) for j in range(p - d)}


def _split_groups(p: int, groups: int) -> list:
    return [blk for blk in np.array_split(np.arange(p), groups) if blk.size]


def _pattern_cluster(p: int, groups: int, q: float, rng):
    sizes = [blk.size for blk in _split_groups(p, groups)]
    owner = np.repeat(np.arange(len(sizes)), sizes)
    jj, kk = np.triu_indices(p, k=1)
    same = owner[jj] == owner[kk]
    return _draw_pairs(jj[same], kk[same], q, rng)


def _pattern_hub(p: int, groups: int) -> set:
    edges = set()
    for blk in _split_groups(p, groups):
        hub = int(blk[0])
        edges.update((hub, int(m)) for m in blk[1:])
    return edges


def _pattern_small_world(p: int, k: int, q: float, rng) -> set:
    edges = {(min(j, (j + d) % p), max(j, (j + d) % p))
             for j in range(p) for d in range(1, k // 2 + 1)}
    for j in range(p):
        for d in range(1, k // 2 + 1):
            old = (min(j, (j + d) % p), max(j, (j + d) % p))
            if old not in edges or rng.random() >= q:
                continue
            # rewire the far end, keep node j; skip if j is saturated
            for _ in range(4 * p):
                w = int(rng.integers(p))
                cand = (min(j, w), max(j, w))
                if w != j and cand not in edges:
                    edges.discard(old)
                    edges.add(cand)
                    break
    return edges


def _pattern_core_periphery(spec: TopologySpec, rng):
    n_core = max(1, int(round(spec.core_fraction * spec.p)))
    jj, kk = np.triu_indices(spec.p, k=1)
    # j < k, so k in the core puts both ends there
    q = np.select([kk < n_core, jj < n_core],
                  [spec.core_core_prob, spec.core_periphery_prob], spec.periphery_prob)
    return _draw_pairs(jj, kk, q, rng)


def generate_pattern(spec: TopologySpec) -> EdgeSet:
    """Draw the sparsity pattern for the given topology."""
    rng = np.random.default_rng(spec.seed)
    p = spec.p
    if spec.kind == "scale-free":
        pairs = _pattern_scale_free(p, rng)
    elif spec.kind == "random":
        q = spec.edge_prob if spec.edge_prob is not None else 3.0 / p
        pairs = _draw_pairs(*np.triu_indices(p, k=1), q, rng)
    elif spec.kind == "band":
        pairs = _pattern_band(p, spec.bandwidth)
    elif spec.kind == "cluster":
        pairs = _pattern_cluster(p, spec.groups, spec.within_prob, rng)
    elif spec.kind == "hub":
        pairs = _pattern_hub(p, spec.groups)
    elif spec.kind == "small-world":
        pairs = _pattern_small_world(p, spec.ring_neighbors, spec.rewire_prob, rng)
    else:
        pairs = _pattern_core_periphery(spec, rng)
    return EdgeSet.from_pairs(p, pairs)


def pattern_to_precision(edges: EdgeSet, v: float = EDGE_VALUE, u: float = DIAG_MARGIN) -> PrecisionMatrix:
    """Precision matrix with value v on every edge and a diagonal that
    guarantees positive definiteness.

    The diagonal is |lambda_min(A)| + DIAG_MARGIN + u where A is the
    off-diagonal part, so the smallest eigenvalue of the result is at
    least DIAG_MARGIN + u > 0.
    """
    if not v > 0.0:
        raise ConfigError(f"edge value v must be > 0, got {v}")
    if u < 0.0:
        raise ConfigError(f"diagonal margin u must be >= 0, got {u}")
    a = v * edges.to_adjacency().astype(float)
    lam_min = float(np.linalg.eigvalsh(a)[0]) if len(edges) else 0.0
    diag = abs(lam_min) + DIAG_MARGIN + u
    theta = a + diag * np.eye(edges.p)
    return PrecisionMatrix(theta)


def generate_precision(spec: TopologySpec) -> tuple:
    """Pattern plus its precision matrix."""
    edges = generate_pattern(spec)
    return edges, pattern_to_precision(edges, spec.v, spec.u)
