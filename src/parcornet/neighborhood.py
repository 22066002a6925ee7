"""Neighborhood selection: one penalized regression per node.

Each column is regressed on all others with a shared penalty; a node's
neighbors are the columns with nonzero coefficients. The regressions
read only the p x p scatter (or centered Gram) of the data, and all p
run as one coordinate descent over it, which updates every node's
coefficients together and stops each node on its own convergence test.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .elastic_net import COEF_TOL, KKT_TOL, MAX_SWEEPS, PenaltyConfig, solve_gram
from .errors import ConfigError, ShapeError
from .matrices import EdgeSet

RULES = ("and", "or")


@dataclass(frozen=True)
class Neighborhoods:
    """Per-node neighbor sets; unconverged lists nodes whose regression hit the sweep cap."""

    p: int
    sets: tuple
    unconverged: tuple = ()


def select_neighborhoods(
    gram: np.ndarray,
    penalty: PenaltyConfig,
    tol: float = COEF_TOL,
    max_sweeps: int = MAX_SWEEPS,
    kkt_tol: float = KKT_TOL,
) -> Neighborhoods:
    """Run the p conditional regressions on a scatter or centered Gram of
    the data and collect nonzero supports.

    A regression that hits the sweep cap is kept (its support is still
    used) but recorded in unconverged; one warning per call names them.
    """
    gram = np.asarray(gram, dtype=float)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ShapeError(f"gram must be a square 2-d array, got shape {gram.shape}")
    p = gram.shape[0]
    fit = solve_gram(gram, np.arange(p), penalty, tol, max_sweeps, kkt_tol)
    sets = tuple(frozenset(np.flatnonzero(col).tolist()) for col in fit.coefficients.T)
    bad = tuple(np.flatnonzero(~fit.response_converged).tolist())
    if bad:
        warnings.warn(f"regressions for {len(bad)} of {p} nodes did not converge "
                      f"in {max_sweeps} sweeps: nodes {list(bad)}")
    return Neighborhoods(p, sets, bad)


def assemble_edges(neighborhoods, rule: str) -> EdgeSet:
    """Combine directed neighbor sets into undirected edges.

    "and" keeps (j,k) only when each node selected the other; "or" keeps
    it when either did. The "and" set is always a subset of the "or" set.
    """
    rule = str(rule).lower()
    if rule not in RULES:
        raise ConfigError(f"rule must be one of {RULES}, got {rule!r}")
    if isinstance(neighborhoods, Neighborhoods):
        p, sets = neighborhoods.p, neighborhoods.sets
    else:
        sets = tuple(frozenset(s) for s in neighborhoods)
        p = len(sets)
    pairs = set()
    for j in range(p):
        for k in sets[j]:
            if not (0 <= k < p) or k == j:
                raise ConfigError(f"neighbor {k} of node {j} is out of range")
            if j < k:
                hit = j in sets[k]
                if (rule == "and" and hit) or (rule == "or"):
                    pairs.add((j, k))
            elif rule == "or":
                pairs.add((k, j))
    return EdgeSet.from_pairs(p, pairs)


def select_edges(gram: np.ndarray, penalty: PenaltyConfig, rule: str = "and") -> EdgeSet:
    """Neighborhood selection on a scatter or centered Gram, then edge assembly."""
    return assemble_edges(select_neighborhoods(gram, penalty), rule)
