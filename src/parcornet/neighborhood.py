"""Neighborhood selection: one penalized regression per node, joined into edges.

Each column is regressed on all others with a shared penalty; a node's
neighbors are the columns with nonzero coefficients. The regressions
read only the p x p scatter (or centered Gram) of the data, and all p
run as one exact active-set solve over it (elastic_net.solve_gram): each
round moves every running node's support and signs at once and solves
all their support systems as one batch, and each node stops when its
support and signs repeat, which is its KKT condition. The solve starts
from 0, or from the supports and signs a caller passes in (a warm
start, for example those of the same regressions at a neighbouring
lambda or on the previous EM iteration's scatter); the warm start
changes only how many rounds the solve takes wherever the solution is
unique. The dual weight KAPPA and the round cap MAX_ROUNDS are the
module constants of elastic_net. The selected supports are joined into
undirected edges by the AND or OR rule of Meinshausen & Buhlmann (2006).
"""
from __future__ import annotations

import warnings

import numpy as np

from .elastic_net import PenaltyConfig, solve_gram
from .errors import ConfigError, ShapeError
from .matrices import EdgeSet

RULES = ("and", "or")


def select_edges(gram: np.ndarray, penalty: PenaltyConfig, rule: str = "and",
                 signs: np.ndarray | None = None) -> EdgeSet:
    """Run the p conditional regressions on a scatter or centered Gram of
    the data and join their supports into undirected edges.

    "and" keeps (j,k) only when each node selected the other; "or" keeps
    it when either did, so the "and" set is always a subset of the "or"
    set. A regression that hits the round cap is kept (its support is
    still used); one warning per call names those nodes. signs, when
    given, is a p x p int8 array whose column j holds node j's signs on
    its support and 0 off it: the solve starts from it, and it is
    overwritten with the signs the solve ends on.
    """
    rule = str(rule).lower()
    if rule not in RULES:
        raise ConfigError(f"rule must be one of {RULES}, got {rule!r}")
    gram = np.asarray(gram, dtype=float)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ShapeError(f"gram must be a square 2-d array, got shape {gram.shape}")
    p = gram.shape[0]
    fit = solve_gram(gram, np.arange(p), penalty, signs)
    bad = np.flatnonzero(~fit.response_converged)
    if bad.size:
        warnings.warn(f"regressions for {bad.size} of {p} nodes did not converge "
                      f"in {int(fit.response_rounds[bad].max())} rounds: nodes {bad.tolist()}")
    if signs is not None:
        signs[:] = np.sign(fit.coefficients)
    chosen = fit.coefficients != 0.0
    adj = chosen & chosen.T if rule == "and" else chosen | chosen.T
    return EdgeSet.from_adjacency(adj)
