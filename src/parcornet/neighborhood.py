"""Neighborhood selection: one penalized regression per node, joined into edges.

Each column is regressed on all others with a shared penalty; a node's
neighbors are the columns with nonzero coefficients. The regressions
read only the p x p scatter (or centered Gram) of the data. A stack of
scatters, each with its own penalty (the lambdas of an EM iteration),
runs as one exact active-set solve over all their regressions
(elastic_net.solve_gram): each round moves every running node's support
and signs at once and solves their support systems in a few batches by
support size, and each node stops when its support and signs repeat,
which is its KKT condition. Each scatter gives the edge set it gives
alone. The solve starts from the supports and signs the caller passes in: all zeros for
a cold start, or for example those the same regressions ended on at a
neighbouring lambda or on the previous EM iteration's scatter (a warm
start), which changes only how many rounds the solve takes wherever the
solution is unique. The dual weight KAPPA and the round cap MAX_ROUNDS
are the module constants of elastic_net. The selected supports are
joined into undirected edges by the AND or OR rule of Meinshausen &
Buhlmann (2006), for every scatter of the stack in one array operation;
each scatter's EdgeSet is built from its part of the joined upper
triangles.
"""
from __future__ import annotations

import warnings

import numpy as np

from .elastic_net import solve_gram
from .errors import ConfigError
from .matrices import EdgeSet

RULES = ("and", "or")


def select_edges(grams: np.ndarray, penalties, rule: str, signs: np.ndarray):
    """Run the p conditional regressions on each scatter or centered Gram
    of a stack and join their supports into undirected edges.

    grams is a stack of s scatters (s x p x p) and penalties a sequence of
    s PenaltyConfigs, one per scatter; all their regressions run as one
    solve, each under its own penalty. signs is an s x p x p int8 array:
    column j of signs[k] holds node j's starting signs on scatter k on
    its support and 0 off it (all zeros for a cold start). It is read,
    not written. Returns a list of s EdgeSets, in order, and the signs
    the solve ended on, as a new s x p x p int8 array of the same
    layout.

    "and" keeps (j,k) only when each node selected the other; "or" keeps
    it when either did, so the "and" set is always a subset of the "or"
    set. A regression that hits the round cap is kept (its support is
    still used); one warning per lambda names that lambda and those
    nodes.
    """
    rule = str(rule).lower()
    if rule not in RULES:
        raise ConfigError(f"rule must be one of {RULES}, got {rule!r}")
    p = np.shape(grams)[-1]
    fit = solve_gram(grams, np.arange(p), penalties, signs)
    end = np.sign(fit.coefficients).astype(np.int8)
    for k in np.flatnonzero(~fit.response_converged.all(axis=1)).tolist():
        bad = np.flatnonzero(~fit.response_converged[k])
        warnings.warn(f"lambda {penalties[k].lam:g}: regressions for {bad.size} of {p} nodes "
                      f"did not converge in {int(fit.response_rounds[k, bad].max())} rounds: "
                      f"nodes {bad.tolist()}")
    # chosen[k, j, i]: node i's regression on scatter k selects node j
    chosen = end != 0
    mutual = chosen.transpose(0, 2, 1)
    adj = chosen & mutual if rule == "and" else chosen | mutual
    # adj is symmetric, so its upper triangles hold every edge once
    adj &= np.arange(p)[:, None] < np.arange(p)
    k, j, i = np.unravel_index(np.flatnonzero(adj), adj.shape)
    parts = np.split(np.column_stack([j, i]), np.searchsorted(k, np.arange(1, len(end))))
    return [EdgeSet(p, part) for part in parts], end
