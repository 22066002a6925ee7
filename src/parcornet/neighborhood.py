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
unique. A stack of scatters, each with its own penalty (the lambdas of
an EM iteration), runs as one such solve and gives one edge set per
scatter, each the one its scatter gives alone. The dual weight KAPPA
and the round cap MAX_ROUNDS are the module constants of elastic_net.
The selected supports are joined into undirected edges by the AND or OR
rule of Meinshausen & Buhlmann (2006).
"""
from __future__ import annotations

import warnings

import numpy as np

from .elastic_net import solve_gram
from .errors import ConfigError
from .matrices import EdgeSet

RULES = ("and", "or")


def select_edges(gram: np.ndarray, penalty, rule: str = "and", signs=None):
    """Run the p conditional regressions on a scatter or centered Gram of
    the data and join their supports into undirected edges.

    "and" keeps (j,k) only when each node selected the other; "or" keeps
    it when either did, so the "and" set is always a subset of the "or"
    set. A regression that hits the round cap is kept (its support is
    still used); one warning per lambda names that lambda and those
    nodes. signs, when given, is a p x p int8 array whose column j holds
    node j's signs on its support and 0 off it: the solve starts from it,
    and it is overwritten with the signs the solve ends on.

    gram may also be a stack of s scatters (s x p x p), with penalty a
    sequence of s PenaltyConfigs and signs, when given, a sequence of s
    sign arrays: all their regressions run as one solve, each under its
    own penalty, and one EdgeSet per scatter is returned, in order.
    """
    rule = str(rule).lower()
    if rule not in RULES:
        raise ConfigError(f"rule must be one of {RULES}, got {rule!r}")
    gram = np.asarray(gram, dtype=float)
    stacked = gram.ndim == 3
    penalties = list(penalty) if stacked else [penalty]
    starts = None if signs is None else list(signs) if stacked else [signs]
    p = gram.shape[-1]
    fit = solve_gram(gram, np.arange(p), penalties if stacked else penalty,
                     np.stack(starts) if stacked and signs is not None else signs)
    coefficients = fit.coefficients.reshape(-1, p, p)
    rounds = fit.response_rounds.reshape(-1, p)
    converged = fit.response_converged.reshape(-1, p)
    out = []
    for k, pen in enumerate(penalties):
        bad = np.flatnonzero(~converged[k])
        if bad.size:
            warnings.warn(f"lambda {pen.lam:g}: regressions for {bad.size} of {p} nodes did not "
                          f"converge in {int(rounds[k, bad].max())} rounds: nodes {bad.tolist()}")
        if starts is not None:
            starts[k][:] = np.sign(coefficients[k])
        chosen = coefficients[k] != 0.0
        adj = chosen & chosen.T if rule == "and" else chosen | chosen.T
        # adj is symmetric by construction, so its upper triangle holds every edge once
        out.append(EdgeSet(p, np.argwhere(np.triu(adj, k=1))))
    return out if stacked else out[0]
