"""Output checks applied to every chosen fit, outside the timed region."""
from __future__ import annotations

import numpy as np

from parcornet.em import weighted_scatter
from parcornet.matrices import is_positive_definite

KKT_RTOL = 1e-6


def fit_violations(data, state) -> list:
    """Reasons the chosen fit of data is wrong; empty when it passes.

    The precision must be positive definite with exact zeros off the
    selected pattern, and its inverse must match the weighted scatter
    S = weighted_scatter(data, tau, mean) on the pattern and the diagonal
    to KKT_RTOL * max|S| (the stage-2 optimality conditions).
    """
    psi = np.asarray(state.psi.values)
    p = psi.shape[0]
    pattern = state.edges.to_adjacency() | np.eye(p, dtype=bool)
    out = []
    if not is_positive_definite(psi):
        out.append("precision is not positive definite")
        return out
    off = np.abs(psi[~pattern])
    if off.size and off.max() != 0.0:
        out.append(f"{int(np.count_nonzero(off))} nonzero entries off the selected pattern")
    s = weighted_scatter(data, state.tau, state.mean)
    gap = float(np.abs(np.linalg.inv(psi) - s)[pattern].max())
    limit = KKT_RTOL * float(np.abs(s).max())
    if not gap <= limit:
        out.append(f"KKT gap {gap:.3e} exceeds {limit:.3e}")
    return out
