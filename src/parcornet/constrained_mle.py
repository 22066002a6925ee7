"""Gaussian maximum likelihood over precision matrices with a fixed zero pattern.

Given a scatter matrix S and an edge set E, maximizes

    log det(Psi) - trace(S Psi)

subject to psi_jk = 0 for all off-diagonal (j,k) not in E. The solver
sweeps the working covariance W column by column (regression form of the
concentration-graph MLE): each column's non-edge entries are left free
while its edge entries are matched to S. A column update solves the
node's neighbor block W[nb, nb] beta = S[nb, j] by Cholesky and sets the
column to W[:, nb] beta, so it reads only the neighbor columns of W. The
neighbor index arrays are built once per fit. Every column update sets W
to S on the edge pattern and the diagonal up to rounding, so the sweeps
stop on one rule, the mean change of W. At the optimum W = Psi^{-1}; Psi is
recovered column-wise from the same neighbor solves, with exact zeros off
the pattern, and its optimality gap max |inv(Psi) - S| on the pattern and
the diagonal is measured once, at the end. The sweep cap and the change
tolerance are the module constants below, read at call time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import DomainError, EstimationError
from .matrices import EdgeSet, PrecisionMatrix, symmetrize

W_TOL_SCALE = 1e-8
MAX_SWEEPS = 500


@dataclass
class ConstrainedMLEResult:
    psi: PrecisionMatrix
    covariance: np.ndarray
    sweeps: int
    kkt_residual: float  # max |inv(psi) - S| over the pattern and the diagonal


def _neighbor_solve(w, block, rhs, j, sweep):
    """Solve W[nb, nb] beta = S[nb, j] for node j by Cholesky.

    block holds the flat indices of W[nb, nb] into W and rhs is S[nb, j].
    """
    _, beta, info = lapack.dposv(w.take(block), rhs)
    if info:
        raise EstimationError(
            f"edge subproblem at node {j}, sweep {sweep} is singular or not positive definite"
        )
    return beta


def _recover_precision(w, s, nodes, sweep):
    p = s.shape[0]
    psi = np.zeros((p, p))
    for j, nb, block, rhs in nodes:
        beta = _neighbor_solve(w, block, rhs, j, sweep) if nb.size else rhs
        gap = s[j, j] - float(rhs @ beta)
        if not np.isfinite(gap) or gap <= 0.0:
            raise EstimationError(f"nonpositive partial variance at node {j}: {gap:.3e}")
        psi[j, j] = 1.0 / gap
        psi[nb, j] = -beta / gap
    # averaging symmetrizes roundoff but keeps off-pattern entries exactly zero
    return 0.5 * (psi + psi.T)


def fit(
    scatter,
    edges: EdgeSet,
    w_init: np.ndarray | None = None,
) -> ConstrainedMLEResult:
    """Fit the zero-constrained precision matrix for the given scatter.

    w_init warm-starts the working covariance (its diagonal is reset to
    the scatter's). It is copied as given, so it must be exactly
    symmetric, as the covariance of a previous fit is. The sweeps stop
    when the mean absolute change of the off-diagonal of W falls below
    W_TOL_SCALE times mean |S|; exhausting MAX_SWEEPS first raises
    EstimationError with the last change, as do neighbor blocks that are
    singular or not positive definite, non-finite column updates,
    nonpositive partial variances and a recovered precision that is not
    positive definite. The result's kkt_residual is the optimality gap
    max |inv(Psi) - S| over the edge pattern plus the diagonal, in the
    units of S.
    """
    s = symmetrize(scatter, "scatter matrix")
    p = s.shape[0]
    if edges.p != p:
        raise EstimationError(f"edge set has p={edges.p}, scatter has p={p}")
    if np.diag(s).min() <= 0.0:
        raise DomainError("scatter matrix needs a strictly positive diagonal")

    mask = edges.to_adjacency()
    # per node: its neighbors, their block as flat indices into W, and S[nb, j]
    nodes = []
    for j in range(p):
        nb = np.flatnonzero(mask[j])
        nodes.append((j, nb, nb[:, None] * p + nb, s[nb, j]))

    if w_init is not None:
        w = np.array(w_init, dtype=float)
        if w.shape != (p, p):
            raise EstimationError(f"w_init must have shape ({p},{p})")
        np.fill_diagonal(w, np.diag(s))
    else:
        w = s.copy()

    w_tol = W_TOL_SCALE * float(np.abs(s).mean())
    n_off = max(p * (p - 1), 1)
    mean_change = math.inf
    for sweeps in range(1, MAX_SWEEPS + 1):
        change = 0.0
        for j, nb, block, rhs in nodes:
            if nb.size:
                col = w[:, nb] @ _neighbor_solve(w, block, rhs, j, sweeps)
            else:
                col = np.zeros(p)
            col[j] = s[j, j]
            # w is exactly symmetric and stays finite, so a non-finite
            # column shows in its change against row j
            step = float(np.abs(col - w[j]).sum())
            if not math.isfinite(step):
                raise EstimationError(f"non-finite column update at node {j}, sweep {sweeps}")
            change += step
            w[:, j] = col
            w[j] = col
        mean_change = change / n_off
        if mean_change < w_tol:
            break
    else:
        raise EstimationError(
            f"covariance sweeps did not converge in {MAX_SWEEPS} iterations "
            f"(mean change {mean_change:.3e}, tolerance {w_tol:.3e})"
        )

    psi_vals = _recover_precision(w, s, nodes, sweeps)
    try:
        psi = PrecisionMatrix(psi_vals)
    except DomainError as exc:
        raise EstimationError(f"recovered precision is not positive definite: {exc}") from exc
    np.fill_diagonal(mask, True)
    gap = float(np.abs(np.linalg.inv(psi.values) - s)[mask].max())
    return ConstrainedMLEResult(psi, w, sweeps, gap)
