"""Full-block covariance sweep: the reference for constrained_mle.fit.

reference_fit is the column sweep that constrained_mle.fit replaced: each
column update deletes the node from an index range, copies the whole
(p-1)x(p-1) block of the other nodes, multiplies it by the zero-padded
neighbor coefficients and solves the neighbor block by LU. The Cholesky
kernel must reproduce its sweep counts and zero patterns exactly and its
precision up to summation order.
"""
import numpy as np

from parcornet.constrained_mle import MAX_SWEEPS, W_TOL_SCALE, ConstrainedMLEResult
from parcornet.errors import DomainError, EstimationError
from parcornet.matrices import PrecisionMatrix, symmetrize

# Besides the mean change of W, reference_fit stops only once the pattern
# residual is at most this times max(max|S|, 1). That residual is rounding
# by construction, so the sweep counts still match constrained_mle.fit's.
KKT_RTOL = 1e-6


def kkt_residual(w, s, edges):
    """max |w_jk - s_jk| over the edge pattern plus the diagonal."""
    mask = edges.to_adjacency()
    np.fill_diagonal(mask, True)
    diff = np.abs(w - s)[mask]
    return float(diff.max()) if diff.size else 0.0


def _recover_precision(w, s, edges, neighbor_lists):
    p = s.shape[0]
    psi = np.zeros((p, p))
    for j in range(p):
        nb = neighbor_lists[j]
        if nb.size:
            try:
                beta = np.linalg.solve(w[np.ix_(nb, nb)], s[nb, j])
            except np.linalg.LinAlgError as exc:
                raise EstimationError(f"singular subproblem at node {j}") from exc
            gap = s[j, j] - float(s[nb, j] @ beta)
        else:
            beta = np.zeros(0)
            gap = s[j, j]
        if not np.isfinite(gap) or gap <= 0.0:
            raise EstimationError(f"nonpositive partial variance at node {j}: {gap:.3e}")
        psi[j, j] = 1.0 / gap
        psi[nb, j] = -beta / gap
    # averaging symmetrizes roundoff but keeps off-pattern entries exactly zero
    return 0.5 * (psi + psi.T)


def reference_fit(scatter, edges, w_init=None, tol_scale=W_TOL_SCALE,
                  max_sweeps=MAX_SWEEPS, kkt_rtol=KKT_RTOL):
    """constrained_mle.fit by full-block column updates and LU solves."""
    s = symmetrize(scatter, "scatter matrix")
    p = s.shape[0]
    if edges.p != p:
        raise EstimationError(f"edge set has p={edges.p}, scatter has p={p}")
    if np.diag(s).min() <= 0.0:
        raise DomainError("scatter matrix needs a strictly positive diagonal")

    adj = edges.to_adjacency()
    neighbor_lists = [np.nonzero(adj[j])[0] for j in range(p)]
    others = [np.delete(np.arange(p), j) for j in range(p)]

    if w_init is not None:
        w = symmetrize(w_init, "w_init")
        if w.shape != (p, p):
            raise EstimationError(f"w_init must have shape ({p},{p})")
        np.fill_diagonal(w, np.diag(s))
    else:
        w = s.copy()

    scale = max(float(np.abs(s).max()), 1.0)
    w_tol = tol_scale * float(np.abs(s).mean())
    n_off = max(p * (p - 1), 1)
    sweeps = 0
    while sweeps < max_sweeps:
        sweeps += 1
        change = 0.0
        for j in range(p):
            nb = neighbor_lists[j]
            oth = others[j]
            if nb.size:
                try:
                    beta_nb = np.linalg.solve(w[np.ix_(nb, nb)], s[nb, j])
                except np.linalg.LinAlgError as exc:
                    raise EstimationError(
                        f"singular edge subproblem at node {j}, sweep {sweeps}"
                    ) from exc
                beta = np.zeros(p - 1)
                pos = np.searchsorted(oth, nb)
                beta[pos] = beta_nb
                new_col = w[np.ix_(oth, oth)] @ beta
            else:
                new_col = np.zeros(p - 1)
            if not np.all(np.isfinite(new_col)):
                raise EstimationError(f"non-finite column update at node {j}, sweep {sweeps}")
            change += float(np.abs(new_col - w[oth, j]).sum())
            w[oth, j] = new_col
            w[j, oth] = new_col
        if change / n_off < w_tol:
            if kkt_residual(w, s, edges) <= kkt_rtol * scale:
                break
            # pattern residual still too large: keep sweeping
    else:
        raise EstimationError(
            f"covariance sweeps did not converge in {max_sweeps} iterations "
            f"(pattern residual {kkt_residual(w, s, edges):.3e})"
        )

    psi_vals = _recover_precision(w, s, edges, neighbor_lists)
    try:
        psi = PrecisionMatrix(psi_vals)
    except DomainError as exc:
        raise EstimationError(f"recovered precision is not positive definite: {exc}") from exc
    pattern = edges.to_adjacency()
    np.fill_diagonal(pattern, True)
    return ConstrainedMLEResult(psi, w, sweeps, s, pattern)
