"""Plain cyclic coordinate descent: the reference for elastic_net.solve_gram.

reference_nodes regresses each listed Gram column on all the others by
glmnet-style coordinate descent, every response at once on the full Gram:
coordinates are visited in ascending order and each response's own
coordinate is pinned at 0. The active-set solve must reproduce its supports
exactly and its coefficients to within the reference's own stopping
tolerance. kkt_residuals is the certificate of a solve_gram result: each
response's largest subgradient violation, which is at rounding level when
the solve is exact.
"""
import numpy as np

# Stopping rule, relative to the problem scale (max of 1, |cross|_inf and
# the largest Gram diagonal): a sweep whose coefficient change is below
# COEF_TOL and whose subgradient residual is below KKT_TOL ends the descent.
COEF_TOL = 1e-10
KKT_TOL = 1e-10
MAX_SWEEPS = 10_000


def _violations(coefs, grad, penalty):
    thr = penalty.lam * penalty.alpha
    return np.where(coefs != 0.0, np.abs(grad + thr * np.sign(coefs)),
                    np.maximum(np.abs(grad) - thr, 0.0))


def kkt_residual(b, gram, cross, penalty):
    """Largest subgradient violation of b as the solution of one response."""
    grad = gram @ b - cross + penalty.lam * (1.0 - penalty.alpha) * b
    return float(_violations(b, grad, penalty).max(initial=0.0))


def kkt_residuals(coefs, gram, columns, penalty):
    """kkt_residual of each response of a solve_gram result on one Gram:
    column i of coefs regresses Gram column columns[i] on all the others."""
    columns = list(columns)
    grad = gram @ coefs - gram[:, columns] + penalty.lam * (1.0 - penalty.alpha) * coefs
    viol = _violations(coefs, grad, penalty)
    viol[columns, np.arange(len(columns))] = 0.0  # each response's own row
    return viol.max(axis=0, initial=0.0)


def reference_nodes(gram, columns, penalty):
    """Cyclic CD of every listed Gram column: (coefficients, sweeps, converged, scales).

    coefficients has one column per listed response, 0 in its own row, laid
    out like elastic_net.solve_gram's; scales are the per-response problem
    scales the stopping rule uses. The responses still descending are kept
    as one block of columns, which drops each response as it stops.
    """
    p, columns = gram.shape[0], np.asarray(list(columns), dtype=np.intp)
    r = columns.size
    free = np.ones((p, r), dtype=bool)
    free[columns, np.arange(r)] = False
    diag = np.diag(gram)
    cross = gram[:, columns]
    scales = np.maximum(1.0, np.where(free, np.maximum(np.abs(cross), diag[:, None]), 0.0)
                        .max(axis=0, initial=0.0))
    # a pinned coordinate, or one with no curvature, has an infinite denominator
    curv = diag + penalty.lam * (1.0 - penalty.alpha)
    denom = np.where(free & (curv > 0.0)[:, None], curv[:, None], np.inf)
    off = gram - np.diag(diag)
    thr = penalty.lam * penalty.alpha
    # coordinate j's step is soft(cross_j - z, thr) / denom_j with z the dot
    # of Gram row j (diagonal dropped) and b; soft(cross_j - z, thr) is
    # clip(z, cross_j - thr, cross_j + thr) - z
    lo, hi = cross - thr, cross + thr

    coefs = np.zeros((p, r))
    sweeps = np.full(r, MAX_SWEEPS)
    converged = np.zeros(r, dtype=bool)
    run, tol = np.arange(r), scales
    b, z, step = np.zeros((p, r)), np.empty(r), np.empty(r)
    rows = list(zip(off, lo, hi, denom, b))
    sweep = 0
    while run.size and sweep < MAX_SWEEPS:
        sweep += 1
        start = b.copy()
        for g, lo_j, hi_j, d, b_j in rows:
            np.dot(g, b, out=z)
            np.maximum(z, lo_j, out=step)
            np.minimum(step, hi_j, out=step)
            np.subtract(step, z, out=step)
            np.divide(step, d, out=b_j)
        done = np.abs(b - start).max(axis=0) < COEF_TOL * tol
        if not done.any():
            continue
        done &= kkt_residuals(b, gram, columns, penalty) <= KKT_TOL * tol
        coefs[:, run[done]] = b[:, done]
        sweeps[run[done]] = sweep
        converged[run[done]] = True
        keep = ~done
        run, columns, tol, z, step = run[keep], columns[keep], tol[keep], z[keep], step[keep]
        b, lo, hi, denom = b[:, keep], lo[:, keep], hi[:, keep], denom[:, keep]
        rows = list(zip(off, lo, hi, denom, b))
    coefs[:, run] = b
    return coefs, sweeps, converged, scales
