"""Scalar per-node coordinate descent: the reference for elastic_net.solve_gram.

reference_solve is one response's cyclic coordinate descent written as a
plain loop over coordinates; reference_nodes runs it once per listed Gram
column, slicing the Gram as a per-node neighborhood regression would. The
active-set solve must reproduce its supports exactly and its coefficients
to within the reference's own stopping tolerance. kkt_residuals is the
certificate of a solve_gram result: each response's largest subgradient
violation, which is at rounding level when the solve is exact.
"""
import numpy as np

# Stopping rule, relative to the problem scale (max of 1, |cross|_inf and
# the largest Gram diagonal): a sweep whose coefficient change is below
# COEF_TOL and whose subgradient residual is below KKT_TOL ends the descent.
COEF_TOL = 1e-10
KKT_TOL = 1e-10
MAX_SWEEPS = 10_000


def _soft(z, thr):
    if z > thr:
        return z - thr
    if z < -thr:
        return z + thr
    return 0.0


def kkt_residual(b, gram, cross, penalty):
    """Largest subgradient violation of b as the solution of one response."""
    grad = gram @ b - cross + penalty.lam * (1.0 - penalty.alpha) * b
    thr = penalty.lam * penalty.alpha
    res = 0.0
    for j in range(b.size):
        if b[j] != 0.0:
            res = max(res, abs(grad[j] + thr * np.sign(b[j])))
        else:
            res = max(res, max(0.0, abs(grad[j]) - thr))
    return float(res)


def kkt_residuals(coefs, gram, columns, penalty):
    """kkt_residual of each response of a solve_gram result on one Gram:
    column i of coefs regresses Gram column columns[i] on all the others."""
    p = gram.shape[0]
    res = []
    for i, k in enumerate(columns):
        others = np.delete(np.arange(p), k)
        res.append(kkt_residual(coefs[others, i], gram[np.ix_(others, others)], gram[others, k],
                                penalty))
    return np.array(res)


def reference_solve(gram, cross, penalty):
    """(coefficients, sweeps, converged) of one response, by scalar CD."""
    m = gram.shape[0]
    b = np.zeros(m)
    thr = penalty.lam * penalty.alpha
    denom = np.diag(gram) + penalty.lam * (1.0 - penalty.alpha)
    scale = max(1.0, float(np.abs(cross).max(initial=0.0)), float(np.diag(gram).max(initial=0.0)))
    sweeps = 0
    converged = False
    while sweeps < MAX_SWEEPS:
        sweeps += 1
        delta = 0.0
        for j in range(m):
            bj_old = b[j]
            g = cross[j] - float(gram[j] @ b) + gram[j, j] * bj_old
            bj = _soft(g, thr) / denom[j] if denom[j] > 0.0 else 0.0
            if bj != bj_old:
                b[j] = bj
                delta = max(delta, abs(bj - bj_old))
        if delta < COEF_TOL * scale and kkt_residual(b, gram, cross, penalty) <= KKT_TOL * scale:
            converged = True
            break
    return b, sweeps, converged


def reference_nodes(gram, columns, penalty):
    """Per-node loop over Gram columns: (coefficients, sweeps, converged, scales).

    coefficients has one column per listed response, 0 in its own row, laid
    out like elastic_net.solve_gram's; scales are the per-response problem
    scales the stopping rule uses.
    """
    p = gram.shape[0]
    coefs = np.zeros((p, len(columns)))
    sweeps, converged, scales = [], [], []
    for i, k in enumerate(columns):
        others = np.delete(np.arange(p), k)
        sub = gram[np.ix_(others, others)]
        cross = gram[others, k]
        b, s, ok = reference_solve(sub, cross, penalty)
        coefs[others, i] = b
        sweeps.append(s)
        converged.append(ok)
        scales.append(max(1.0, float(np.abs(cross).max(initial=0.0)),
                          float(np.diag(sub).max(initial=0.0))))
    return coefs, np.array(sweeps), np.array(converged), np.array(scales)
