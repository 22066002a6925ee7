"""Scalar per-node coordinate descent: the reference for elastic_net.solve_gram.

reference_solve is one response's cyclic coordinate descent written as a
plain loop over coordinates; reference_nodes runs it once per listed Gram
column, slicing the Gram as a per-node neighborhood regression would. The
block kernel must reproduce its supports and sweep counts exactly.
"""
import numpy as np

from parcornet.elastic_net import COEF_TOL, KKT_TOL, MAX_SWEEPS


def _soft(z, thr):
    if z > thr:
        return z - thr
    if z < -thr:
        return z + thr
    return 0.0


def _kkt_residual(b, gram, cross, penalty):
    grad = gram @ b - cross + penalty.lam * (1.0 - penalty.alpha) * b
    thr = penalty.lam * penalty.alpha
    res = 0.0
    for j in range(b.size):
        if b[j] != 0.0:
            res = max(res, abs(grad[j] + thr * np.sign(b[j])))
        else:
            res = max(res, max(0.0, abs(grad[j]) - thr))
    return float(res)


def reference_solve(gram, cross, penalty, tol=COEF_TOL, max_sweeps=MAX_SWEEPS,
                    kkt_tol=KKT_TOL, b0=None):
    """(coefficients, sweeps, converged) of one response, by scalar CD."""
    m = gram.shape[0]
    b = np.zeros(m) if b0 is None else np.array(b0, dtype=float, copy=True)
    thr = penalty.lam * penalty.alpha
    denom = np.diag(gram) + penalty.lam * (1.0 - penalty.alpha)
    scale = max(1.0, float(np.abs(cross).max(initial=0.0)), float(np.diag(gram).max(initial=0.0)))
    sweeps = 0
    converged = False
    while sweeps < max_sweeps:
        sweeps += 1
        delta = 0.0
        for j in range(m):
            bj_old = b[j]
            g = cross[j] - float(gram[j] @ b) + gram[j, j] * bj_old
            bj = _soft(g, thr) / denom[j] if denom[j] > 0.0 else 0.0
            if bj != bj_old:
                b[j] = bj
                delta = max(delta, abs(bj - bj_old))
        if delta < tol * scale and _kkt_residual(b, gram, cross, penalty) <= kkt_tol * scale:
            converged = True
            break
    return b, sweeps, converged


def reference_nodes(gram, columns, penalty, max_sweeps=MAX_SWEEPS, b0=None):
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
        start = None if b0 is None else b0[others, i]
        b, s, ok = reference_solve(sub, cross, penalty, max_sweeps=max_sweeps, b0=start)
        coefs[others, i] = b
        sweeps.append(s)
        converged.append(ok)
        scales.append(max(1.0, float(np.abs(cross).max(initial=0.0)),
                          float(np.diag(sub).max(initial=0.0))))
    return coefs, np.array(sweeps), np.array(converged), np.array(scales)
