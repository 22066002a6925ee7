"""Plain t-mode EM: the reference for em.estimate's rescaled scale step.

reference_estimate is the t-mode loop that em.estimate replaced: the
E-step scales are used as they come, so the scatter is divided by n
rather than by sum(tau). Both schemes share their fixed points; where a
lambda leads both to the same edge set, a tight delta must bring them to
the same psi, and the rescaled loop must get there in far fewer
iterations.
"""
import numpy as np

from parcornet.em import (
    EMState,
    _constrained_fit,
    _initial_psi,
    expected_scales,
    weighted_mean,
    weighted_scatter,
)
from parcornet.errors import EstimationError
from parcornet.matrices import EdgeSet
from parcornet.neighborhood import select_edges


def reference_estimate(data, config, rescale=False):
    """em.estimate's t mode with the n denominator of plain EM.

    With rescale, the scales are rescaled to sum to n as em.estimate
    does, which makes this em.estimate's t mode at one lambda with every
    stage-1 solve started from 0.
    """
    n, p = data.n, data.p
    nu = config.nu
    tau = np.ones(n)
    mean = data.values.mean(axis=0)
    scatter = weighted_scatter(data, tau, mean)
    psi = _initial_psi(scatter, nu / (nu - 2.0))
    edges = EdgeSet(p)
    w_prev = None
    max_change = np.inf
    converged = False
    it = 0
    while it < config.max_iter:
        it += 1
        tau = expected_scales(data, mean, psi, nu)
        if rescale:
            tau *= n / tau.sum()
        mean = weighted_mean(data, tau)
        scatter = weighted_scatter(data, tau, mean)
        try:
            edges = select_edges(scatter, config.penalty, config.rule)
            res = _constrained_fit(scatter, edges, w_prev)
        except EstimationError as exc:
            raise EstimationError(f"iteration {it}: {exc}") from exc
        max_change = float(np.abs(res.psi.values - psi.values).max())
        psi = res.psi
        w_prev = res.covariance
        if max_change < config.delta:
            converged = True
            break
    return EMState(mean, psi, tau, edges, it, max_change, converged)
