"""Nelder-Mead AR(1)-GARCH(1,1) fit: the reference for pipeline.fit_ar_garch.

reference_fit is the derivative-free search that fit_ar_garch replaced:
the same parameterization, start point, restarts and acceptance rule,
with Nelder-Mead on the objective value alone (about 490 evaluations
per series). The BFGS fit must never end at a lower log-likelihood and
must agree on the parameters of interior optima.
"""
import numpy as np
from scipy import optimize

from parcornet.errors import DataError, FitError
from parcornet.pipeline import MIN_SERIES_LEN, GarchFit, _garch_sigma2, _logit, _sigmoid


def _unpack(theta):
    c = theta[0]
    phi = np.tanh(theta[1])
    omega = np.exp(theta[2])
    persist = _sigmoid(theta[3])
    frac = _sigmoid(theta[4])
    a = persist * frac
    b = persist * (1.0 - frac)
    return c, phi, omega, a, b


def _negloglik(theta, series):
    c, phi, omega, a, b = _unpack(theta)
    eps = series[1:] - c - phi * series[:-1]
    sig2 = _garch_sigma2(eps, omega, a, b)
    if not np.all(np.isfinite(sig2)) or sig2.min() <= 0.0:
        return np.inf
    nll = 0.5 * np.sum(np.log(2.0 * np.pi) + np.log(sig2) + eps**2 / sig2)
    return nll if np.isfinite(nll) else np.inf


def reference_fit(series) -> GarchFit:
    r = np.asarray(series, dtype=float).ravel()
    if r.size < MIN_SERIES_LEN:
        raise DataError(f"series too short: {r.size} < {MIN_SERIES_LEN}")
    if not np.all(np.isfinite(r)):
        raise DataError("series contains non-finite values")
    v = float(r.var())
    if v <= 0.0:
        raise FitError("series has zero variance")

    r0, r1 = r[:-1] - r[:-1].mean(), r[1:] - r[1:].mean()
    denom = float(r0 @ r0)
    phi0 = float(np.clip(r0 @ r1 / denom, -0.9, 0.9)) if denom > 0.0 else 0.0
    c0 = float(r.mean()) * (1.0 - phi0)
    eps_var = max(v * (1.0 - phi0**2), 1e-12)
    base = np.array([
        c0,
        np.arctanh(phi0),
        np.log(0.1 * eps_var),
        _logit(0.9),   # a + b
        _logit(1.0 / 9.0),  # a / (a + b)
    ])
    nudges = [
        np.zeros(5),
        np.array([0.0, 0.2, 0.5, -0.5, 0.5]),
        np.array([0.0, -0.2, -0.5, 0.5, -0.5]),
        np.array([0.0, 0.0, 1.0, -1.0, 1.0]),
        np.array([0.0, 0.0, -1.0, 1.5, -1.0]),
    ]
    last_reason = "no restart accepted"
    for nudge in nudges:
        res = optimize.minimize(
            _negloglik, base + nudge, args=(r,), method="Nelder-Mead",
            options={"maxiter": 4000, "xatol": 1e-7, "fatol": 1e-9},
        )
        if not np.isfinite(res.fun):
            last_reason = "non-finite objective"
            continue
        if not res.success:
            last_reason = "optimizer did not converge"
            continue
        c, phi, omega, a, b = _unpack(res.x)
        eps = r[1:] - c - phi * r[:-1]
        sig2 = _garch_sigma2(eps, omega, a, b)
        return GarchFit(c, phi, omega, a, b, -float(res.fun), eps / np.sqrt(sig2), sig2)
    raise FitError(f"AR-GARCH fit failed: {last_reason}")
