"""Elastic-net regression by cyclic coordinate descent.

Minimizes

    (1/2n) ||y - a - X b||^2 + lam * (alpha ||b||_1 + (1-alpha)/2 ||b||_2^2)

with the intercept a left unpenalized. Columns are NOT standardized
internally; the penalty acts on the coefficients as given. The solver
works on centered second moments (Gram form). solve_gram regresses
several columns of one Gram on all its other columns at once: the
coefficients form a matrix with one column per response and a zero in
each response's own row, and each coordinate update is one row-times-
block product over the responses still running. solve is its
one-response case, on the Gram of [X, y]. The sweep cap and the two
tolerances are the module constants below, read at call time.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DomainError, ShapeError

# Tolerances are relative to the problem scale (max of 1, |cross|_inf and
# the largest Gram diagonal). 1e-10 rather than the looser 1e-7 a sweep
# test alone would need: the returned coefficients must agree with the
# normal-equations solution to 1e-8 and a 1e-7 stationarity residual
# cannot certify that.
COEF_TOL = 1e-10
KKT_TOL = 1e-10
MAX_SWEEPS = 10_000


@dataclass(frozen=True)
class PenaltyConfig:
    """Mixing weight alpha in [0, 1] and overall strength lam >= 0."""

    alpha: float
    lam: float

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if not (self.lam >= 0.0 and np.isfinite(self.lam)):
            raise ConfigError(f"lam must be finite and >= 0, got {self.lam}")


@dataclass
class ElasticNetFit:
    coefficients: np.ndarray
    intercept: float
    objective: float
    sweeps: int
    converged: bool
    kkt_residual: float


@dataclass
class GramFit:
    """Coordinate descent on several responses of one Gram.

    Column i of coefficients regresses Gram column columns[i] on all the
    others; its own row is 0. The response_* arrays hold each response's
    sweep count, convergence flag and subgradient residual.
    """

    coefficients: np.ndarray
    response_sweeps: np.ndarray
    response_converged: np.ndarray
    response_kkt: np.ndarray

    @property
    def sweeps(self) -> int:
        """Sweeps summed over the responses."""
        return int(self.response_sweeps.sum())

    @property
    def converged(self) -> bool:
        """True only when every response converged."""
        return bool(self.response_converged.all())


def penalty_value(b: np.ndarray, penalty: PenaltyConfig) -> float:
    """lam * (alpha ||b||_1 + (1-alpha)/2 ||b||_2^2)."""
    l1 = float(np.abs(b).sum())
    l2 = float(b @ b)
    return penalty.lam * (penalty.alpha * l1 + 0.5 * (1.0 - penalty.alpha) * l2)


def _gram_objective(b, gram, cross, y_var, penalty):
    # (1/2n)||y_c - X_c b||^2 expressed through centered moments
    quad = 0.5 * (y_var - 2.0 * float(cross @ b) + float(b @ gram @ b))
    return quad + penalty_value(b, penalty)


def _kkt_residuals(b, gram, cols, penalty):
    """Largest subgradient violation in each column of b (responses cols)."""
    grad = gram @ b - gram[:, cols] + penalty.lam * (1.0 - penalty.alpha) * b
    thr = penalty.lam * penalty.alpha
    res = np.where(b != 0.0, np.abs(grad + thr * np.sign(b)), np.maximum(np.abs(grad) - thr, 0.0))
    res[cols, np.arange(cols.size)] = 0.0  # a response is not one of its own coordinates
    return res.max(axis=0, initial=0.0)


def solve_gram(
    gram: np.ndarray,
    columns,
    penalty: PenaltyConfig,
    b0: np.ndarray | None = None,
) -> GramFit:
    """Regress each listed column of a centered Gram on all its other columns.

    gram is X_c^T X_c / n. Column i of the result holds the coefficients
    of response columns[i], with its own row held at 0; b0 of the same
    shape warm-starts it. Exact zeros come from the soft-threshold update,
    and a coordinate with no curvature (zero variance, no ridge term)
    stays at 0. Each response stops on its own scale, max(1, |cross|_inf,
    largest diagonal of the other columns): it is frozen after the first
    sweep whose coefficient change is below COEF_TOL AND whose subgradient
    residual is below KKT_TOL, both times that scale. A response still
    running after MAX_SWEEPS is returned unconverged.
    """
    gram = np.asarray(gram, dtype=float)
    p = gram.shape[0]
    cols = np.asarray(columns, dtype=np.intp).reshape(-1)
    r = cols.size
    own = (cols, np.arange(r))
    b = np.zeros((p, r)) if b0 is None else np.array(b0, dtype=float)
    if b.shape != (p, r):
        raise ShapeError(f"b0 must have shape ({p},{r}), got {b.shape}")
    b[own] = 0.0
    thr = penalty.lam * penalty.alpha
    diag = np.diag(gram)
    denom = (diag + penalty.lam * (1.0 - penalty.alpha)).tolist()
    off = gram - np.diag(diag)  # off[j] @ b leaves coordinate j out
    # each response's scale: max(1, |cross|_inf, largest diagonal of the others)
    peaks = np.maximum(np.abs(gram[:, cols]), diag[:, None])
    peaks[own] = 0.0
    scale = np.maximum(peaks.max(axis=0, initial=0.0), 1.0)
    tol_eff = COEF_TOL * scale
    kkt_eff = KKT_TOL * scale
    sweeps = np.zeros(r, dtype=np.int64)
    converged = np.zeros(r, dtype=bool)
    live = np.arange(r)  # responses still running
    sweep = 0
    while live.size and sweep < MAX_SWEEPS:
        # work on a compact copy of the running responses until one converges
        w = b[:, live]
        cross = gram[:, cols[live]]
        slot = [None] * p  # slot[j]: the running response whose own column is j
        for i, c in enumerate(cols[live].tolist()):
            slot[c] = i
        done = np.zeros(live.size, dtype=bool)
        while not done.any() and sweep < MAX_SWEEPS:
            sweep += 1
            start = w.copy()
            for j in range(p):
                # partial residual correlation with column j, every response at once
                g = cross[j] - off[j] @ w
                if denom[j] > 0.0:
                    g -= np.minimum(np.maximum(g, -thr), thr)  # soft-threshold
                    np.divide(g, denom[j], out=w[j])
                else:
                    w[j] = 0.0  # degenerate column: no variance and no curvature
                if slot[j] is not None:
                    w[j, slot[j]] = 0.0
            # each coordinate is updated once a sweep: its step is its change over the sweep
            delta = np.abs(w - start).max(axis=0)
            small = np.flatnonzero(delta < tol_eff[live])
            if small.size:
                kkt = _kkt_residuals(w[:, small], gram, cols[live[small]], penalty)
                done[small] = kkt <= kkt_eff[live[small]]
        b[:, live] = w
        sweeps[live] = sweep
        converged[live[done]] = True
        live = live[~done]
    if not np.all(np.isfinite(b)):
        raise DomainError("elastic net coefficients are non-finite")
    return GramFit(b, sweeps, converged, _kkt_residuals(b, gram, cols, penalty))


def solve(
    design: np.ndarray,
    response: np.ndarray,
    penalty: PenaltyConfig,
) -> ElasticNetFit:
    """Fit the penalized regression of response on design with an intercept."""
    x = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    if x.ndim != 2:
        raise ShapeError(f"design must be 2-d, got shape {x.shape}")
    n, m = x.shape
    if y.shape != (n,):
        raise ShapeError(f"response must have shape ({n},), got {y.shape}")
    if n < 2:
        raise ShapeError("need at least 2 observations")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DataError("design or response contains non-finite values")
    x_mean = x.mean(axis=0)
    y_mean = float(y.mean())
    xc = x - x_mean
    yc = y - y_mean
    # the Gram of [X, y], built from blocks so that its cross column is
    # exactly the one lambda_max computes
    gram = np.empty((m + 1, m + 1))
    gram[:m, :m] = xc.T @ xc / n
    gram[:m, m] = gram[m, :m] = xc.T @ yc / n
    gram[m, m] = float(yc @ yc) / n
    fit = solve_gram(gram, [m], penalty)
    b = fit.coefficients[:m, 0].copy()
    obj = _gram_objective(b, gram[:m, :m], gram[:m, m], gram[m, m], penalty)
    if not np.isfinite(obj):
        raise DomainError("elastic net objective is non-finite")
    # unpenalized intercept recovered from the centering identity
    intercept = y_mean - float(x_mean @ b)
    return ElasticNetFit(b, intercept, obj, fit.sweeps, fit.converged, float(fit.response_kkt[0]))


def lambda_max(design: np.ndarray, response: np.ndarray, alpha: float) -> float:
    """Smallest lam at which the all-zero coefficient vector is optimal.

    max_j |x_j^T (y - ybar)| / (n * alpha), using centered columns.
    """
    if alpha <= 0.0:
        raise DomainError("lambda_max needs alpha > 0 (pure ridge never zeroes out)")
    x = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    n = x.shape[0]
    xc = x - x.mean(axis=0)
    yc = y - y.mean()
    peak = float(np.abs(xc.T @ yc / n).max())
    lam = peak / alpha
    # nudge up by ulps so lam * alpha >= peak holds in float arithmetic,
    # making "b = 0 at every lam >= lambda_max" exact rather than approximate
    while lam * alpha < peak:
        lam = np.nextafter(lam, np.inf)
    return float(lam)
