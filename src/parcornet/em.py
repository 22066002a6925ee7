"""Two-stage sparse precision estimation inside an EM loop.

Each iteration re-estimates latent row scales for a t scale mixture,
rebuilds the weighted scatter, reruns neighborhood selection on that
scatter, and refits the zero-constrained MLE to it on the selected
pattern. Convergence is the max absolute entry change of the scatter
inverse between iterations. Gaussian mode is a single pass with all
row scales fixed at one.

In t mode the scales are rescaled to sum to n before the M-step, so the
scatter is divided by sum(tau) rather than n: the parameter-expanded EM
of Liu, Rubin & Wu (1998), which for the t scatter is the denominator of
Kent, Tyler & Vardi (1994). It needs far fewer iterations and has the
same fixed points. The constrained fit matches W to S on the pattern and
the diagonal, where psi is nonzero, so trace(psi S) = p, that is
sum_i tau_i d_i = p * (the scatter's denominator). At a fixed point
tau_i (nu + d_i) = nu + p also holds, and under either denominator the
two give sum_i tau_i = n, so the rescaling is the identity there.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import constrained_mle
from .elastic_net import PenaltyConfig
from .errors import ConfigError, DataError, DomainError, EstimationError, ShapeError
from .matrices import Dataset, EdgeSet, PrecisionMatrix
from .neighborhood import RULES, select_edges

MODES = ("gaussian", "t")
DELTA = 1e-4
MAX_ITER = 200
COLLINEAR_TOL = 1e-12


@dataclass(frozen=True)
class EMConfig:
    penalty: PenaltyConfig
    mode: str = "t"
    nu: float = 3.0
    rule: str = "and"
    delta: float = DELTA
    max_iter: int = MAX_ITER

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "t" and not self.nu > 2.0:
            raise ConfigError(f"t mode needs nu > 2, got {self.nu}")
        if str(self.rule).lower() not in RULES:
            raise ConfigError(f"rule must be one of {RULES}, got {self.rule!r}")
        if not self.delta > 0.0:
            raise ConfigError(f"delta must be > 0, got {self.delta}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")

    def with_lam(self, lam: float) -> "EMConfig":
        return replace(self, penalty=PenaltyConfig(self.penalty.alpha, lam))


@dataclass
class EMState:
    mean: np.ndarray
    psi: PrecisionMatrix
    tau: np.ndarray
    edges: EdgeSet
    iterations: int
    max_change: float
    converged: bool

    @property
    def p(self) -> int:
        return self.psi.p


def mahalanobis(data: Dataset, mean: np.ndarray, psi: PrecisionMatrix) -> np.ndarray:
    """Squared Mahalanobis distance of each row under (mean, psi)."""
    x = data.values - mean
    return np.einsum("ij,ij->i", x @ psi.values, x)


def expected_scales(data: Dataset, mean: np.ndarray, psi: PrecisionMatrix, nu: float) -> np.ndarray:
    """Posterior mean of each row's latent scale: (nu + p) / (nu + d_i).

    d_i is the squared Mahalanobis distance of row i under (mean, psi).
    """
    d = mahalanobis(data, mean, psi)
    if not np.all(np.isfinite(d)):
        bad = int(np.argwhere(~np.isfinite(d))[0][0])
        raise DataError(f"non-finite Mahalanobis distance at row {bad}")
    d = np.maximum(d, 0.0)  # clamp tiny negative roundoff
    return (nu + data.p) / (nu + d)


def weighted_mean(data: Dataset, tau: np.ndarray) -> np.ndarray:
    """Scale-weighted mean: sum_i tau_i x_i / sum_i tau_i."""
    return tau @ data.values / tau.sum()


def weighted_scatter(data: Dataset, tau: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """(1/n) sum_i tau_i (x_i - mean)(x_i - mean)^T."""
    x = data.values - mean
    return (x * tau[:, None]).T @ x / data.n


def check_columns(data: Dataset, scatter: np.ndarray) -> None:
    """Raise DataError for a constant column or an exactly collinear pair.

    scatter is the unit-weight scatter of data. Neither case can be
    estimated in any mode: a constant column has no scatter diagonal and
    a collinear pair makes every scatter singular.
    """
    names = data.names or range(data.p)
    const = np.flatnonzero(np.ptp(data.values, axis=0) == 0.0)
    if const.size:
        raise DataError(f"column {names[const[0]]!r} has zero variance")
    scale = np.sqrt(np.diag(scatter))
    corr = np.triu(np.abs(scatter) / np.outer(scale, scale), k=1)
    j, k = np.unravel_index(np.argmax(corr), corr.shape)
    if corr[j, k] >= 1.0 - COLLINEAR_TOL:
        raise DataError(f"columns {names[j]!r} and {names[k]!r} are collinear "
                        f"(|correlation| = {corr[j, k]:.15g})")


def _initial_psi(scatter: np.ndarray, factor: float) -> PrecisionMatrix:
    p = scatter.shape[0]
    ridge = 0.0
    ridge_step = 1e-6 * max(float(np.trace(scatter)) / p, 1.0)
    for _ in range(40):
        try:
            inv = np.linalg.inv(scatter + ridge * np.eye(p))
            return PrecisionMatrix(factor * inv)
        except (np.linalg.LinAlgError, DomainError, ShapeError):
            ridge = ridge_step if ridge == 0.0 else ridge * 10.0
    raise EstimationError("could not build an initial scatter inverse")


def _fit_step(scatter: np.ndarray, config: EMConfig, w_init):
    """Neighborhood selection on the scatter, then the constrained fit to it."""
    edges = select_edges(scatter, config.penalty, config.rule)
    try:
        res = constrained_mle.fit(scatter, edges, w_init=w_init)
    except EstimationError:
        if w_init is None:
            raise
        # warm start can stall after a pattern change: retry cold
        res = constrained_mle.fit(scatter, edges, w_init=None)
    return edges, res


def estimate(data: Dataset, config: EMConfig) -> EMState:
    """Run the estimator in the configured mode.

    Raises DataError first, in either mode, for a constant column or an
    exactly collinear column pair (check_columns).
    Gaussian mode: one pass with unit scales on the plain 1/n scatter.
    t mode: EM iterations until max |psi change| < delta or max_iter;
    the cap returns a state flagged converged=False rather than raising.
    Each iteration rescales the E-step scales to sum to n, so the scatter
    is sum_i tau_i (x_i - mean)(x_i - mean)^T / sum_i tau_i; the returned
    tau is the rescaled one that built the final scatter.
    """
    if not isinstance(data, Dataset):
        data = Dataset(np.asarray(data, dtype=float))
    n = data.n
    tau = np.ones(n)
    mean = data.values.mean(axis=0)
    scatter = weighted_scatter(data, tau, mean)
    check_columns(data, scatter)

    if config.mode == "gaussian":
        edges, res = _fit_step(scatter, config, None)
        return EMState(mean, res.psi, tau, edges, 1, 0.0, True)

    nu = config.nu
    psi = _initial_psi(scatter, nu / (nu - 2.0))
    w_prev = None
    converged = False
    # EMConfig rejects max_iter < 1, so edges and max_change are always bound
    for it in range(1, config.max_iter + 1):
        tau = expected_scales(data, mean, psi, nu)
        tau *= n / tau.sum()
        mean = weighted_mean(data, tau)
        scatter = weighted_scatter(data, tau, mean)
        try:
            edges, res = _fit_step(scatter, config, w_prev)
        except EstimationError as exc:
            raise EstimationError(f"iteration {it}: {exc}") from exc
        max_change = float(np.abs(res.psi.values - psi.values).max())
        psi = res.psi
        w_prev = res.covariance
        if max_change < config.delta:
            converged = True
            break
    return EMState(mean, psi, tau, edges, it, max_change, converged)
