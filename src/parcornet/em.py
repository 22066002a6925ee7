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

A lambda grid is fitted in one pass (estimate_grid; estimate is its
one-lambda case). Every lambda starts from the same state, and a
lambda's next iteration depends only on its scatter, its edge set and
its previous fit, so lambdas whose edge sets have agreed at every
iteration so far are one group: each group's E-step and scatter are
computed once per iteration, and so is the constrained fit of each
distinct edge set within it. Stage 1 still runs once per lambda, but
warm-started: from the supports and signs the lambda ended on at its
previous iteration, or at its first (and in gaussian mode) from those of
the grid neighbour just solved on the same scatter. The elastic-net
solution is unique whenever lam(1-alpha) > 0 or its support blocks are
positive definite, so the edge sets, and with them every state, are the
same as from independent fits with cold starts; only the active-set
rounds drop (pathwise warm starts as in glmnet, Friedman, Hastie &
Tibshirani 2010).
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


@dataclass(frozen=True)
class EMState:
    """A fitted state. Lambdas that end together share one EMState, so it
    is frozen and its arrays, psi's included, are read-only copies."""

    mean: np.ndarray
    psi: PrecisionMatrix
    tau: np.ndarray
    edges: EdgeSet
    iterations: int
    max_change: float
    converged: bool

    def __post_init__(self):
        for name in ("mean", "tau"):
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

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


def _constrained_fit(scatter: np.ndarray, edges: EdgeSet, w_init):
    """The constrained fit to the scatter on edges, warm-started from w_init."""
    try:
        return constrained_mle.fit(scatter, edges, w_init=w_init)
    except EstimationError:
        if w_init is None:
            raise
        # warm start can stall after a pattern change: retry cold
        return constrained_mle.fit(scatter, edges, w_init=None)


def _m_step(scatter, members, penalties, rule, signs, w_init):
    """Neighborhood selection on one scatter for each lambda in members,
    then one constrained fit per distinct edge set.

    Yields (lambdas, edges, fit) per edge set, where fit is the
    ConstrainedMLEResult or the EstimationError it raised. Lambdas run
    from the largest down. A lambda's regressions start from signs[i],
    the signs they ended on at its previous step, or when it has none
    from those of the lambda just solved on this scatter; signs[i] is
    updated in place.
    """
    by_edges = {}
    last = None
    for i in sorted(members, key=lambda k: penalties[k].lam, reverse=True):
        if signs[i] is None:
            signs[i] = np.zeros(scatter.shape, dtype=np.int8) if last is None else last.copy()
        edges = select_edges(scatter, penalties[i], rule, signs[i])
        last = signs[i]
        by_edges.setdefault(edges, []).append(i)
    for edges, shared in by_edges.items():
        try:
            fit = _constrained_fit(scatter, edges, w_init)
        except EstimationError as exc:
            fit = exc
        yield sorted(shared), edges, fit


def estimate_grid(data: Dataset, lams, config: EMConfig) -> list:
    """Run the estimator at every lambda in lams, all in one pass.

    Returns one entry per lambda, in order: its EMState, or the
    EstimationError that ended its fit. Each entry equals what estimate
    returns or raises at that lambda alone. Raises DataError first, in
    either mode, for a constant column or an exactly collinear column
    pair (check_columns).

    The lambdas run their EM iterations in lockstep. Lambdas whose edge
    sets have agreed at every iteration so far share one scatter, one
    E-step and one constrained fit per iteration, and those that end
    together share one EMState object. Stage 1 warm-starts from the
    supports each lambda ended on at its previous iteration, or at its
    first from those of the grid neighbour just solved on the same
    scatter.
    """
    if not isinstance(data, Dataset):
        data = Dataset(np.asarray(data, dtype=float))
    n = data.n
    tau = np.ones(n)
    mean = data.values.mean(axis=0)
    scatter = weighted_scatter(data, tau, mean)
    check_columns(data, scatter)
    penalties = [PenaltyConfig(config.penalty.alpha, lam) for lam in lams]
    signs = [None] * len(penalties)
    out = [None] * len(penalties)

    if config.mode == "gaussian":
        for shared, edges, fit in _m_step(scatter, range(len(penalties)), penalties,
                                          config.rule, signs, None):
            if not isinstance(fit, EstimationError):
                fit = EMState(mean, fit.psi, tau, edges, 1, 0.0, True)
            for i in shared:
                out[i] = fit
        return out

    nu = config.nu
    # (lambdas, mean, psi, covariance of the last fit) per group sharing a history
    groups = [(range(len(penalties)), mean, _initial_psi(scatter, nu / (nu - 2.0)), None)]
    # EMConfig rejects max_iter < 1, so every lambda gets an entry
    for it in range(1, config.max_iter + 1):
        going = []
        for members, mean, psi, w_prev in groups:
            tau = expected_scales(data, mean, psi, nu)
            tau *= n / tau.sum()
            mean = weighted_mean(data, tau)
            scatter = weighted_scatter(data, tau, mean)
            for shared, edges, fit in _m_step(scatter, members, penalties, config.rule, signs,
                                              w_prev):
                if isinstance(fit, EstimationError):
                    result = EstimationError(f"iteration {it}: {fit}")
                    result.__cause__ = fit
                else:
                    max_change = float(np.abs(fit.psi.values - psi.values).max())
                    converged = max_change < config.delta
                    if not converged and it < config.max_iter:
                        going.append((shared, mean, fit.psi, fit.covariance))
                        continue
                    result = EMState(mean, fit.psi, tau, edges, it, max_change, converged)
                for i in shared:
                    out[i] = result
        groups = going
        if not groups:
            break
    return out


def estimate(data: Dataset, config: EMConfig) -> EMState:
    """Run the estimator in the configured mode at config's lambda.

    This is estimate_grid on a one-lambda grid; an EstimationError for
    the lambda is raised.
    Gaussian mode: one pass with unit scales on the plain 1/n scatter.
    t mode: EM iterations until max |psi change| < delta or max_iter;
    the cap returns a state flagged converged=False rather than raising.
    Each iteration rescales the E-step scales to sum to n, so the scatter
    is sum_i tau_i (x_i - mean)(x_i - mean)^T / sum_i tau_i; the returned
    tau is the rescaled one that built the final scatter.
    """
    (result,) = estimate_grid(data, [config.penalty.lam], config)
    if isinstance(result, EstimationError):
        raise result
    return result
