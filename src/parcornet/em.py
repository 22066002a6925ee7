"""Two-stage sparse precision estimation inside an EM loop.

Each iteration re-estimates latent row scales for a t scale mixture,
rebuilds the weighted scatter, reruns neighborhood selection on that
scatter, and refits the zero-constrained MLE to it on the selected
pattern. Convergence is the max absolute entry change of the scatter
inverse between iterations. Gaussian mode fixes every row scale at one
and ends each lambda at its first iteration.

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
iteration so far are one group. A group's scatter is formed when the
group forms: in gaussian mode it has unit weights, in t mode it comes
from the E-step under the initial psi or the fit that formed the group.
Every lambda keeps the supports and signs its stage-1 regressions ended
on, all in one L x p x p array. An iteration runs stage 1 for all
lambdas of all groups as one stacked solve (select_edges on a stack of
scatters, one penalty each), each lambda warm-started from the signs it
ended on at its previous iteration, then fits each distinct edge set
within a group once; an edge set that goes on forms a group of the next
iteration. At the first iteration, the only one in gaussian mode, there
is one scatter and no lambda has such signs yet: the lambdas run one at
a time, from the largest down, each starting from the signs of the grid
neighbour just solved (pathwise warm starts as in glmnet, Friedman,
Hastie & Tibshirani 2010), and the largest from all zeros. The
elastic-net solution is unique whenever lam(1-alpha) > 0 or its support
blocks are positive definite, and each regression of a stacked solve is
decided on its own scatter and penalty alone, so the edge sets, and with
them every state, are the same as from independent fits with cold
starts; only the number of solver calls and active-set rounds drops.
For selection.select in gaussian mode, the distinct edge sets are fitted
best-first on a bound on their BIC, and those that cannot win are left
unfinished (estimate_grid).
"""
from __future__ import annotations

import heapq
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


@dataclass(frozen=True, slots=True)
class EMState:
    """A fitted state. Lambdas that end together share one EMState, so it
    is frozen and its arrays, psi's included, are read-only: mean and tau
    are copied unless they already are read-only float arrays, which are
    kept as given (gaussian states share one unit-scale tau)."""

    mean: np.ndarray
    psi: PrecisionMatrix
    tau: np.ndarray
    edges: EdgeSet
    iterations: int
    max_change: float
    converged: bool

    def __post_init__(self):
        for name in ("mean", "tau"):
            a = getattr(self, name)
            if not (isinstance(a, np.ndarray) and a.dtype == float and not a.flags.writeable):
                a = np.array(a, dtype=float)
                a.setflags(write=False)
                object.__setattr__(self, name, a)

    @property
    def p(self) -> int:
        return self.psi.p


@dataclass(frozen=True)
class SkippedFit:
    """A lambda whose stage-2 fit estimate_grid left unfinished: no fit to
    edges can score below bound, and a state fitted before it already does."""

    edges: EdgeSet
    bound: float


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
    """(1/n) sum_i tau_i (x_i - mean)(x_i - mean)^T, exactly symmetric.

    The product is not symmetric bit for bit, so it is averaged with its
    transpose here, once, by the formula of matrices.symmetrize; every
    stage-2 fit to the scatter then takes symmetrize's copy path. The
    average cannot overflow where the product did not: each entry is a
    finite sum divided by n >= 2, so it is at most np.finfo(float).max / 2
    in magnitude, below the entries symmetrize's average overflows.
    """
    x = data.values - mean
    s = (x * tau[:, None]).T @ x / data.n
    return 0.5 * (s + s.T)


def check_columns(data: Dataset, scatter: np.ndarray) -> None:
    """Raise DataError for a constant column, a column out of floating-point
    range, or an exactly collinear pair.

    scatter is the unit-weight scatter of data. None of these can be
    estimated in any mode: a constant column has no scatter diagonal, a
    column whose scatter diagonal overflows or falls below the smallest
    normal float (np.finfo(float).tiny) has none that arithmetic can use,
    and a collinear pair makes every scatter singular.
    """
    names = data.names or range(data.p)
    const = np.flatnonzero(np.ptp(data.values, axis=0) == 0.0)
    if const.size:
        raise DataError(f"column {names[const[0]]!r} has zero variance")
    diag = np.diag(scatter)
    bad = np.flatnonzero(~(np.isfinite(diag) & (diag >= np.finfo(float).tiny)))
    if bad.size:
        raise DataError(f"column {names[bad[0]]!r} is out of floating-point range: its "
                        f"variance {diag[bad[0]]:.3g} is not a finite normal float; "
                        "rescale the data")
    scale = np.sqrt(diag)
    corr = np.triu(np.abs(scatter) / np.outer(scale, scale), k=1)
    j, k = np.unravel_index(np.argmax(corr), corr.shape)
    if corr[j, k] >= 1.0 - COLLINEAR_TOL:
        raise DataError(f"columns {names[j]!r} and {names[k]!r} are collinear "
                        f"(|correlation| = {corr[j, k]:.15g})")


def _e_step(data: Dataset, mean: np.ndarray, psi: PrecisionMatrix, nu: float):
    """(tau, mean, scatter) of the E-step under (mean, psi), tau rescaled to sum to n."""
    tau = expected_scales(data, mean, psi, nu)
    tau *= data.n / tau.sum()
    mean = weighted_mean(data, tau)
    return tau, mean, weighted_scatter(data, tau, mean)


def _initial_psi(scatter: np.ndarray, factor: float) -> PrecisionMatrix:
    p = scatter.shape[0]
    ridge = 0.0
    ridge_step = 1e-6 * max(float(np.trace(scatter)) / p, 1.0)
    for _ in range(40):
        try:
            inv = np.linalg.inv(scatter + ridge * np.eye(p))
            return PrecisionMatrix(factor * inv)
        # with n <= p the scatter is singular and its unridged inverse is far
        # from symmetric, which PrecisionMatrix rejects with ShapeError
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
        # the warm start is the last fit's covariance as it is; the first column
        # updates move its pattern entries to the new scatter, which can leave W
        # indefinite, and a neighbor block then fails its Cholesky test: retry cold
        return constrained_mle.fit(scatter, edges, w_init=None)


def _fits(scatter: np.ndarray, sets, w_init, scores):
    """(edges, outcome) once for each edge set in sets, as it is decided:
    its constrained fit (_constrained_fit), the EstimationError that ended
    it, or a SkippedFit.

    Without scores, or where scores.bound gives no bound, the sets are
    fitted one by one in order. Otherwise (a gaussian-mode group, whose
    fits start cold) they are decided best-first on scores.bound(edges,
    sign, logdet), a lower bound on the BIC of any fit to edges given the
    slogdet of a dual-feasible covariance: the scatter before the first
    sweep, then the covariance constrained_mle.fit_stepwise yields after
    each unfinished one. The set of lowest bound, the earlier in sets on a
    tie, runs its next sweep and keeps the larger of its old and new bound;
    a set whose fit ends is passed on, so the caller records its BIC in
    scores.best before the next decision. Once the lowest bound is above
    scores.best, every set left is skipped with its bound.
    """
    bounds = None
    if scores is not None:
        logdet = np.linalg.slogdet(scatter)
        bounds = [scores.bound(found, *logdet) for found in sets]
    if bounds is None or None in bounds:
        for found in sets:
            try:
                fit = _constrained_fit(scatter, found, w_init)
            except EstimationError as exc:
                fit = exc
            yield found, fit
        return
    heap = [(bound, k, found, constrained_mle.fit_stepwise(scatter, found))
            for k, (bound, found) in enumerate(zip(bounds, sets))]
    heapq.heapify(heap)
    while heap:
        bound, k, found, stepper = heapq.heappop(heap)
        if bound > scores.best:
            for bound, _, found, _ in [(bound, k, found, stepper), *heap]:
                yield found, SkippedFit(found, bound)
            return
        try:
            with np.errstate(all="ignore"):  # as constrained_mle.fit runs its sweeps
                w = next(stepper)
        except StopIteration as done:
            fit = done.value
        except EstimationError as exc:
            fit = exc
        else:
            new = scores.bound(found, *np.linalg.slogdet(w))
            heapq.heappush(heap, (bound if new is None else max(bound, new), k, found, stepper))
            continue
        yield found, fit


def _select(scattered, penalties, rule, signs, first):
    """Stage 1 for every lambda of every (lambdas, scatter) pair in
    scattered, each run on its pair's scatter. Returns {lambda: EdgeSet}.

    signs[i] holds the signs lambda i's regressions ended on at its
    previous iteration and is replaced by those they end on now. At the
    first iteration (first) there is one scatter and the lambdas run
    alone, from the largest down, the largest from all zeros and each
    other from the signs of the lambda just solved. After it, every
    lambda starts from its own signs and all run as one stacked solve.
    """
    if first:
        ((members, scatter),) = scattered
        end = np.zeros_like(signs[:1])
        edges = {}
        for i in members:
            (edges[i],), end = select_edges(scatter[None], [penalties[i]], rule, end)
            signs[i] = end[0]
        return edges
    lams = [i for members, _ in scattered for i in members]
    grams = np.stack([scatter for members, scatter in scattered for _ in members])
    found, signs[lams] = select_edges(grams, [penalties[i] for i in lams], rule, signs[lams])
    return dict(zip(lams, found))


def estimate_grid(data: Dataset, lams, config: EMConfig, *, scores=None) -> list:
    """Run the estimator at every lambda in lams, all in one pass.

    Returns one entry per lambda, in order: its EMState, or the
    EstimationError that ended its fit, "iteration k: ..." with the stage-2
    error as __cause__. Each entry equals what estimate returns or raises
    at that lambda alone. Raises DataError first, in either mode, for a
    constant column, a column out of floating-point range or an exactly
    collinear column pair (check_columns).

    scores, which only selection.select passes, bounds the score of a fit
    and records each fitted state's score: each EMState is passed to
    scores.record once, which updates scores.best. In gaussian mode,
    unless scores.bound gives no bound, the distinct edge sets are fitted
    best-first on a bound on their score that rises with each stage-2
    sweep (_fits; the selection module docstring derives it), and the sets
    still unfinished when the lowest bound is above scores.best are left
    so: their lambdas get one SkippedFit per set, holding the edge set and
    its last bound, which select reports as bic_bound. In t mode every set
    is fitted: the t likelihood has no such bound.

    The lambdas run their EM iterations in lockstep. Lambdas whose edge
    sets have agreed so far form a group, which carries the scatter it
    fits next. An iteration runs stage 1 for all lambdas (_select), then
    fits each distinct edge set of each group once; an edge set that goes
    on forms a group of the next iteration, with its E-step, and lambdas
    that end together share one EMState object.
    """
    if not isinstance(data, Dataset):
        data = Dataset(np.asarray(data, dtype=float))
    tau = np.broadcast_to(1.0, data.n)  # read-only, so every gaussian state keeps it uncopied
    mean = data.values.mean(axis=0)
    # a column whose scatter overflows is named by check_columns, not by numpy's warning
    with np.errstate(over="ignore", invalid="ignore"):
        scatter = weighted_scatter(data, tau, mean)
    check_columns(data, scatter)
    penalties = [PenaltyConfig(config.penalty.alpha, lam) for lam in lams]
    signs = np.zeros((len(penalties), data.p, data.p), dtype=np.int8)
    out = [None] * len(penalties)
    # every lambda, from the largest down
    members = sorted(range(len(penalties)), key=lambda k: penalties[k].lam, reverse=True)

    nu = config.nu
    psi = None if config.mode == "gaussian" else _initial_psi(scatter, nu / (nu - 2.0))
    if psi is not None:  # a gaussian group has no psi and keeps unit scales
        tau, mean, scatter = _e_step(data, mean, psi, nu)
    # only a gaussian fit is a final state, scored on the scatter it fits
    bounded = scores if psi is None else None
    # (lambdas, psi, covariance of the last fit, tau, mean, scatter) per group
    # sharing a history; scatter is the one its next iteration fits
    groups = [(members, psi, None, tau, mean, scatter)]
    # EMConfig rejects max_iter < 1, so every lambda gets an entry
    for it in range(1, config.max_iter + 1):
        edges = _select([(members, scatter) for members, *_, scatter in groups], penalties,
                        config.rule, signs, it == 1)
        going = []
        for members, psi, w_prev, tau, mean, scatter in groups:
            by_edges = {}
            for i in members:
                by_edges.setdefault(edges[i], []).append(i)
            for found, fit in _fits(scatter, by_edges, w_prev, bounded):
                shared = by_edges[found]
                if isinstance(fit, SkippedFit):
                    result = fit
                elif isinstance(fit, EstimationError):
                    result = EstimationError(f"iteration {it}: {fit}")
                    result.__cause__ = fit
                else:
                    max_change = (0.0 if psi is None else
                                  float(np.abs(fit.psi.values - psi.values).max()))
                    converged = max_change < config.delta
                    if not converged and it < config.max_iter:
                        going.append((shared, fit.psi, fit.covariance,
                                      *_e_step(data, mean, fit.psi, nu)))
                        continue
                    result = EMState(mean, fit.psi, tau, found, it, max_change, converged)
                    if scores is not None:
                        scores.record(result)
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
    Gaussian mode: one iteration with unit scales on the plain 1/n scatter.
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
