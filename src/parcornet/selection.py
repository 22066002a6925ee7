"""Penalty selection by BIC over a geometric lambda grid.

In gaussian mode select leaves unfinished every stage-2 fit that cannot
win. The fitted state's mean is the sample mean, so its BIC is
n (trace(S psi) - log det psi + p log 2 pi) + log(n) (|E| + p), S the
unit-weight scatter. Each stage-2 sweep is block-coordinate ascent on the
dual of covariance selection (constrained_mle.fit_stepwise): after any
sweep, and before the first, the working covariance W is positive
definite and equals S on E and the diagonal, and then
trace(S psi) - log det psi >= log det W + p for every psi with the
pattern E. So no fit to E scores below its bound

    B(E, W) = n (log det W + p (1 + log 2 pi)) + log(n) (|E| + p),

which rises with each sweep and meets the fitted BIC at the optimum,
where W = psi^-1. At W = S it is the floor F(E), the BIC of the saturated
fit, which a complete-graph fit attains. em.estimate_grid decides the
grid's edge sets best-first on it: the set of lowest bound runs its next
sweep, until the lowest bound, less a rounding margin, is above the best
BIC fitted so far, and every set left is skipped. Their lambdas are
recorded with bic NaN and bic_bound, that bound less the margin. The
margin is FLOOR_RTOL times the size of the bound's likelihood part,
n (|log det W| + p (1 + log 2 pi)): the bound and a fitted BIC are each
computed with rounding, and at the optimum they are equal in exact
arithmetic. A skipped lambda could not have been chosen, nor tied, so the
chosen model is the one fitting every lambda gives; only the records of
losing lambdas depend on the order, and a fit left unfinished is not known
to fail, so a lambda whose fit would have failed later is recorded as
skipped. No fit is skipped when n <= p or log det S has no positive-sign
finite value, nor in t mode: the t likelihood has no such bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

# estimate is not called here; it stays a name of this module because
# perfbench/tracing.py patches selection.estimate
from .em import (  # noqa: F401
    EMConfig,
    EMState,
    SkippedFit,
    estimate,
    estimate_grid,
    mahalanobis,
)
from .errors import ConfigError, EstimationError, SelectionError
from .matrices import MAX_ENTRIES, Dataset, PrecisionMatrix

FLOOR_RTOL = 1e-9


@dataclass(frozen=True)
class LambdaGrid:
    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ConfigError("lambda grid is empty")
        if any(v <= 0.0 for v in vals):
            raise ConfigError("lambda grid values must be > 0")
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise ConfigError("lambda grid must be nondecreasing")
        object.__setattr__(self, "values", vals)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def lo(self) -> float:
        return self.values[0]

    @property
    def hi(self) -> float:
        return self.values[-1]

    def to_json_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "count": self.count}


def build_grid(lo: float, hi: float, count: int) -> LambdaGrid:
    """Geometric grid from lo to hi with exact endpoints.

    Interior points satisfy values[i] = lo * (hi/lo)^(i/(count-1)), so the
    ratio between consecutive values is constant.
    """
    if not (math.isfinite(lo) and lo > 0.0):
        raise ConfigError(f"grid lo must be finite and > 0, got {lo}")
    if not (math.isfinite(hi) and hi >= lo):
        raise ConfigError(f"grid hi must be finite and >= lo, got {hi}")
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
        raise ConfigError(f"grid count must be an integer, got {count!r}")
    if count > MAX_ENTRIES:
        raise ConfigError(f"grid count must be at most {MAX_ENTRIES}, got {count}")
    if count < 1 or (count == 1 and hi != lo):
        raise ConfigError(f"count={count} incompatible with bounds ({lo}, {hi})")
    if count == 1:
        return LambdaGrid((lo,))
    vals = lo * (hi / lo) ** (np.arange(count) / (count - 1))
    vals[0], vals[-1] = lo, hi  # force exact endpoints
    return LambdaGrid(tuple(vals.tolist()))


def gaussian_log_likelihood(data: Dataset, mean: np.ndarray, psi: PrecisionMatrix) -> float:
    """Log density sum for N(mean, psi^{-1}) rows."""
    n, p = data.n, data.p
    sign, logdet = np.linalg.slogdet(psi.values)
    d = mahalanobis(data, mean, psi)
    return float(0.5 * n * (logdet - p * np.log(2.0 * np.pi)) - 0.5 * d.sum())


def t_log_likelihood(data: Dataset, mean: np.ndarray, psi: PrecisionMatrix, nu: float) -> float:
    """Log density sum for multivariate t rows with scatter inverse psi."""
    n, p = data.n, data.p
    sign, logdet = np.linalg.slogdet(psi.values)
    d = mahalanobis(data, mean, psi)
    const = gammaln(0.5 * (nu + p)) - gammaln(0.5 * nu) - 0.5 * p * np.log(nu * np.pi)
    per_row = const + 0.5 * logdet - 0.5 * (nu + p) * np.log1p(d / nu)
    return float(per_row.sum())


def count_parameters(state: EMState) -> int:
    """Free parameters of the fitted model: one per edge plus the diagonal."""
    return len(state.edges) + state.p


def bic(state: EMState, data: Dataset, config: EMConfig) -> float:
    """-2 log likelihood + log(n) * parameter count, mode-matched."""
    if config.mode == "t":
        ll = t_log_likelihood(data, state.mean, state.psi, config.nu)
    else:
        ll = gaussian_log_likelihood(data, state.mean, state.psi)
    return float(-2.0 * ll + np.log(data.n) * count_parameters(state))


class _Scores:
    """The BIC of each fitted state and, in gaussian mode, the bound on the
    BIC of a fit to an edge set: what select hands em.estimate_grid."""

    def __init__(self, data: Dataset, config: EMConfig):
        self.data, self.config = data, config
        self.of = {}  # id(state) -> BIC
        self.best = math.inf
        n, p = data.n, data.p
        # p (1 + log 2 pi), the saturated fit's -2 log-likelihood per row less
        # log det S; None where no fit has a bound
        self._saturated = (None if config.mode != "gaussian" or n <= p
                           else p * (1.0 + math.log(2.0 * math.pi)))

    def bound(self, edges, sign, logdet) -> float | None:
        """B(edges, W) less the margin (module docstring), given (sign, logdet),
        the slogdet of a covariance W dual-feasible for edges; None where no
        bound applies or W's determinant has no positive-sign finite value."""
        if self._saturated is None or not (sign > 0.0 and math.isfinite(logdet)):
            return None
        n, const = self.data.n, self._saturated
        bound = n * (logdet + const) + math.log(n) * (len(edges) + self.data.p)
        return bound - FLOOR_RTOL * n * (abs(logdet) + const)

    def record(self, state: EMState) -> None:
        score = self.of[id(state)] = bic(state, self.data, self.config)
        self.best = min(self.best, score)


@dataclass(slots=True)
class LambdaRecord:
    """One lambda's row of the BIC table. A failed lambda has bic NaN and
    its error; a skipped one (select) has bic NaN, its stage-1 edge count
    and bic_bound, a value its BIC could not go below and the chosen BIC
    is below. Neither has EM iterations or counts as converged."""

    lam: float
    bic: float
    n_edges: int
    em_converged: bool
    failed: bool
    error: str | None = None
    iterations: int = 0
    bic_bound: float | None = None


@dataclass(slots=True)
class SelectionReport:
    records: list
    chosen_lambda: float
    chosen_index: int
    state: EMState
    bic_value: float

    def to_json_dict(self) -> dict:
        return {
            "chosen_lambda": self.chosen_lambda,
            "chosen_index": self.chosen_index,
            "bic": self.bic_value,
            "records": [
                {
                    "lambda": r.lam,
                    "bic": r.bic if np.isfinite(r.bic) else None,
                    "edges": r.n_edges,
                    "em_converged": r.em_converged,
                    "em_iterations": r.iterations,
                    "failed": r.failed,
                    "error": r.error,
                    "bic_bound": r.bic_bound,
                }
                for r in self.records
            ],
        }


def select(data: Dataset, grid: LambdaGrid, config: EMConfig) -> SelectionReport:
    """Fit at every grid value, score by BIC, keep the best.

    The whole grid is fitted in one pass (em.estimate_grid): lambdas with
    the same fitted state share it, and its BIC is computed once. In
    gaussian mode the edge sets are fitted best-first on a bound on their
    BIC, and a lambda whose bound loses to a fitted BIC is left unfinished
    (module docstring); its record has bic NaN and bic_bound, so only the
    lambdas that were fitted show a BIC. Failed fits are recorded and
    excluded from the comparison. Ties go to the larger lambda (sparser model). Raises
    SelectionError, naming the first grid value's error, when every grid
    value fails. A column no mode can fit is not a failed fit:
    estimate_grid raises DataError (em.check_columns) and select lets it
    propagate.
    """
    records = []
    best = None  # (bic, index, lam, state)
    scores = _Scores(data, config)
    states = estimate_grid(data, grid.values, config, scores=scores)
    for idx, (lam, state) in enumerate(zip(grid.values, states)):
        if isinstance(state, EstimationError):
            records.append(LambdaRecord(lam, np.nan, 0, False, True, str(state)))
            continue
        if isinstance(state, SkippedFit):
            records.append(LambdaRecord(lam, np.nan, len(state.edges), False, False,
                                        bic_bound=state.bound))
            continue
        score = scores.of[id(state)]
        records.append(LambdaRecord(lam, score, len(state.edges), state.converged, False,
                                    iterations=state.iterations))
        if best is None or score <= best[0]:  # <= so later (larger) lam wins ties
            best = (score, idx, lam, state)
    if best is None:
        first = records[0]
        raise SelectionError(f"no lambda value produced a fit; lambda {first.lam:.6g} "
                             f"failed with: {first.error}", records=records)
    score, idx, lam, state = best
    return SelectionReport(records, lam, idx, state, score)
