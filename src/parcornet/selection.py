"""Penalty selection by BIC over a geometric lambda grid.

In gaussian mode select skips every stage-2 fit that cannot win. The
fitted state's mean is the sample mean, and over every psi the Gaussian
log-likelihood at it peaks at psi = S^-1, S the unit-weight scatter
(Lauritzen 1996, ch. 5). So no fit with edge set E scores below its floor

    F(E) = n (log det S + p (1 + log 2 pi)) + log(n) (|E| + p),

which a complete-graph fit attains. Once a fitted state's BIC is below
F(E) less a rounding margin, em.estimate_grid does not fit E, and the
lambdas that select E are recorded with bic NaN and bic_bound F(E). The
margin is FLOOR_RTOL times the size of the floor's likelihood part,
n (|log det S| + p (1 + log 2 pi)): F(E) and a fitted BIC are each
computed with rounding, and at the complete graph they are equal in exact
arithmetic. A skipped lambda could not have been chosen, nor tied, so the
chosen model is the one fitting every lambda gives. No fit is skipped when
n <= p or log det S has no positive-sign finite value, nor in t mode: the
supremum of the t likelihood over psi has no closed form to bound it by.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
    weighted_scatter,
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
    """The BIC of each fitted state and, in gaussian mode, the floor of an
    edge set: what select hands em.estimate_grid as its scores."""

    def __init__(self, data: Dataset, config: EMConfig):
        self.data, self.config = data, config
        self.of = {}  # id(state) -> BIC
        self.best = math.inf

    @cached_property
    def _saturated(self):
        """(n (log det S + p (1 + log 2 pi)), margin), or None where no floor applies.

        Built at the first floor call, after em.check_columns has passed the data.
        """
        n, p = self.data.n, self.data.p
        if self.config.mode != "gaussian" or n <= p:
            return None
        s = weighted_scatter(self.data, np.ones(n), self.data.values.mean(axis=0))
        sign, logdet = np.linalg.slogdet(s)
        if not (sign > 0.0 and math.isfinite(logdet)):
            return None
        const = p * (1.0 + math.log(2.0 * math.pi))
        return n * (logdet + const), FLOOR_RTOL * n * (abs(logdet) + const)

    def floor(self, edges) -> float | None:
        """F(edges) when F(edges) less the margin is above the best BIC so far, else None."""
        if self._saturated is None:
            return None
        saturated, margin = self._saturated
        bound = saturated + math.log(self.data.n) * (len(edges) + self.data.p)
        return bound if bound - margin > self.best else None

    def record(self, state: EMState) -> None:
        score = self.of[id(state)] = bic(state, self.data, self.config)
        self.best = min(self.best, score)


@dataclass
class LambdaRecord:
    """One lambda's row of the BIC table. A failed lambda has bic NaN and
    its error; a skipped one (select) has bic NaN, its stage-1 edge count
    and bic_bound, the floor its BIC could not go below. Neither has EM
    iterations or counts as converged."""

    lam: float
    bic: float
    n_edges: int
    em_converged: bool
    failed: bool
    error: str | None = None
    iterations: int = 0
    bic_bound: float | None = None


@dataclass
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
    gaussian mode a lambda whose edge set's floor already loses to a
    fitted BIC is not fitted (module docstring); its record has bic NaN
    and bic_bound. Failed fits are recorded and excluded from the
    comparison. Ties go to the larger lambda (sparser model). Raises
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
