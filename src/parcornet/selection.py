"""Penalty selection by BIC over a geometric lambda grid."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

# estimate is not called here; it stays a name of this module because
# perfbench/tracing.py patches selection.estimate
from .em import EMConfig, EMState, estimate, estimate_grid, mahalanobis  # noqa: F401
from .errors import ConfigError, EstimationError, SelectionError
from .matrices import Dataset, PrecisionMatrix


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
    if not (np.isfinite(lo) and lo > 0.0):
        raise ConfigError(f"grid lo must be finite and > 0, got {lo}")
    if not (np.isfinite(hi) and hi >= lo):
        raise ConfigError(f"grid hi must be finite and >= lo, got {hi}")
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


@dataclass
class LambdaRecord:
    lam: float
    bic: float
    n_edges: int
    em_converged: bool
    failed: bool
    error: str | None = None
    iterations: int = 0


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
                }
                for r in self.records
            ],
        }


def select(data: Dataset, grid: LambdaGrid, config: EMConfig) -> SelectionReport:
    """Fit at every grid value, score by BIC, keep the best.

    The whole grid is fitted in one pass (em.estimate_grid): lambdas with
    the same fitted state share it, and its BIC is computed once. Failed
    fits are recorded and excluded from the comparison. Ties go to the
    larger lambda (sparser model). Raises SelectionError when every grid
    value fails. A column no mode can fit is not a failed fit:
    estimate_grid raises DataError (em.check_columns) and select lets it
    propagate.
    """
    records = []
    best = None  # (bic, index, lam, state)
    scores = {}  # id(state) -> its BIC
    for idx, (lam, state) in enumerate(zip(grid.values, estimate_grid(data, grid.values, config))):
        if isinstance(state, EstimationError):
            records.append(LambdaRecord(lam, np.nan, 0, False, True, str(state)))
            continue
        if id(state) not in scores:
            scores[id(state)] = bic(state, data, config)
        score = scores[id(state)]
        records.append(LambdaRecord(lam, score, len(state.edges), state.converged, False,
                                    iterations=state.iterations))
        if best is None or score <= best[0]:  # <= so later (larger) lam wins ties
            best = (score, idx, lam, state)
    if best is None:
        raise SelectionError("no lambda value produced a fit", records=records)
    score, idx, lam, state = best
    return SelectionReport(records, lam, idx, state, score)
