"""Empirical pipeline: prices to returns, per-series AR(1)-GARCH(1,1)
filtering, distribution checks, and rolling-window network estimation.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy import optimize, signal, stats

from . import analytics, selection
from .em import EMConfig
from .errors import ConfigError, DataError, FitError, ParcornetError
from .matrices import Dataset, precision_to_partial_correlation
from .selection import LambdaGrid, SelectionReport

MIN_SERIES_LEN = 250
KS_CRITICAL_COEF = 1.358  # 5 percent level, large-sample
TRADING_DAYS_PER_YEAR = 252
TRADING_DAYS_PER_MONTH = 21


@dataclass(frozen=True)
class PriceTable:
    """Dated price panel; missing cells are NaN, present cells must be > 0."""

    dates: tuple
    names: tuple
    values: np.ndarray

    def __post_init__(self):
        dates = tuple(str(d) for d in self.dates)
        names = tuple(str(s) for s in self.names)
        vals = np.array(self.values, dtype=float, copy=True)
        if vals.ndim != 2 or vals.shape != (len(dates), len(names)):
            raise DataError(
                f"values shape {vals.shape} does not match {len(dates)} dates x {len(names)} names"
            )
        if any(b <= a for a, b in zip(dates, dates[1:])):
            raise DataError("dates must be strictly increasing (ISO-8601 strings sort correctly)")
        finite = np.isfinite(vals)
        if np.any(vals[finite] <= 0.0):
            raise DataError("prices must be strictly positive where present")
        vals.setflags(write=False)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def to_csv_text(self) -> str:
        lines = ["date," + ",".join(self.names)]
        for d, row in zip(self.dates, self.values):
            cells = [("" if not np.isfinite(v) else f"{v:.17g}") for v in row]
            lines.append(d + "," + ",".join(cells))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv_text(cls, text: str) -> "PriceTable":
        rows = [r for r in csv.reader(text.splitlines()) if r]
        if len(rows) < 2:
            raise DataError("price CSV needs a header and at least one row")
        names = tuple(rows[0][1:])
        dates = []
        vals = []
        for r in rows[1:]:
            dates.append(r[0])
            vals.append([float(c) if c.strip() else np.nan for c in r[1:]])
        return cls(tuple(dates), names, np.asarray(vals, dtype=float))


@dataclass(frozen=True)
class ReturnTable:
    """Dated return panel; one row fewer than the prices it came from."""

    dates: tuple
    names: tuple
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float, copy=True)
        vals.setflags(write=False)
        object.__setattr__(self, "dates", tuple(str(d) for d in self.dates))
        object.__setattr__(self, "names", tuple(str(s) for s in self.names))
        object.__setattr__(self, "values", vals)


def log_returns(prices: PriceTable) -> ReturnTable:
    """ln(p_t / p_{t-1}) per cell; a NaN price makes both touching returns NaN."""
    if prices.n < 2:
        raise DataError("need at least two price rows for returns")
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.log(prices.values[1:] / prices.values[:-1])
    return ReturnTable(prices.dates[1:], prices.names, r)


@dataclass
class GarchFit:
    c: float
    phi: float
    omega: float
    a: float
    b: float
    loglik: float
    residuals: np.ndarray  # standardized innovations
    sigma2: np.ndarray
    converged: bool


def _sigmoid(x: float) -> float:
    return 1.0 / (1.0 + np.exp(-x))


def _unpack(theta):
    c = theta[0]
    phi = np.tanh(theta[1])
    omega = np.exp(theta[2])
    persist = _sigmoid(theta[3])
    frac = _sigmoid(theta[4])
    a = persist * frac
    b = persist * (1.0 - frac)
    return c, phi, omega, a, b


def _garch_sigma2(eps: np.ndarray, omega: float, a: float, b: float) -> np.ndarray:
    """Variance recursion started at the sample variance of eps."""
    m = eps.size
    s0 = float(eps.var())
    out = np.empty(m)
    out[0] = s0
    if m > 1:
        x = omega + a * eps[:-1] ** 2
        # sigma2[t] = x[t-1] + b * sigma2[t-1] as a linear IIR filter
        y, _ = signal.lfilter([1.0], [1.0, -b], x, zi=np.asarray([b * s0]))
        out[1:] = y
    return out


def _negloglik(theta, series):
    c, phi, omega, a, b = _unpack(theta)
    eps = series[1:] - c - phi * series[:-1]
    sig2 = _garch_sigma2(eps, omega, a, b)
    if not np.all(np.isfinite(sig2)) or sig2.min() <= 0.0:
        return np.inf
    nll = 0.5 * np.sum(np.log(2.0 * np.pi) + np.log(sig2) + eps**2 / sig2)
    return nll if np.isfinite(nll) else np.inf


def _logit(x: float) -> float:
    return float(np.log(x / (1.0 - x)))


def fit_ar_garch(series) -> GarchFit:
    """Gaussian quasi-maximum-likelihood fit of an AR(1) mean with
    GARCH(1,1) innovations.

    The optimizer works in an unconstrained parameterization (tanh for
    the AR coefficient, exp for omega, nested sigmoids keeping a, b >= 0
    with a + b < 1). Deterministic restarts perturb the start point; a
    fit is accepted when the optimizer converges and the standardized
    residual variance lands in [0.8, 1.2]. No acceptable fit raises
    FitError.
    """
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
        c, phi, omega, a, b = _unpack(res.x)
        eps = r[1:] - c - phi * r[:-1]
        sig2 = _garch_sigma2(eps, omega, a, b)
        z = eps / np.sqrt(sig2)
        zvar = float(z.var())
        if not res.success:
            last_reason = "optimizer did not converge"
            continue
        if not (0.8 <= zvar <= 1.2):
            last_reason = f"standardized residual variance {zvar:.3f} outside [0.8, 1.2]"
            continue
        return GarchFit(c, phi, omega, a, b, -float(res.fun), z, sig2, True)
    raise FitError(f"AR-GARCH fit failed: {last_reason}")


def simulate_ar_garch(
    n: int, c: float, phi: float, omega: float, a: float, b: float,
    rng, burn: int = 500,
) -> np.ndarray:
    """Simulate the AR(1)-GARCH(1,1) process from its stationary start."""
    if not (abs(phi) < 1.0 and omega > 0.0 and a >= 0.0 and b >= 0.0 and a + b < 1.0):
        raise ConfigError("parameters violate stationarity")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    total = n + burn
    z = rng.standard_normal(total)
    sig2 = omega / (1.0 - a - b)
    eps_prev = 0.0
    r_prev = c / (1.0 - phi)
    out = np.empty(total)
    for t in range(total):
        if t > 0:
            sig2 = omega + a * eps_prev**2 + b * sig2
        eps = np.sqrt(sig2) * z[t]
        r_prev = c + phi * r_prev + eps
        eps_prev = eps
        out[t] = r_prev
    return out[burn:]


def ks_statistic(sample, reference: str = "normal", nu: float | None = None):
    """Kolmogorov-Smirnov distance to a unit-variance reference law.

    reference "normal" is N(0,1); reference "t" is a Student t with the
    given nu > 2, rescaled to unit variance. Returns (statistic, reject)
    where reject applies the 5 percent large-sample critical value.
    """
    x = np.sort(np.asarray(sample, dtype=float).ravel())
    n = x.size
    if n < 20:
        raise DataError(f"need at least 20 observations for the test, got {n}")
    if not np.all(np.isfinite(x)):
        raise DataError("sample contains non-finite values")
    if reference == "normal":
        cdf = stats.norm.cdf(x)
    elif reference == "t":
        if nu is None or not nu > 2.0:
            raise ConfigError("t reference needs nu > 2 for unit-variance scaling")
        scale = np.sqrt((nu - 2.0) / nu)
        cdf = stats.t.cdf(x / scale, df=nu)
    else:
        raise ConfigError(f"reference must be 'normal' or 't', got {reference!r}")
    i = np.arange(1, n + 1)
    d = float(np.max(np.maximum(i / n - cdf, cdf - (i - 1) / n)))
    return d, bool(d > KS_CRITICAL_COEF / np.sqrt(n))


@dataclass
class WindowResult:
    index: int
    start: int
    stop: int
    report: SelectionReport | None
    net_measures: analytics.NetworkMeasures | None
    error: str | None = None


def window_count(n_rows: int, window: int, step: int) -> int:
    return (n_rows - window) // step + 1 if n_rows >= window else 0


def rolling_estimate(
    values, window: int, step: int, config: EMConfig, grid: LambdaGrid,
    absolute_strength: bool = False,
) -> list:
    """Estimate a network on each rolling window of the row matrix.

    Windows start at multiples of step and span window rows. A window
    whose fit fails is returned flagged with the error message; the
    remaining windows still run.
    """
    vals = np.asarray(getattr(values, "values", values), dtype=float)
    if vals.ndim != 2:
        raise DataError(f"need a 2-d row matrix, got shape {vals.shape}")
    if window < vals.shape[1] + 1 or window > vals.shape[0]:
        raise ConfigError(
            f"window {window} must be in [p+1, n] = [{vals.shape[1] + 1}, {vals.shape[0]}]"
        )
    if step < 1:
        raise ConfigError(f"step must be >= 1, got {step}")
    out = []
    for i in range(window_count(vals.shape[0], window, step)):
        start = i * step
        stop = start + window
        chunk = vals[start:stop]
        if not np.all(np.isfinite(chunk)):
            out.append(WindowResult(i, start, stop, None, None, "window contains missing values"))
            continue
        try:
            report = selection.select(Dataset(chunk), grid, config)
            pc = precision_to_partial_correlation(report.state.psi)
            meas = analytics.measures(pc, absolute_strength=absolute_strength)
            out.append(WindowResult(i, start, stop, report, meas))
        except (ParcornetError, np.linalg.LinAlgError) as exc:
            # an estimation or numeric failure flags the window; a bug still propagates
            out.append(WindowResult(i, start, stop, None, None, f"{type(exc).__name__}: {exc}"))
    return out
