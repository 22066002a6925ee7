"""Empirical pipeline: prices to returns, per-series AR(1)-GARCH(1,1)
filtering, distribution checks, and rolling-window network estimation.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy import optimize, signal, special

from . import selection
from .em import EMConfig
from .errors import ConfigError, DataError, FitError, ParcornetError
from .matrices import Dataset, first_repeat
from .selection import LambdaGrid, SelectionReport

MIN_SERIES_LEN = 250
KS_CRITICAL_COEF = 1.358  # 5 percent level, large-sample


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
        dup = first_repeat(names)
        if dup is not None:
            raise DataError(f"column name {dup!r} appears twice")
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
            if len(r) != len(rows[0]):
                raise DataError(f"date {r[0]}: {len(r) - 1} price cells for {len(names)} columns")
            dates.append(r[0])
            vals.append([_price_cell(c, r[0], name) for name, c in zip(names, r[1:])])
        return cls(tuple(dates), names, np.asarray(vals, dtype=float))


def _price_cell(cell: str, date: str, name: str) -> float:
    """One CSV price cell; a blank cell is a missing price (NaN)."""
    if not cell.strip():
        return np.nan
    try:
        return float(cell)
    except ValueError:
        raise DataError(f"date {date}: column {name!r}: price {cell!r} is not a number") from None


def log_returns(prices: PriceTable) -> np.ndarray:
    """(n-1) x p array of ln(p_t / p_{t-1}); a NaN price makes both
    touching returns NaN."""
    if prices.n < 2:
        raise DataError("need at least two price rows for returns")
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.log(prices.values[1:] / prices.values[:-1])


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


def _sigmoid(x: float) -> float:
    return 1.0 / (1.0 + np.exp(-x))


def _unpack(theta, scale):
    # c in units of the series' standard deviation keeps the score unit-free
    c = scale * theta[0]
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


def _negloglik_score(theta, series, scale):
    """Gaussian negative log-likelihood and its gradient in theta.

    Differentiating the variance recursion gives, per parameter k,
    d sigma2[t] = dx_k[t-1] + b d sigma2[t-1]: the same IIR filter as
    sigma2 itself, so one lfilter call over five columns yields all of
    d sigma2 / d(c, phi, omega, a, b). The chain rule through scale,
    tanh, exp and the sigmoids then maps the score to theta.
    """
    c, phi, omega, a, b = _unpack(theta, scale)
    lag = series[:-1]
    eps = series[1:] - c - phi * lag
    sig2 = _garch_sigma2(eps, omega, a, b)
    if not np.all(np.isfinite(sig2)) or sig2.min() <= 0.0:
        return np.inf, np.zeros(5)
    u = eps / sig2
    nll = 0.5 * np.sum(np.log(2.0 * np.pi) + np.log(sig2) + eps * u)
    if not np.isfinite(nll):
        return np.inf, np.zeros(5)

    # sigma2[0] = var(eps): flat in c, and its phi-derivative is a covariance
    d0 = np.zeros(5)
    d0[1] = -2.0 * np.mean((eps - eps.mean()) * (lag - lag.mean()))
    e = eps[:-1]
    dx = np.column_stack([-2.0 * a * e, -2.0 * a * e * lag[:-1],
                          np.ones(e.size), e**2, sig2[:-1]])
    dsig2 = np.empty((eps.size, 5))
    dsig2[0] = d0
    dsig2[1:], _ = signal.lfilter([1.0], [1.0, -b], dx, axis=0, zi=b * d0[None, :])
    g = (0.5 * (1.0 - eps * u) / sig2) @ dsig2
    g[0] -= u.sum()
    g[1] -= u @ lag

    persist, frac = _sigmoid(theta[3]), _sigmoid(theta[4])
    g_a, g_b = g[3], g[4]
    grad = np.array([
        g[0] * scale,
        g[1] * (1.0 - phi**2),
        g[2] * omega,
        persist * (1.0 - persist) * (frac * g_a + (1.0 - frac) * g_b),
        frac * (1.0 - frac) * persist * (g_a - g_b),
    ])
    return nll, grad


def _logit(x: float) -> float:
    return float(np.log(x / (1.0 - x)))


def fit_ar_garch(series) -> GarchFit:
    """Gaussian quasi-maximum-likelihood fit of an AR(1) mean with
    GARCH(1,1) innovations.

    BFGS minimizes the negative log-likelihood with its analytic score
    (_negloglik_score) in an unconstrained parameterization: the mean c
    in units of the series' standard deviation, tanh for the AR
    coefficient, exp for omega, nested sigmoids keeping a, b >= 0 with
    a + b < 1. The score then does not depend on the units of the
    series, and as a sum over its m values it sets the stopping rule:
    max |score| <= 1e-7 m, or a precision-loss stop of the line search
    within 10 times that. Deterministic restarts perturb the start
    point, and the first start whose optimizer converges is the fit. The
    residual variance is not checked: the Gaussian QMLE is consistent
    under heavy-tailed shocks, whose standardized residuals can have a
    sample variance well away from 1. No converged start raises FitError
    naming the outcome of every start.
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
    scale = np.sqrt(v)
    base = np.array([
        c0 / scale,
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
    gtol = 1e-7 * r.size
    outcomes = []
    for start, nudge in enumerate(nudges, 1):
        res = optimize.minimize(
            _negloglik_score, base + nudge, args=(r, scale), method="BFGS", jac=True,
            options={"gtol": gtol},
        )
        if not np.isfinite(res.fun):
            outcomes.append(f"start {start}: non-finite objective")
            continue
        score = float(np.abs(res.jac).max())
        # status 2 is a line search that lost precision: converged when near gtol
        if not (res.success or (res.status == 2 and score <= 10.0 * gtol)):
            outcomes.append(f"start {start}: optimizer status {res.status}, "
                            f"max|score| {score:.3e}")
            continue
        c, phi, omega, a, b = _unpack(res.x, scale)
        eps = r[1:] - c - phi * r[:-1]
        sig2 = _garch_sigma2(eps, omega, a, b)
        return GarchFit(c, phi, omega, a, b, -float(res.fun), eps / np.sqrt(sig2), sig2)
    raise FitError("AR-GARCH fit failed at every start: " + "; ".join(outcomes))


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
        cdf = special.ndtr(x)
    elif reference == "t":
        if nu is None or not nu > 2.0:
            raise ConfigError("t reference needs nu > 2 for unit-variance scaling")
        scale = np.sqrt((nu - 2.0) / nu)
        cdf = special.stdtr(nu, x / scale)
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
    error: str | None = None


def window_count(n_rows: int, window: int, step: int) -> int:
    return (n_rows - window) // step + 1 if n_rows >= window else 0


def rolling_estimate(values, window: int, step: int, config: EMConfig, grid: LambdaGrid) -> list:
    """Estimate a network on each rolling window of the row matrix.

    Windows start at multiples of step and span window rows. Each
    window's result carries its SelectionReport; network measures are
    left to the caller. A window whose fit raises a ParcornetError is
    returned flagged with the error message and the remaining windows
    still run; any other exception propagates.
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
            out.append(WindowResult(i, start, stop, None, "window contains missing values"))
            continue
        try:
            report = selection.select(Dataset(chunk), grid, config)
            out.append(WindowResult(i, start, stop, report))
        except ParcornetError as exc:
            # a named estimation failure flags the window; anything else propagates
            out.append(WindowResult(i, start, stop, None, f"{type(exc).__name__}: {exc}"))
    return out
