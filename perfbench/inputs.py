"""Deterministic benchmark inputs.

Every generator is a pure function of its arguments: the same workload
seed gives byte-identical arrays and files. The program under test only
ever receives what these functions return or write.
"""
from __future__ import annotations

import datetime

import numpy as np

from parcornet.matrices import PrecisionMatrix, precision_to_partial_correlation
from parcornet.netgen import TopologySpec, generate_precision
from parcornet.pipeline import PriceTable
from parcornet.samplers import DistributionSpec, sample, spawned_rng

# Stream keys under the workload seed; distinct keys give independent draws.
DATA_STREAM = 1
PANEL_STREAM = 2


class Truth:
    """A generating graph: its edge set, precision and partial correlations."""

    def __init__(self, kind: str, p: int, topo_seed: int):
        self.edges, self.theta = generate_precision(TopologySpec(kind=kind, p=p, seed=topo_seed))
        self.pc = precision_to_partial_correlation(self.theta)


def datasets(truth: Truth, n: int, dist: DistributionSpec, count: int, seed: int) -> list:
    """count independent n-row draws from dist with covariance theta^-1."""
    return [sample(truth.theta, n, dist, spawned_rng(seed, DATA_STREAM, k)) for k in range(count)]


def business_dates(count: int, start=datetime.date(2000, 1, 3)) -> list:
    """count consecutive weekdays from start, as ISO-8601 strings."""
    out = []
    day = start
    while len(out) < count:
        if day.weekday() < 5:
            out.append(day.isoformat())
        day += datetime.timedelta(days=1)
    return out


def ar_garch_panel(truth: Truth, n_returns: int, garch: dict, nu: float, seed: int,
                   part: int = 0, burn: int = 500) -> PriceTable:
    """Price panel whose log returns follow AR(1)-GARCH(1,1) per series.

    The standardized shocks are multivariate t_nu draws with unit
    variances and correlation matrix R, the rescaled inverse of
    truth.theta, so the partial correlations of the GARCH-filtered
    residuals are those of truth.pc (they are invariant under D theta D).
    garch holds c, phi, omega, a, b in units of one percent of return.
    Distinct parts give independent panels under one seed.
    """
    sigma = np.linalg.inv(truth.theta.values)
    sd = np.sqrt(np.diag(sigma))
    corr = sigma / np.outer(sd, sd)
    shocks = sample(PrecisionMatrix(np.linalg.inv(corr)), n_returns + burn,
                    DistributionSpec(kind="t", nu=nu), spawned_rng(seed, PANEL_STREAM, part)).values
    c, phi, omega, a, b = (garch[k] for k in ("c", "phi", "omega", "a", "b"))
    p = truth.theta.p
    h = np.full(p, omega / (1.0 - a - b))
    eps = np.zeros(p)
    r = np.full(p, c / (1.0 - phi))
    returns = np.empty((n_returns + burn, p))
    for t in range(n_returns + burn):
        h = omega + a * eps**2 + b * h
        eps = np.sqrt(h) * shocks[t]
        r = c + phi * r + eps
        returns[t] = r
    log_prices = np.log(100.0) + np.cumsum(returns[burn:] / 100.0, axis=0)
    prices = np.exp(np.vstack([np.full((1, p), np.log(100.0)), log_prices]))
    names = [f"s{j + 1:02d}" for j in range(p)]
    return PriceTable(tuple(business_dates(n_returns + 1)), tuple(names), prices)


def write_text(path, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)

