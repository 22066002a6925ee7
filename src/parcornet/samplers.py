"""Row samplers for a given precision matrix.

All draws go through numpy Generators derived from SeedSequence spawn
keys, so independent cells of a study get independent, reproducible
streams. Every sampler targets covariance theta^{-1} exactly: the t
sampler scales its scatter by (nu-2)/nu to compensate for the mixing.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .matrices import Dataset, PrecisionMatrix

DIST_KINDS = ("normal", "t", "contaminated")


@dataclass(frozen=True)
class DistributionSpec:
    kind: str
    nu: float = 3.0
    keep_prob: float = 0.85  # contaminated: probability a row keeps cross-correlation

    def __post_init__(self):
        if self.kind not in DIST_KINDS:
            raise ConfigError(f"kind must be one of {DIST_KINDS}, got {self.kind!r}")
        if self.kind == "t" and not self.nu > 2.0:
            raise ConfigError(f"t sampling needs nu > 2, got {self.nu}")
        if not (0.0 <= self.keep_prob <= 1.0):
            raise ConfigError(f"keep_prob must be in [0, 1], got {self.keep_prob}")

    def label(self) -> str:
        if self.kind == "t":
            return f"t{self.nu:g}"
        if self.kind == "contaminated":
            return f"contaminated{self.keep_prob:g}"
        return "normal"


def spawned_rng(seed: int, *key) -> np.random.Generator:
    """Generator for stream (seed, key...); distinct keys give independent streams."""
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key)))


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def sample_gamma_scales(nu: float, n: int, rng) -> np.ndarray:
    """Latent scales tau_i ~ Gamma(nu/2, rate nu/2); mean 1 for every nu."""
    if not nu > 0.0:
        raise DomainError(f"need nu > 0, got {nu}")
    return _as_rng(rng).gamma(shape=0.5 * nu, scale=2.0 / nu, size=n)


def sample(theta: PrecisionMatrix, n: int, spec: DistributionSpec, rng) -> Dataset:
    """Draw n rows with covariance theta^{-1} under the given distribution.

    normal: x = z L^T with L the Cholesky factor of theta^{-1}.
    t: y from the (nu-2)/nu-scaled scatter divided by sqrt(tau).
    contaminated: the same z rows as normal mode; rows whose gate closes
    are replaced by independent coordinates with the same marginal
    variances. keep_prob=1 reproduces normal mode bit for bit.
    """
    if n < 1:
        raise ConfigError(f"need n >= 1, got {n}")
    rng = _as_rng(rng)
    sigma = np.linalg.inv(theta.values)
    sigma = 0.5 * (sigma + sigma.T)
    chol = np.linalg.cholesky(sigma)
    z = rng.standard_normal((n, theta.p))
    if spec.kind == "normal":
        x = z @ chol.T
    elif spec.kind == "t":
        scatter_chol = np.sqrt((spec.nu - 2.0) / spec.nu) * chol
        y = z @ scatter_chol.T
        tau = sample_gamma_scales(spec.nu, n, rng)
        x = y / np.sqrt(tau)[:, None]
    else:
        x = z @ chol.T
        if spec.keep_prob < 1.0:
            open_gate = rng.random(n) < spec.keep_prob
            solo = z * np.sqrt(np.diag(sigma))
            x = np.where(open_gate[:, None], x, solo)
    return Dataset(x)
