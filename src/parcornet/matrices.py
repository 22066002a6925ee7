"""Core matrix and data types.

Square-matrix inputs are validated for symmetry up to a relative
tolerance and stored in exactly symmetrized form; all containers are
immutable after construction.
"""
from __future__ import annotations

import csv
import itertools
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DomainError, ShapeError

SYMMETRY_RTOL = 1e-8
PD_PIVOT_TOL = 1e-12
MAX_ENTRIES = sys.maxsize // 8  # float64 entries of numpy's largest array (sys.maxsize bytes)


def first_repeat(items):
    """The first item equal to an earlier one, or None."""
    seen = set()
    for s in items:
        if s in seen:
            return s
        seen.add(s)
    return None


def _square_values(m, name: str) -> np.ndarray:
    a = np.array(getattr(m, "values", m), dtype=float, copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{name} must be a square 2-d array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DataError(f"{name} contains non-finite entries")
    return a


def symmetrize(m, name: str = "matrix") -> np.ndarray:
    """Return (M + M.T) / 2 after checking symmetry to SYMMETRY_RTOL.

    An M that is exactly symmetric, bit for bit, is returned as a plain
    copy: the average would give the same bits, except for entries above
    np.finfo(float).max / 2, which it overflowed to inf.
    """
    a = _square_values(m, name)
    if a.tobytes() == a.T.tobytes():
        return a
    scale = max(float(np.abs(a).max()), 1.0)
    gap = float(np.abs(a - a.T).max())
    if gap > SYMMETRY_RTOL * scale:
        raise ShapeError(
            f"{name} is not symmetric: max asymmetry {gap:.3e} exceeds "
            f"{SYMMETRY_RTOL:.0e} relative tolerance"
        )
    return 0.5 * (a + a.T)


def is_positive_definite(m) -> bool:
    """Cholesky-based test; pivots must clear PD_PIVOT_TOL relative to the diagonal."""
    return _pivots_clear(symmetrize(m))


def _pivots_clear(a: np.ndarray) -> bool:
    """is_positive_definite for an array that is already exactly symmetric."""
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    pivots = chol.diagonal() ** 2
    scale = max(float(np.abs(a.diagonal()).max()), 1.0)
    return bool(pivots.min() > PD_PIVOT_TOL * scale)


@dataclass(frozen=True)
class PrecisionMatrix:
    """Symmetric positive definite matrix (a precision or a scatter inverse).

    The values are checked finite, symmetric to SYMMETRY_RTOL and positive
    definite by their Cholesky pivots, and stored read-only as symmetrize
    returns them: an exactly symmetric matrix is stored as given.
    """

    values: np.ndarray

    def __post_init__(self):
        a = symmetrize(self.values, "precision matrix")
        if a.shape[0] < 2:
            raise ShapeError("precision matrix needs dimension >= 2")
        a.setflags(write=False)
        object.__setattr__(self, "values", a)
        if not _pivots_clear(a):
            raise DomainError("precision matrix is not positive definite")

    @property
    def p(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class PartialCorrelationMatrix:
    """Symmetric matrix with zero diagonal and off-diagonal entries in [-1, 1]."""

    values: np.ndarray

    def __post_init__(self):
        a = symmetrize(self.values, "partial correlation matrix")
        if a.shape[0] < 2:
            raise ShapeError("partial correlation matrix needs dimension >= 2")
        if np.abs(np.diag(a)).max() > 0.0:
            raise DomainError("partial correlation matrix must have an exactly zero diagonal")
        if np.abs(a).max() > 1.0 + 1e-9:
            raise DomainError("partial correlations must lie in [-1, 1]")
        a = np.clip(a, -1.0, 1.0)
        a.setflags(write=False)
        object.__setattr__(self, "values", a)

    @property
    def p(self) -> int:
        return self.values.shape[0]

    def edge_set(self) -> "EdgeSet":
        """Edges are exactly the nonzero off-diagonal entries."""
        return EdgeSet(self.p, np.column_stack(np.nonzero(np.triu(self.values, k=1))))


@dataclass(frozen=True)
class EdgeSet:
    """Unordered node pairs over nodes 0..p-1, no self loops.

    pairs may be given as any collection of node pairs or as an (m, 2)
    integer array; it is stored as a frozenset of canonical (j, k) tuples
    of ints with j < k, so a reversed or repeated pair is the same pair.
    All pairs are checked by one test, 0 <= j < k < p once each pair is
    ordered; only pairs that fail it are searched, for the first self loop
    and failing that the first pair out of range, which the error names.
    """

    p: int
    pairs: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.p < 1:
            raise ShapeError("EdgeSet needs p >= 1")
        ends = np.array(self.pairs if isinstance(self.pairs, np.ndarray) else list(self.pairs),
                        dtype=np.int64)
        if ends.size == 0:
            ends = ends.reshape(0, 2)
        if ends.ndim != 2 or ends.shape[1] != 2:
            raise ShapeError(f"edges must be node pairs, got an array of shape {ends.shape}")
        j, k = ends.T
        lo, hi = np.minimum(j, k), np.maximum(j, k)
        if lo.size and not (lo.min() >= 0 and hi.max() < self.p and (lo < hi).all()):
            loop = np.flatnonzero(j == k)
            if loop.size:
                raise DomainError(f"self loop ({j[loop[0]]},{k[loop[0]]}) not allowed")
            out = np.flatnonzero((lo < 0) | (hi >= self.p))[0]
            raise DomainError(f"edge ({j[out]},{k[out]}) out of range for p={self.p}")
        object.__setattr__(self, "pairs", frozenset(zip(lo.tolist(), hi.tolist())))

    @classmethod
    def from_pairs(cls, p: int, pairs) -> "EdgeSet":
        return cls(p, list(pairs))

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair) -> bool:
        j, k = pair
        return (min(j, k), max(j, k)) in self.pairs

    def __iter__(self):
        return iter(sorted(self.pairs))

    def to_adjacency(self) -> np.ndarray:
        """The symmetric p x p bool matrix that is True at both (j, k) and (k, j) of every pair."""
        adj = np.zeros((self.p, self.p), dtype=bool)
        ends = np.fromiter(itertools.chain.from_iterable(self.pairs), dtype=np.intp,
                           count=2 * len(self.pairs)).reshape(-1, 2).T
        adj[ends, ends[::-1]] = True
        return adj


@dataclass(frozen=True)
class Dataset:
    """n x p observation matrix with optional column names."""

    values: np.ndarray
    names: tuple | None = None

    def __post_init__(self):
        a = np.array(self.values, dtype=float, copy=True)
        if a.ndim != 2:
            raise ShapeError(f"data must be 2-d, got shape {a.shape}")
        n, p = a.shape
        if n < 2 or p < 2:
            raise ShapeError(f"data needs n >= 2 rows and p >= 2 columns, got {a.shape}")
        if not np.all(np.isfinite(a)):
            bad = int(np.argwhere(~np.isfinite(a))[0][0])
            raise DataError(f"data contains non-finite values (first bad row {bad})")
        a.setflags(write=False)
        object.__setattr__(self, "values", a)
        if self.names is not None:
            names = tuple(str(s) for s in self.names)
            if len(names) != p:
                raise ShapeError(f"{len(names)} column names for {p} columns")
            dup = first_repeat(names)
            if dup is not None:
                raise DataError(f"column name {dup!r} appears twice")
            object.__setattr__(self, "names", names)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def column_names(self) -> tuple:
        if self.names is not None:
            return self.names
        return tuple(f"x{j + 1}" for j in range(self.p))

    @classmethod
    def from_csv_text(cls, text: str) -> "Dataset":
        rows = [r for r in csv.reader(text.splitlines()) if r]
        if not rows:
            raise DataError("empty CSV")
        header = rows[0]
        try:
            [float(v) for v in header]
        except ValueError:
            names = tuple(header)
            body = rows[1:]
        else:
            names = None
            body = rows
        width = len(header)

        def cell(i, k, v):
            try:
                return float(v)
            except ValueError:
                col = repr(names[k]) if names else str(k + 1)
                raise DataError(f"data row {i}, column {col}: {v!r} is not a number") from None

        vals = []
        for i, r in enumerate(body, start=1):
            if len(r) != width:
                raise DataError(f"data row {i}: {len(r)} cells for {width} columns")
            vals.append([cell(i, k, v) for k, v in enumerate(r)])
        return cls(np.asarray(vals, dtype=float), names=names)


def precision_to_partial_correlation(theta) -> PartialCorrelationMatrix:
    """p_jk = -theta_jk / sqrt(theta_jj * theta_kk), zero diagonal.

    Invariant under theta -> D theta D for positive diagonal D.
    """
    a = symmetrize(theta, "precision matrix")
    d = np.diag(a)
    if d.min() <= 0.0:
        bad = int(np.argmin(d))
        raise DomainError(f"nonpositive diagonal entry at index {bad}")
    inv_sd = 1.0 / np.sqrt(d)
    pc = -a * np.outer(inv_sd, inv_sd)
    np.fill_diagonal(pc, 0.0)
    return PartialCorrelationMatrix(pc)
