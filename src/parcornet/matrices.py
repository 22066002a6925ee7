"""Core matrix and data types.

Square-matrix inputs are validated for symmetry up to a relative
tolerance and stored in exactly symmetrized form; all containers are
immutable after construction.
"""
from __future__ import annotations

import csv
import sys
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property

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


class EdgeSet:
    """Unordered node pairs over nodes 0..p-1, no self loops.

    pairs may be given as any collection of node pairs or as an (m, 2)
    integer array. Each pair is stored once, as (j, k) with j < k, in one
    read-only int64 (m, 2) array sorted by (j, k): a reversed or repeated
    pair is the same pair, and the set iterates in that order. Input in
    that order already, as stage 1 and np.nonzero give it, is recognised
    by a few vector comparisons; any other is sorted and merged. The
    stored pairs are then checked by one test, 0 <= j < k < p; only when
    it fails is the input searched, in its own order, for the first self
    loop and failing that the first pair out of range, which the error
    names.

    Two edge sets are equal when their p and their arrays' bytes are; the
    hash is computed once, on first use. pairs, the frozenset of (j, k)
    int tuples, is built when it is first read, which the estimator never
    does: stage 2 takes neighbor_lists. An EdgeSet is immutable; it
    pickles and copies through its constructor.
    """

    def __init__(self, p: int, pairs=frozenset()):
        if p < 1:
            raise ShapeError("EdgeSet needs p >= 1")
        ends = np.array(pairs if isinstance(pairs, np.ndarray) else list(pairs), dtype=np.int64)
        if ends.size == 0:
            ends = ends.reshape(0, 2)
        if ends.ndim != 2 or ends.shape[1] != 2:
            raise ShapeError(f"edges must be node pairs, got an array of shape {ends.shape}")
        canon = np.sort(ends, axis=1)
        lo, hi = canon[:, 0], canon[:, 1]
        # is each pair after the one before in (j, k) order? Compared by parts:
        # one index j * p + k would overflow past p = 2**31.5
        if len(canon) > 1 and not ((lo[1:] > lo[:-1])
                                   | ((lo[1:] == lo[:-1]) & (hi[1:] > hi[:-1]))).all():
            canon = canon[np.lexsort((hi, lo))]
            lo, hi = canon[:, 0], canon[:, 1]
            canon = canon[np.concatenate(([True], (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])))]
            lo, hi = canon[:, 0], canon[:, 1]
        # canon is in (j, k) order, so its first j is its least
        if len(canon) and not (canon[0, 0] >= 0 and hi.max() < p and (lo < hi).all()):
            j, k = ends.T
            lo, hi = np.sort(ends, axis=1).T
            loop = np.flatnonzero(j == k)
            if loop.size:
                raise DomainError(f"self loop ({j[loop[0]]},{k[loop[0]]}) not allowed")
            out = np.flatnonzero((lo < 0) | (hi >= p))[0]
            raise DomainError(f"edge ({j[out]},{k[out]}) out of range for p={p}")
        canon.setflags(write=False)
        self.__dict__.update(p=p, _ends=canon)

    @classmethod
    def from_pairs(cls, p: int, pairs) -> "EdgeSet":
        return cls(p, list(pairs))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return EdgeSet, (self.p, self._ends)

    def __repr__(self) -> str:
        return f"EdgeSet({self.p!r}, {list(self)!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeSet):
            return NotImplemented
        return self.p == other.p and self._ends.tobytes() == other._ends.tobytes()

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.p, self._ends.tobytes()))

    @cached_property
    def pairs(self) -> frozenset:
        """The pairs as a frozenset of (j, k) int tuples, j < k."""
        return frozenset(self)

    def __len__(self) -> int:
        return len(self._ends)

    def __contains__(self, pair) -> bool:
        j, k = pair
        return bool(((self._ends[:, 0] == min(j, k)) & (self._ends[:, 1] == max(j, k))).any())

    def __iter__(self):
        return zip(*self._ends.T.tolist())

    def to_adjacency(self) -> np.ndarray:
        """The symmetric p x p bool matrix that is True at both (j, k) and (k, j) of every pair."""
        adj = np.zeros((self.p, self.p), dtype=bool)
        ends = self._ends.T
        adj[ends, ends[::-1]] = True
        return adj

    def neighbor_lists(self) -> tuple:
        """(rows, cols): the nonzeros of to_adjacency() in row-major order,
        as np.nonzero gives them, without the p x p matrix. Node j's
        neighbors are the ascending slice of cols where rows is j."""
        j, k = self._ends.T
        # row r takes its columns below r from pairs (., r) and then those
        # above r from pairs (r, .); each part ascends in the pairs' order
        rows, cols = np.concatenate((k, j)), np.concatenate((j, k))
        order = np.argsort(rows, kind="stable")
        return rows[order], cols[order]


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
