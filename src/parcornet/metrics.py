"""Recovery metrics: edge confusion counts, F1, and matrix distance."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .matrices import EdgeSet


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int


def confusion(estimated: EdgeSet, truth: EdgeSet) -> ConfusionCounts:
    """Counts over all p(p-1)/2 unordered node pairs."""
    if estimated.p != truth.p:
        raise ShapeError(f"edge sets disagree on p: {estimated.p} vs {truth.p}")
    tp = len(estimated.pairs & truth.pairs)
    fp = len(estimated.pairs - truth.pairs)
    fn = len(truth.pairs - estimated.pairs)
    total = estimated.p * (estimated.p - 1) // 2
    return ConfusionCounts(tp, fp, fn, total - tp - fp - fn)


def f1_score(c: ConfusionCounts) -> float:
    """Harmonic mean of precision and recall.

    With tp = 0: returns 1.0 when the estimate and the truth are both
    empty, else 0.0.
    """
    if c.tp == 0:
        return 1.0 if (c.fp == 0 and c.fn == 0) else 0.0
    return 2.0 * c.tp / (2.0 * c.tp + c.fp + c.fn)


def false_discovery_rate(c: ConfusionCounts) -> float:
    """fp / (tp + fp); empty estimate scores 0."""
    return c.fp / (c.tp + c.fp) if (c.tp + c.fp) else 0.0


def frobenius_distance(a, b) -> float:
    """Entrywise Frobenius norm of the difference (off-diagonals counted twice)."""
    av = np.asarray(getattr(a, "values", a), dtype=float)
    bv = np.asarray(getattr(b, "values", b), dtype=float)
    if av.shape != bv.shape:
        raise ShapeError(f"shape mismatch: {av.shape} vs {bv.shape}")
    return float(np.linalg.norm(av - bv, "fro"))
