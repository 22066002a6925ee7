"""Gaussian maximum likelihood over precision matrices with a fixed zero pattern.

Given a scatter matrix S and an edge set E, maximizes

    log det(Psi) - trace(S Psi)

subject to psi_jk = 0 for all off-diagonal (j,k) not in E. The solver
sweeps the working covariance W column by column (regression form of the
concentration-graph MLE): each column's non-edge entries are left free
while its edge entries are matched to S. A column update solves the
node's neighbor block W[nb, nb] beta = S[nb, j] by Cholesky and sets the
column to beta' W[nb, :]. It gathers the neighbor rows of W once and
reads the block as their nb columns; W is kept exactly symmetric, so the
rows are also the neighbor columns. Each fit builds one node plan from
the edge set's adjacency: per node its neighbors, S[nb, j] and S[j, j],
and views of its row of steps and of its row and column of W, which the
sweeps write through. Each sweep records every column step in one p x p
array, then reduces it once and sums it in node order; a non-finite step
is named by its node and sweep. Every column update sets W to S on the
edge pattern and the diagonal up to rounding, so the sweeps stop on one
rule, the mean change of W. At the optimum W = Psi^{-1}; Psi is recovered
from the same plan's neighbor solves on the converged W and written in one
step, with exact zeros off the pattern. Its optimality gap max |inv(Psi) - S|
on the pattern and the diagonal takes an O(p^3) inverse that the fit does
not use, so the result computes it when it is first read. The sweep cap and
the change tolerance are the module constants below, read at call time.
fit_stepwise runs the same fit one sweep at a time and hands out W after
each unfinished sweep, whose log det bounds the fit's likelihood; fit
drives it to its end.
"""
from __future__ import annotations

import math
from collections.abc import Generator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import lapack

from .errors import DomainError, EstimationError, ShapeError
from .matrices import EdgeSet, PrecisionMatrix, symmetrize

W_TOL_SCALE = 1e-8
MAX_SWEEPS = 500


@dataclass
class ConstrainedMLEResult:
    """A converged fit: the precision psi, the working covariance W and the
    sweep count. It holds the scatter and the pattern the fit matched, for
    kkt_residual; em keeps only psi and W of a fit, never the result."""

    psi: PrecisionMatrix
    covariance: np.ndarray
    sweeps: int
    _scatter: np.ndarray = field(repr=False, compare=False)
    _pattern: np.ndarray = field(repr=False, compare=False)  # the edges plus the diagonal

    @cached_property
    def kkt_residual(self) -> float:
        """The optimality gap max |inv(psi) - S| over the edge pattern plus the
        diagonal, in the units of S: an O(p^3) inverse, computed on first read."""
        return float(np.abs(np.linalg.inv(self.psi.values) - self._scatter)[self._pattern].max())


def _check_steps(steps, sweep):
    """Raise on the first row of steps whose absolute change is not finite."""
    bad = np.flatnonzero(~np.isfinite(np.abs(steps).sum(axis=1)))
    if bad.size:
        raise EstimationError(f"non-finite column update at node {bad[0]}, sweep {sweep}")


def _singular(j, sweep):
    """The error for node j's neighbor block failing its Cholesky test."""
    return EstimationError(
        f"edge subproblem at node {j}, sweep {sweep} is singular or not positive definite"
    )


def fit(
    scatter,
    edges: EdgeSet,
    w_init: np.ndarray | None = None,
) -> ConstrainedMLEResult:
    """Fit the zero-constrained precision matrix for the given scatter.

    w_init warm-starts the working covariance (its diagonal is reset to
    the scatter's). It is copied as given, so it must be exactly
    symmetric, as the covariance of a previous fit is. The sweeps stop
    when the mean absolute change of the off-diagonal of W falls below
    W_TOL_SCALE times mean |S|; exhausting MAX_SWEEPS first raises
    EstimationError with the last change, as do neighbor blocks that are
    singular or not positive definite, non-finite column updates,
    nonpositive partial variances and a recovered precision that is not
    positive definite. A scatter of p < 2 raises ShapeError up front, as
    a precision matrix needs p >= 2. The result's kkt_residual is the
    optimality gap max |inv(Psi) - S| over the edge pattern plus the
    diagonal, in the units of S, computed when it is first read.

    This runs fit_stepwise to its end, with numpy's warnings silenced.
    """
    stepper = fit_stepwise(scatter, edges, w_init)
    with np.errstate(all="ignore"):
        while True:
            try:
                next(stepper)
            except StopIteration as done:
                return done.value


def fit_stepwise(
    scatter,
    edges: EdgeSet,
    w_init: np.ndarray | None = None,
) -> Generator[np.ndarray, None, ConstrainedMLEResult]:
    """fit, one sweep at a time: a generator that yields the working
    covariance W, a read-only view, after each sweep that did not converge,
    and returns fit's result when its fit ends or raises fit's error.

    Each sweep is block-coordinate ascent on the dual of covariance
    selection, max log det W over W equal to S on the pattern and the
    diagonal (Dempster 1972; Dahl, Vandenberghe & Roychowdhury 2008): a
    column update maximizes log det W over the column's free entries and
    keeps W positive definite. So every W yielded is dual-feasible up to
    rounding, and log det W + p bounds -(log det Psi - trace(S Psi)) from
    below for every Psi with the pattern, the fitted one included; the
    bound rises with each sweep and is attained at the optimum, where
    W = Psi^{-1}. Nothing runs until the first next(), and the checks fit
    makes up front are made then. When the sweeps stop, the neighbor solves
    on the converged W are checked in node order, so an error names the
    first bad node, and Psi takes all its columns in one write.

    A non-finite column enters W before the check after its sweep, so later
    nodes may compute with it and numpy may warn before the check names the
    first. The generator silences nothing itself, as a setting it made would
    stay in force across its yields: run each step under
    np.errstate(all="ignore"), as fit does.
    """
    s = symmetrize(scatter, "scatter matrix")
    p = s.shape[0]
    if p < 2:
        raise ShapeError(f"constrained fit needs a p x p scatter with p >= 2, got {p} x {p}")
    if edges.p != p:
        raise EstimationError(f"edge set has p={edges.p}, scatter has p={p}")
    if np.diag(s).min() <= 0.0:
        raise DomainError("scatter matrix needs a strictly positive diagonal")

    if w_init is not None:
        w = np.array(w_init, dtype=float)
        if w.shape != (p, p):
            raise EstimationError(f"w_init must have shape ({p},{p})")
        np.fill_diagonal(w, np.diag(s))
    else:
        w = s.copy()

    # the node plan; row j of steps holds node j's column step of the current
    # sweep. The adjacency's nonzeros come row by row, so node j's neighbors
    # and its S[nb, j] are one ascending slice of each.
    adj = edges.to_adjacency()
    rows, nbrs = np.nonzero(adj)
    rhs = s[nbrs, rows]
    bounds = np.searchsorted(rows, np.arange(p + 1)).tolist()
    steps = np.empty((p, p))
    plan = [(j, nbrs[a:b], rhs[a:b], s[j, j], steps[j], w[j], w[:, j])
            for j, (a, b) in enumerate(zip(bounds, bounds[1:]))]

    dposv = lapack.dposv
    w_tol = W_TOL_SCALE * float(np.abs(s).mean())
    n_off = max(p * (p - 1), 1)
    mean_change = math.inf
    w_read = w.view()
    w_read.setflags(write=False)
    for sweeps in range(1, MAX_SWEEPS + 1):
        for j, nb, b, s_jj, step, w_row, w_col in plan:
            if nb.size:
                # W is exactly symmetric, so its neighbor rows are its neighbor columns
                nb_rows = w.take(nb, axis=0)
                _, beta, info = dposv(nb_rows.take(nb, axis=1), b)
                if info:
                    _check_steps(steps[:j], sweeps)
                    raise _singular(j, sweeps)
                col = beta.dot(nb_rows)  # as beta @ nb_rows, with less call overhead
            else:
                col = np.zeros(p)
            col[j] = s_jj
            np.subtract(col, w_row, out=step)
            w_col[:] = col
            w_row[:] = col
        # a sequential sum in node order: pairwise rounding could move a stop.
        # The row sums are non-negative, so a non-finite one makes the total non-finite.
        change = float(np.add.accumulate(np.abs(steps).sum(axis=1))[-1])
        if not math.isfinite(change):
            _check_steps(steps, sweeps)
        mean_change = change / n_off
        if mean_change < w_tol:
            break
        yield w_read
    else:
        raise EstimationError(
            f"covariance sweeps did not converge in {MAX_SWEEPS} iterations "
            f"(mean change {mean_change:.3e}, tolerance {w_tol:.3e})"
        )

    # Psi from the same neighbor solves on the converged W, in one write
    betas, gaps = [], []
    for j, nb, b, s_jj, *_ in plan:
        beta = b
        if nb.size:
            _, beta, info = dposv(w.take(nb, axis=0).take(nb, axis=1), b)
            if info:
                raise _singular(j, sweeps)
        gap = s_jj - float(b.dot(beta))
        if not math.isfinite(gap) or gap <= 0.0:
            raise EstimationError(f"nonpositive partial variance at node {j}: {gap:.3e}")
        betas.append(beta)
        gaps.append(gap)
    gaps = np.array(gaps)
    psi_vals = np.zeros((p, p))
    psi_vals[nbrs, rows] = -np.concatenate(betas) / gaps[rows]
    np.fill_diagonal(psi_vals, 1.0 / gaps)
    try:
        # averaging symmetrizes roundoff but keeps off-pattern entries exactly
        # zero; PrecisionMatrix keeps the exactly symmetric average as it is
        psi = PrecisionMatrix(0.5 * (psi_vals + psi_vals.T))
    except DomainError as exc:
        raise EstimationError(f"recovered precision is not positive definite: {exc}") from exc
    np.fill_diagonal(adj, True)
    return ConstrainedMLEResult(psi, w, sweeps, s, adj)
