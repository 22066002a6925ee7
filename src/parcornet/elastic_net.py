"""Elastic-net regression by an exact primal-dual active-set solve.

Minimizes

    (1/2n) ||y - a - X b||^2 + lam * (alpha ||b||_1 + (1-alpha)/2 ||b||_2^2)

with the intercept a left unpenalized. Columns are NOT standardized
internally; the penalty acts on the coefficients as given. The solver
works on centered second moments (Gram form). solve_gram regresses
several columns of one Gram G on all its other columns at once: the
coefficients form a matrix with one column per response and a zero in
each response's own row. solve is its one-response case, on the Gram of
[X, y].

With H = G + lam(1-alpha) I, a response g whose support A and signs s
are known has the solution H_AA b_A = g_A - lam*alpha*s_A and 0 off A.
Each round of the primal-dual active-set (PDAS) update of Hintermuller,
Ito & Kunisch (2003) reads every running response's dual residual
z = g - H b, sets its support to |KAPPA H_jj b_j + z_j| > lam*alpha with
the signs of that expression, and solves all the support systems as one
batch. A response stops when its (support, signs) repeats: that fixed
point is the KKT condition, so the solution is exact rather than
accurate to a tolerance. PDAS can cycle. A response that revisits an
earlier state, meets a singular block or uses MAX_ROUNDS rounds goes on
by feature-sign steps (Lee et al. 2007), each of which lowers its
objective, and is returned unconverged if those too use MAX_ROUNDS.
A solve may start from given supports and signs instead of from 0 (a
warm start); where the solution is unique it ends at the same point.
KAPPA and MAX_ROUNDS are module constants, read at call time.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DomainError, ShapeError

# Weight of the primal iterate in the PDAS support test, as a fraction of
# each coordinate's curvature H_jj, so it has no units. It decides only
# whether a support coordinate whose sign flipped is flipped or dropped.
# At 1, PDAS cycles on the Grams of heavy-tailed (t3) draws at n = 500; at
# 0.1 and 0.01 it cycled on none of 96 such Grams at p = 60 and p = 150,
# in at most 8 rounds. On a lasso (alpha = 1) with p = 60 and n = 62 at
# 0.01 lam_max it cycled on 47 of the 60 regressions at 0.1, none at 0.01.
KAPPA = 0.01
# Cap on each response's PDAS rounds, and again on its feature-sign steps.
# Feature-sign steps add one coordinate at a time, so the cap must exceed
# the largest support.
MAX_ROUNDS = 1000
# A support block is singular when its smallest eigenvalue is below this
# fraction of its largest. A Gram summed over n rows carries rounding far
# above machine epsilon, so a rank-deficient one (n <= p) shows
# eigenvalues near 1e-13 rather than 0; the square root of double
# precision's epsilon, 2**-26, separates those from the conditioning of
# genuine data (1e4 at n = p + 2).
SINGULAR_RTOL = 2.0**-26


@dataclass(frozen=True)
class PenaltyConfig:
    """Mixing weight alpha in [0, 1] and overall strength lam >= 0."""

    alpha: float
    lam: float

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if not (self.lam >= 0.0 and np.isfinite(self.lam)):
            raise ConfigError(f"lam must be finite and >= 0, got {self.lam}")


@dataclass
class ElasticNetFit:
    coefficients: np.ndarray
    intercept: float
    objective: float
    rounds: int
    converged: bool
    kkt_residual: float


@dataclass
class GramFit:
    """The active-set solve of several responses of one Gram.

    Column i of coefficients regresses Gram column columns[i] on all the
    others; its own row is 0. The response_* arrays hold each response's
    round count (PDAS rounds plus feature-sign steps), convergence flag
    and subgradient residual.
    """

    coefficients: np.ndarray
    response_rounds: np.ndarray
    response_converged: np.ndarray
    response_kkt: np.ndarray

    @property
    def sweeps(self) -> int:
        """Rounds summed over the responses (the name the bench counters read)."""
        return int(self.response_rounds.sum())

    @property
    def converged(self) -> bool:
        """True only when every response converged."""
        return bool(self.response_converged.all())


def penalty_value(b: np.ndarray, penalty: PenaltyConfig) -> float:
    """lam * (alpha ||b||_1 + (1-alpha)/2 ||b||_2^2)."""
    l1 = float(np.abs(b).sum())
    l2 = float(b @ b)
    return penalty.lam * (penalty.alpha * l1 + 0.5 * (1.0 - penalty.alpha) * l2)


def _gram_objective(b, gram, cross, y_var, penalty):
    # (1/2n)||y_c - X_c b||^2 expressed through centered moments
    quad = 0.5 * (y_var - 2.0 * float(cross @ b) + float(b @ gram @ b))
    return quad + penalty_value(b, penalty)


def _kkt_residuals(b, gram, cols, penalty):
    """Largest subgradient violation in each column of b (responses cols)."""
    grad = gram @ b - gram[:, cols] + penalty.lam * (1.0 - penalty.alpha) * b
    thr = penalty.lam * penalty.alpha
    res = np.where(b != 0.0, np.abs(grad + thr * np.sign(b)), np.maximum(np.abs(grad) - thr, 0.0))
    res[cols, np.arange(cols.size)] = 0.0  # a response is not one of its own coordinates
    return res.max(axis=0, initial=0.0)


def _solve_supports(hx, g, thr, state, b, live):
    """Solve the support systems of responses live as one batch, into b.

    state holds each response's signs on its support and 0 off it. hx is
    H with an identity block appended, which pads every block to the
    largest support. Returns a mask over live of the responses whose block
    is singular (all of them if LU fails); their columns of b are left as
    they were.
    """
    p = g.shape[0]
    act = state[:, live] != 0
    size = act.sum(axis=0)
    m = int(size.max())
    pad = np.arange(m) >= size[:, None]
    rows = np.argsort(~act, axis=0, kind="stable")[:m].T  # each support first, ascending
    ext = np.where(pad, p + np.arange(m), rows)
    blocks = hx[ext[:, :, None], ext[:, None, :]]
    rhs = np.where(pad, 0.0, g[rows, live[:, None]] - thr * state[rows, live[:, None]])
    try:
        x = np.linalg.solve(blocks, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:  # an exactly singular block: hand the whole batch over
        x = np.full(rhs.shape, np.nan)
    singular = _singular(x, hx[:p, :p], rhs)
    keep = ~singular
    b[:, live[keep]] = 0.0
    filled = ~pad & keep[:, None]
    b[rows[filled], live[np.nonzero(filled)[0]]] = x[filled]
    return singular


def _singular(x, h, rhs):
    """True where the solve x of a block of h against rhs shows a singular
    block: LU failed (x is nan), or x is as large as only an eigenvalue
    below SINGULAR_RTOL times the scale of h could make it. An empty
    block is not singular."""
    reach = np.abs(x).max(axis=-1, initial=0.0) * np.abs(h).max() * SINGULAR_RTOL
    return ~(reach <= np.abs(rhs).max(axis=-1, initial=0.0))


def _feature_sign(h, g, thr, b, own, budget):
    """Feature-sign steps (Lee et al. 2007) for one response, from b.

    Once b minimizes the objective on its own support and signs, a step
    adds the worst KKT violator with the sign of its dual residual. Each
    step heads for the minimizer on the support and signs, or down the
    null space of a singular block, and stops at the point of lowest
    objective among the sign changes on the way and the end; the
    objective falls at every step, so the walk ends. It starts from b or
    from 0, whichever has the lower objective. Returns (b, steps,
    converged).
    """
    b = b.copy() if 0.5 * b @ h @ b - g @ b + thr * np.abs(b).sum() < 0.0 else np.zeros_like(b)
    settled = False  # b minimizes the objective on its support and signs
    steps = 0
    while True:
        grad = h @ b - g
        settled = settled or not b.any()
        if settled:
            z = -grad
            z[own] = 0.0
            z[b != 0.0] = 0.0
            j = int(np.argmax(np.abs(z)))
            if abs(z[j]) <= thr:
                return b, steps, True
        if steps == budget:
            return b, steps, False
        steps += 1
        idx = np.flatnonzero(b)
        signs = np.sign(b[idx])
        if settled:
            idx, signs = np.append(idx, j), np.append(signs, np.sign(z[j]))
        start = b[idx]
        block = h[np.ix_(idx, idx)]
        rhs = g[idx] - thr * signs
        try:
            target = np.linalg.solve(block, rhs)
        except np.linalg.LinAlgError:
            target = np.full(idx.size, np.nan)
        d, ends = target - start, True
        if _singular(target, h, rhs):
            w, v = np.linalg.eigh(block)
            proj = v.T @ rhs
            flat = w <= SINGULAR_RTOL * w.max(initial=0.0)
            d = v[:, ~flat] @ (proj[~flat] / w[~flat]) - start
            # when the right-hand side leaves the block's range, the
            # objective falls without bound down the null space until a
            # sign changes
            ray = v[:, flat] @ proj[flat]
            if (np.linalg.norm(proj[flat]) > SINGULAR_RTOL * np.linalg.norm(proj)
                    and np.any(start * ray < 0.0)):
                d, ends = ray, False
        if settled and d[-1] * signs[-1] <= 0.0:
            return b, steps, False  # the violator would not move: its violation is rounding
        flips = np.full(idx.size, np.inf)
        cross = start * d < 0.0
        flips[cross] = -start[cross] / d[cross]
        taus = np.unique(flips[flips < (1.0 if ends else np.inf)])
        if ends:
            taus = np.append(taus, 1.0)
        # the objective at each candidate, relative to b, exact along the segment
        path = start + taus[:, None] * d
        value = (taus * (grad[idx] @ d) + 0.5 * taus**2 * (d @ block @ d)
                 + thr * (np.abs(path).sum(axis=1) - np.abs(start).sum()))
        k = int(np.argmin(value))
        b[idx] = path[k]
        b[idx[flips == taus[k]]] = 0.0  # exactly zero where its sign changes
        settled = ends and taus.size == 1


def solve_gram(gram: np.ndarray, columns, penalty: PenaltyConfig, start=None) -> GramFit:
    """Regress each listed column of a centered Gram on all its other columns.

    gram is X_c^T X_c / n. Column i of the result holds the coefficients
    of response columns[i], with its own row held at 0. Without start,
    every response starts from 0. start, a p x len(columns) sign matrix,
    warm-starts the solve: column i's nonzeros are response i's starting
    support, with their signs, and its entry in the response's own row is
    ignored. The warm supports are solved once as a batch before the
    first round, and that solve is not counted as a round; a response
    whose warm block is singular starts from 0 instead. The solution is
    unique when lam(1-alpha) > 0 or every support block is positive
    definite, so a start changes the rounds, not the result. Every
    response then runs the batched PDAS rounds; a coordinate with no
    curvature (zero variance, no ridge term) has a zero dual residual and
    never enters a support. Responses that cycle, meet a singular block
    or reach MAX_ROUNDS continue by feature-sign steps, at most
    MAX_ROUNDS of them, and are returned unconverged if those run out.
    """
    gram = np.asarray(gram, dtype=float)
    if not np.all(np.isfinite(gram)):
        raise DomainError("elastic net Gram is non-finite")
    p = gram.shape[0]
    cols = np.asarray(columns, dtype=np.intp).reshape(-1)
    r = cols.size
    thr = penalty.lam * penalty.alpha
    hx = np.eye(2 * p)
    hx[:p, :p] = gram + penalty.lam * (1.0 - penalty.alpha) * np.eye(p)
    h = hx[:p, :p]
    g = gram[:, cols]
    weight = KAPPA * np.diag(h)[:, None]
    b = np.zeros((p, r))
    state = np.zeros((p, r), dtype=np.int8)  # signs on the support, 0 off it
    if start is not None:
        start = np.asarray(start)
        if start.shape != (p, r):
            raise ShapeError(f"start must have shape ({p}, {r}), got {start.shape}")
        state[:] = np.sign(start)
        state[cols, np.arange(r)] = 0
        warm = np.flatnonzero(state.any(axis=0))
        if warm.size:
            # a singular warm block leaves its column of b at 0: start it cold
            state[:, warm[_solve_supports(hx, g, thr, state, b, warm)]] = 0
    seen = [{state[:, i].tobytes()} for i in range(r)]
    rounds = np.zeros(r, dtype=np.int64)
    converged = np.zeros(r, dtype=bool)
    handed = []  # responses left to the feature-sign steps
    live = np.arange(r)
    while live.size:
        rounds[live] += 1
        v = weight * b[:, live] + g[:, live] - h @ b[:, live]
        new = np.where(np.abs(v) > thr, np.sign(v), 0.0).astype(np.int8)
        new[cols[live], np.arange(live.size)] = 0
        same = (new == state[:, live]).all(axis=0)
        converged[live[same]] = True
        going = ~same
        for k in np.flatnonzero(going):
            i, key = live[k], new[:, k].tobytes()
            if key in seen[i] or rounds[i] >= MAX_ROUNDS:
                going[k] = False
                handed.append(i)
            else:
                seen[i].add(key)
        live = live[going]
        state[:, live] = new[:, going]
        if live.size:
            singular = _solve_supports(hx, g, thr, state, b, live)
            handed.extend(live[singular].tolist())
            live = live[~singular]
    for i in handed:
        b[:, i], steps, converged[i] = _feature_sign(h, g[:, i], thr, b[:, i], cols[i], MAX_ROUNDS)
        rounds[i] += steps
    if not np.all(np.isfinite(b)):
        raise DomainError("elastic net coefficients are non-finite")
    return GramFit(b, rounds, converged, _kkt_residuals(b, gram, cols, penalty))


def solve(
    design: np.ndarray,
    response: np.ndarray,
    penalty: PenaltyConfig,
) -> ElasticNetFit:
    """Fit the penalized regression of response on design with an intercept."""
    x = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    if x.ndim != 2:
        raise ShapeError(f"design must be 2-d, got shape {x.shape}")
    n, m = x.shape
    if y.shape != (n,):
        raise ShapeError(f"response must have shape ({n},), got {y.shape}")
    if n < 2:
        raise ShapeError("need at least 2 observations")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DataError("design or response contains non-finite values")
    x_mean = x.mean(axis=0)
    y_mean = float(y.mean())
    xc = x - x_mean
    yc = y - y_mean
    # the Gram of [X, y], built from blocks so that its cross column is
    # exactly the one lambda_max computes
    gram = np.empty((m + 1, m + 1))
    gram[:m, :m] = xc.T @ xc / n
    gram[:m, m] = gram[m, :m] = xc.T @ yc / n
    gram[m, m] = float(yc @ yc) / n
    fit = solve_gram(gram, [m], penalty)
    b = fit.coefficients[:m, 0].copy()
    obj = _gram_objective(b, gram[:m, :m], gram[:m, m], gram[m, m], penalty)
    if not np.isfinite(obj):
        raise DomainError("elastic net objective is non-finite")
    # unpenalized intercept recovered from the centering identity
    intercept = y_mean - float(x_mean @ b)
    return ElasticNetFit(b, intercept, obj, int(fit.response_rounds[0]), fit.converged,
                         float(fit.response_kkt[0]))


def lambda_max(design: np.ndarray, response: np.ndarray, alpha: float) -> float:
    """Smallest lam at which the all-zero coefficient vector is optimal.

    max_j |x_j^T (y - ybar)| / (n * alpha), using centered columns.
    """
    if alpha <= 0.0:
        raise DomainError("lambda_max needs alpha > 0 (pure ridge never zeroes out)")
    x = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    n = x.shape[0]
    xc = x - x.mean(axis=0)
    yc = y - y.mean()
    peak = float(np.abs(xc.T @ yc / n).max())
    lam = peak / alpha
    # nudge up by ulps so lam * alpha >= peak holds in float arithmetic,
    # making "b = 0 at every lam >= lambda_max" exact rather than approximate
    while lam * alpha < peak:
        lam = np.nextafter(lam, np.inf)
    return float(lam)
