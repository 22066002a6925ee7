"""Elastic-net regression by an exact primal-dual active-set solve.

Minimizes

    (1/2n) ||y - a - X b||^2 + lam * (alpha ||b||_1 + (1-alpha)/2 ||b||_2^2)

with the intercept a left unpenalized. Columns are NOT standardized
internally; the penalty acts on the coefficients as given. The solver
works on centered second moments (Gram form). solve_gram takes a stack
of Grams G with one penalty each and regresses several columns of every
G on all its other columns at once: each Gram's coefficients form a
matrix with one column per response and a zero in each response's own
row. Every decision about a response reads only its own Gram and
penalty, so each Gram gets what it gets alone. solve is the
one-response case, on a stack of one: the Gram of [X, y].

With H = G + lam(1-alpha) I, a response g whose support A and signs s
are known has the solution H_AA b_A = g_A - lam*alpha*s_A and 0 off A.
Each round of the primal-dual active-set (PDAS) update of Hintermuller,
Ito & Kunisch (2003) reads every running response's dual residual
z = g - H b, sets its support to |KAPPA H_jj b_j + z_j| > lam*alpha
with the signs of that expression, and solves all the support systems
in a few batches. Each response is one row of every per-response array,
so a round takes and writes whole rows, and its dual residuals come from
one batched product over the stack. A response stops when its (support,
signs) repeats: that fixed point is the KKT condition, so the solution
is exact rather than accurate to a tolerance.

A round reads the supports of all the responses it solves in one pass:
it sorts them by support size, takes every support coordinate and its
right-hand side at once, and cuts the sorted rows into batches by size.
Supports below BATCH_BLOCK coordinates share one batch; above it a batch
holds the sizes from m to below m + m // 8, so its blocks differ in size
by at most an eighth. Each block is padded to its batch's largest with
an identity block and a zero right-hand side, read from an identity
kept beside each H, so every batch takes the same few array operations.
On the 96 stage-1 solves of a p = 60 gaussian select, factor-2 bands
padded 40% of the LU flops and these bands pad 14%.

PDAS can cycle. The states of the running responses are kept as one
array with a layer per round, and each round compares the new states
with all of its layers at once: one comparison finds the responses that
repeat their last state and those back at an earlier one, so a round
costs a fixed number of array operations however many came before. A
response that revisits an earlier state, meets a singular block or uses
MAX_ROUNDS rounds goes on by feature-sign steps (Lee et al. 2007), each
of which lowers its objective, and is returned unconverged if those too
use MAX_ROUNDS. A solve starts from given supports and signs: all-zero
signs start every response from 0 (a cold start), and where the
solution is unique any other start (a warm start) ends at the same
point. KAPPA, MAX_ROUNDS and BATCH_BLOCK are module constants, read at
call time.
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
# Support systems smaller than BATCH_BLOCK are solved in one batch; a
# larger one shares a batch only with sizes from m to below m + m // 8
# (see _band_starts).
BATCH_BLOCK = 16


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


@dataclass
class GramFit:
    """The active-set solve of several responses of each Gram of a stack.

    Every array has a leading axis with one entry per Gram. Column i of
    coefficients[k] regresses column columns[i] of Gram k on all the
    others; its own row is 0. response_rounds[k] and
    response_converged[k] hold each response's round count (PDAS rounds
    plus feature-sign steps) and convergence flag.
    """

    coefficients: np.ndarray
    response_rounds: np.ndarray
    response_converged: np.ndarray

    @property
    def sweeps(self) -> int:
        """Rounds summed over the responses (the name the bench counters read)."""
        return int(self.response_rounds.sum())

    @property
    def converged(self) -> bool:
        """True only when every response converged."""
        return bool(self.response_converged.all())


def _band_starts(p):
    """The smallest support size of each batch band, over supports of 1 to
    p - 1 coordinates: sizes below BATCH_BLOCK share one band, and above
    it a band that starts at size m holds the sizes below m + m // 8.

    Padding a batch to its largest support (a hub node's, or the smallest
    lambda's in a stack) then costs at most about 40% more LU flops than
    its blocks need, and each batch also costs a few fixed numpy calls.
    Replaying the 96 stage-1 solves of a p = 60 gaussian select, bands of
    a factor of 2 (40% of LU flops padding) took 7% longer than these
    (14%), and one batch per exact size (5%, twice the batches) as long.
    """
    starts, m = [1], BATCH_BLOCK
    while m < p:
        starts.append(m)
        m += max(m // 8, 1)
    return starts


def _solve_supports(hp, g, thr, scale, bands, b, q, signs, lk):
    """Solve the support systems of the responses in rows q into b.

    signs holds each row's signs on its support and 0 off it, lk its
    Gram. hp holds the s matrices H in its leading p x p corners, with an
    identity block after them. The rows are sorted by support size and
    their supports and right-hand sides read in one pass, then solved in
    one batch per band of sizes (bands holds the smallest size of each,
    from _band_starts). Every support is padded to the largest of its
    band with coordinates p, p + 1, ..., whose rows and columns in hp
    are the identity's, and a zero right-hand side; so each batch is one
    gather of its blocks, one batched LU solve and one write, whether or
    not its sizes differ. Rows with an empty support solve nothing.
    Returns a mask over q of the responses whose block is singular; their
    coefficients are left as they were.
    """
    p, w = signs.shape[1], hp.shape[1]
    support = signs != 0
    size = support.sum(axis=1)
    order = np.argsort(size, kind="stable")
    size, rows, lk = size[order], q[order], lk[order]
    flat = np.flatnonzero(support[order])  # row by row, each support in ascending order
    at, col = np.divmod(flat, p)
    rhs = g[rows].ravel().take(flat) - np.repeat(thr[lk], size) * signs[order].ravel().take(flat)
    # band i holds rows cuts[i] to ends[i]; the rows before cuts[0] have an
    # empty support
    cuts = np.searchsorted(size, bands)
    ends = np.append(cuts[1:], size.size)
    solved = cuts[0]
    n = size[solved:]
    wide = np.repeat(size[ends - 1], ends - cuts)  # the largest of each row's band
    # each support left-aligned in a row of its band's width, its k-th pad
    # coordinate p + k; cols and heads are the columns and the flat index
    # in hp of the rows that every entry of the padded blocks reads
    begin = np.cumsum(wide) - wide
    cols = np.arange(wide.sum()) - np.repeat(begin - p + n, wide)
    fill = cols < p
    cols[fill] = col
    heads = (np.repeat(lk[solved:] * w, wide) + cols) * w
    r = np.zeros(cols.size)
    r[fill] = rhs
    x = np.empty(cols.size)
    hflat = hp.reshape(-1)
    offsets, sizes = begin.tolist(), size.tolist()
    for a, z in zip(cuts.tolist(), ends.tolist()):
        if a < z:
            lo, m = offsets[a - solved], sizes[z - 1]
            hi = lo + (z - a) * m
            blocks = hflat.take(heads[lo:hi].reshape(z - a, m)[:, :, None]
                                + cols[lo:hi].reshape(z - a, m)[:, None, :])
            x[lo:hi] = _lu_solve(blocks, r[lo:hi].reshape(z - a, m)).ravel()
    singular = np.zeros(size.size, dtype=bool)
    singular[solved:] = _singular(x, r, begin, scale[lk[solved:]])
    keep = ~singular
    put = keep[at]
    b[rows[keep]] = 0.0
    b[rows[at[put]], col[put]] = x[fill][put]
    out = np.empty(q.size, dtype=bool)
    out[order] = singular
    return out


def _lu_solve(blocks, rhs):
    """Solve each block against its row of rhs; nan where LU fails."""
    try:
        return np.linalg.solve(blocks, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:  # an exactly singular block: find it, one block at a time
        x = np.full(rhs.shape, np.nan)
        for j in range(x.shape[0]):
            try:
                x[j] = np.linalg.solve(blocks[j], rhs[j])
            except np.linalg.LinAlgError:
                pass
        return x


def _singular(x, rhs, start, scale):
    """True for each nonempty block whose solve shows it singular.

    Block i's solve and right-hand side are x and rhs from start[i] to
    start[i + 1] (the last to the end), on an H with max |H| = scale[i].
    It is singular when LU failed (x is nan), or x is as large as only an
    eigenvalue below SINGULAR_RTOL times scale could make it.
    """
    reach = np.maximum.reduceat(np.abs(x), start) * scale * SINGULAR_RTOL
    return ~(reach <= np.maximum.reduceat(np.abs(rhs), start))


def _residuals(h, g, weight, b, live, gram_of):
    """The dual residuals KAPPA H_jj b_j + g_j - (H b)_j of the rows in
    live, formed in place. The products H b are one batched matrix product
    over every row of the stack, of which the live rows are taken."""
    s, p = h.shape[:2]
    hb = np.matmul(h, b.reshape(s, -1, p).transpose(0, 2, 1))  # H_k b, one column per row
    lk = gram_of[live]
    v = weight[lk] * b[live]
    v += g[live]
    v -= hb[lk, :, live % hb.shape[2]]
    return v


def _feature_sign(h, g, thr, b, own, budget, scale):
    """Feature-sign steps (Lee et al. 2007) for one response, from b, on an
    h with max |h| = scale.

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
        if _singular(target, rhs, [0], scale)[0]:
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


def solve_gram(grams: np.ndarray, columns, penalties, start: np.ndarray) -> GramFit:
    """Regress each listed column of every centered Gram of a stack on all
    its other columns.

    grams is a stack of s Grams X_c^T X_c / n (s x p x p) and penalties a
    sequence of s PenaltyConfigs, one per Gram: each Gram's regressions
    are solved under its own penalty. Column i of coefficients[k] holds
    the coefficients of response columns[i] of Gram k, with its own row
    held at 0. start, an s x p x len(columns) sign array, gives each
    response its starting support and signs in the same layout; its entry
    in the response's own row is ignored. All zeros is the cold start:
    every response starts from 0. The nonzero (warm) supports are solved
    once, batched as in a round, before the first round, and that solve
    is not counted as a round; a response whose warm block is singular starts
    from 0 instead. The solution is unique when lam(1-alpha) > 0 or every
    support block is positive definite, so a start changes the rounds,
    not the result. Every response then runs the batched PDAS rounds; a
    coordinate with no curvature (zero variance, no ridge term) has a
    zero dual residual and never enters a support. Responses that cycle,
    meet a singular block or reach MAX_ROUNDS continue by feature-sign
    steps, at most MAX_ROUNDS of them, and are returned unconverged if
    those run out. Every decision about a response reads only its own
    Gram and penalty, so a response's support and signs do not depend on
    what it is stacked with. Row k r + i of the solve's arrays is
    response i of Gram k (r = len(columns)); start and the coefficients
    are transposed once.
    """
    grams = np.asarray(grams, dtype=float)
    if grams.ndim != 3 or grams.shape[1] != grams.shape[2]:
        raise ShapeError(f"grams must be a stack of square Grams (s x p x p), got shape {grams.shape}")
    s, p = grams.shape[:2]
    penalties = list(penalties)
    if len(penalties) != s:
        raise ShapeError(f"a stack of {s} Grams needs {s} penalties, got {len(penalties)}")
    if not np.all(np.isfinite(grams)):
        raise DomainError("elastic net Gram is non-finite")
    cols = np.asarray(columns, dtype=np.intp).reshape(-1)
    r = cols.size
    start = np.asarray(start)
    if start.shape != (s, p, r):
        raise ShapeError(f"start must have shape {(s, p, r)}, got {start.shape}")
    # the Gram and the own column of each row
    gram_of = np.repeat(np.arange(s), r)
    own = np.tile(cols, s)
    thr = np.array([pen.lam * pen.alpha for pen in penalties])
    ridge = np.array([pen.lam * (1.0 - pen.alpha) for pen in penalties])
    # H, then an identity block as wide as the most padding a band needs
    starts = _band_starts(p)
    w = p + max(max(hi - lo for lo, hi in zip(starts, [*starts[1:], p])) - 1, 0)
    bands = np.array(starts)
    hp = np.zeros((s, w, w))
    h = hp[:, :p, :p]
    h[...] = grams
    diagonal = hp.reshape(s, -1)[:, ::w + 1]
    diagonal[:, p:] = 1.0
    diagonal = diagonal[:, :p]  # a view of each H_jj
    diagonal += ridge[:, None]
    scale = np.abs(h).max(axis=(1, 2))
    g = grams.transpose(0, 2, 1)[:, cols].reshape(s * r, p)
    weight = KAPPA * diagonal
    # each row's support threshold, infinite on its own column
    top = np.empty((s, r, p))
    top[...] = thr[:, None, None]
    top = top.reshape(s * r, p)
    top[np.arange(s * r), own] = np.inf
    b = np.zeros((s * r, p))
    # signs on the support, 0 off it
    state = np.sign(start).transpose(0, 2, 1).reshape(s * r, p).astype(np.int8)
    state[np.arange(s * r), own] = 0
    warm = np.flatnonzero(state.any(axis=1))
    if warm.size:
        # a singular warm block leaves its coefficients at 0: start it cold
        singular = _solve_supports(hp, g, thr, scale, bands, b, warm, state[warm], gram_of[warm])
        state[warm[singular]] = 0
    # the state each live row held after every round, one layer per round
    # with the rows in the order of live; the last is the current state
    trail = state[None]
    rounds = np.zeros(s * r, dtype=np.int64)
    converged = np.zeros(s * r, dtype=bool)
    handed = [np.arange(0)]  # responses left to the feature-sign steps
    live = np.arange(s * r)
    t = 0  # rounds run, the same for every live response
    while live.size:
        t += 1
        rounds[live] = t
        v = _residuals(h, g, weight, b, live, gram_of)
        new = np.sign(v).astype(np.int8)
        new *= np.abs(v) > top[live]
        held = (trail == new).all(axis=2)  # new is the state of that round
        same = held[-1]
        converged[live[same]] = True
        # a response that is back at an earlier state, or out of rounds, stops
        go = ~held.any(axis=0) & (t < MAX_ROUNDS)
        handed.append(live[~(go | same)])
        live, new = live[go], new[go]
        trail = np.concatenate((trail[:, go], new[None]))
        if live.size:
            singular = _solve_supports(hp, g, thr, scale, bands, b, live, new, gram_of[live])
            if singular.any():
                handed.append(live[singular])
                live, trail = live[~singular], trail[:, ~singular]
    for q in np.concatenate(handed).tolist():
        k = gram_of[q]
        b[q], steps, converged[q] = _feature_sign(h[k], g[q], thr[k], b[q], own[q], MAX_ROUNDS,
                                                   scale[k])
        rounds[q] += steps
    if not np.all(np.isfinite(b)):
        raise DomainError("elastic net coefficients are non-finite")
    return GramFit(b.reshape(s, r, p).transpose(0, 2, 1), rounds.reshape(s, r),
                   converged.reshape(s, r))


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
    fit = solve_gram(gram[None], [m], [penalty], np.zeros((1, m + 1, 1), dtype=np.int8))
    b = fit.coefficients[0, :m, 0].copy()
    # unpenalized intercept recovered from the centering identity
    intercept = y_mean - float(x_mean @ b)
    return ElasticNetFit(b, intercept)


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
