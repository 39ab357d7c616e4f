"""Regression engines: ordinary least squares, LASSO, and kernel smoothing.

Each engine exposes the same surface: a ``fit_*`` constructor returning an
immutable :class:`FittedModel`, plus :func:`predict` / :func:`predict_many`
for evaluation at new tails. ``fit`` dispatches on the engine enum, and
:func:`loo_residuals` (jackknife) and :func:`candidate_residuals` (full
conformal) on the fitted model's engine, so every engine's refit algebra
lives here and the interval constructors stay engine-agnostic.

LASSO works on the p x p Gram matrix of the standardized problem, solved
exactly by one solver, the homotopy path (Osborne, Presnell & Turlach
2000; Efron et al. 2004). Cross-validation folds and leave-one-out rows
come from one downdate of the full data's cross-products. Each fold reads
its whole penalty grid off its path; a fit at one penalty follows the path
down to it. Fixed-penalty refits (every leave-one-out problem, every
full-conformal candidate head) are batched by sign pattern: one problem's
support and signs solve every problem that shares them in one solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DataError,
    Dataset,
    Regressor,
    _active_columns,
    _choice,
    _readonly,
    _sq_dists,
    _standardize_columns,
    _tail_rows,
    check_knob,
    transform_features,
)

__all__ = [
    "FittedModel",
    "candidate_residuals",
    "fit",
    "fit_ols",
    "fit_lasso",
    "fit_kernel",
    "predict",
    "predict_many",
    "kernel_weights",
    "lasso_kkt_residual",
    "loo_residuals",
    "min_fit_rows",
]

# LASSO path constants: 50-point log grid down to 1e-4 of the smallest
# all-zero lambda, and a cross-validated penalty uses 5 folds, so needs at
# least 5 rows.
LASSO_CV_FOLDS = 5
LASSO_GRID_SIZE = 50
LASSO_GRID_RATIO = 1e-4
# A homotopy path stops after LASSO_MAX_KNOTS knots, and treats an active
# Gram block as singular when its smallest eigenvalue is at most
# _SINGULAR_EIGENVALUE (its diagonal is 1).
LASSO_MAX_KNOTS = 1_000
_SINGULAR_EIGENVALUE = 1e-10
# Held-out LASSO problems that cancel by this ratio are rebuilt (_held_out_problems).
_DOWNDATE_RATIO = 1e4
KERNEL_MIN_BANDWIDTH = 1e-6
# Most rows of a block of the distance triangle (``_triangle_blocks``); from
# n = 683 on a block takes fewer, to keep within _SMOOTH_ENTRIES. A block
# computes a rows x rows square of which it keeps the upper half, and each
# block costs a fixed number of numpy calls, so the best cap does not depend
# on n. Timed on 2 CPUs at n = 30 to 3 000, the median pass and the weight
# sweep both ran fastest, or within 5% of it, at 96 rows: 32 rows took
# 20-60% longer at n = 75 to 400, and one block of all n rows 10-40% longer
# at n = 250 and 400.
_TRIANGLE_ROWS = 96
# Entries of kernel weights or distances a block holds, 512 KB of float64,
# so that no n x n matrix is held and the two block buffers of
# ``_sq_dists`` stay in a 2 MB L2 cache up to n = 16 384.
# ``_row_blocks`` turns it into rows of forecasts, candidates or synthetic
# controls, a multiple of 4 and at least 4: the BLAS matrix-vector kernel
# takes rows in groups of four, and with 254 or 258 rows per block some
# rows of a blocked product differ in the last bit from the whole product.
_SMOOTH_ENTRIES = 2**16
# A leave-one-out row whose weights on the other rows sum below this is
# isolated. From 2^-960 on, every weight that reaches the last bit of the
# sum, 2^-53 of it, is a normal float (2^-1013 > 2^-1022), so the sums keep
# full precision; below it the weights have underflowed, all or in part,
# and the row takes them shifted by its nearest neighbour (``loo_residuals``).
_ISOLATED_SUM = 2.0**-960


def min_fit_rows(kind) -> int:
    """Fewest rows an engine's default fit runs on (LASSO cross-validates)."""
    return LASSO_CV_FOLDS if _choice(Regressor, kind) is Regressor.LASSO else 2


@dataclass(frozen=True)
class FittedModel:
    """Frozen result of one regression fit.

    ``coefficients``/``intercept`` describe linear engines; the kernel
    engine instead retains its standardized training tails ``train_z``,
    column-major so that ``_sq_dists`` reads each column contiguously
    (``fit_kernel``), heads, the standardization parameters, and the
    bandwidth. LASSO fits also carry whether the fit ``converged``: False
    when the homotopy path of the final fit or, for a cross-validated
    penalty, of any fold stopped at LASSO_MAX_KNOTS.
    """

    kind: Regressor
    intercept: float = 0.0
    coefficients: np.ndarray | None = None
    lam: float | None = None
    bandwidth: float | None = None
    train_z: np.ndarray | None = None
    train_y: np.ndarray | None = None
    centers: np.ndarray | None = None
    scales: np.ndarray | None = None
    converged: bool | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", _choice(Regressor, self.kind))

    @property
    def p(self) -> int:
        if self.coefficients is not None:
            return self.coefficients.shape[0]
        return self.train_z.shape[1]


# ---------------------------------------------------------------------------
# Ordinary least squares
# ---------------------------------------------------------------------------

def fit_ols(d: Dataset) -> FittedModel:
    """Least-squares fit with intercept.

    Singular designs (including p >= n) resolve to the minimum-norm
    solution, so downstream interval constructors never abort on small
    relevance-selected subsets.
    """
    a = np.column_stack([np.ones(d.n), d.x])
    coef, *_ = np.linalg.lstsq(a, d.y, rcond=None)
    return FittedModel(
        kind=Regressor.OLS, intercept=float(coef[0]), coefficients=_readonly(coef[1:])
    )


# ---------------------------------------------------------------------------
# LASSO by the exact homotopy path
# ---------------------------------------------------------------------------

def _homotopy_path(gram, xty, lams, active):
    """Exact LASSO solutions of (1/2) b'Gb - c'b + lam*||b||_1, with ``gram``
    G = xs'xs/n and ``xty`` c = xs'yc/n of the standardized problem, at the
    decreasing penalties ``lams``; only ``active`` coordinates may be
    nonzero. Computed by the homotopy (Osborne, Presnell & Turlach 2000;
    Efron et al. 2004, LARS with the lasso modification).

    The solution is piecewise linear in lam. It is 0 from lam_max, the
    largest |c_j| of an active column, and between two knots, with active
    set E and signs s, it is b_E(lam) = u - lam v for u = G_EE^-1 c_E and
    v = G_EE^-1 s. The next knot is the largest lam below the current one
    at which an inactive gradient c_j - G_jE b_E(lam) reaches +-lam (a
    join) or a coefficient of E reaches 0 (a drop); every grid penalty
    between two knots is read off the piece. A drop goes first when it
    ties with a join, and the lowest column goes first among ties of one
    kind. An event counts only where its column moves the right way as lam
    falls, so the root that a column which moved at a knot has at that
    knot, where rounding puts it on either side, never undoes the move;
    a root that rounding puts above the current knot, as it may for a
    column tied with that knot's event, is taken at the knot.

    A join that makes G_EE singular (a duplicated or collinear column, or
    an active set past the rank of the rows) is undone: the column is in
    the span of E, so its gradient is a fixed combination of E's gradients
    and stays at +-lam while E's piece runs on. It is held out of the
    joins until the next drop, and stays at zero with exact KKT. Fitted
    values are unique even where coefficients are not (Tibshirani 2013,
    EJS 7, Lemma 1). After LASSO_MAX_KNOTS knots the remaining penalties
    keep the last knot's solution and ``converged`` is False.

    Returns (path, knots, converged): one coefficient row per penalty, the
    number of knots passed, and whether the path was finished.
    """
    lams = np.asarray(lams, dtype=np.float64)
    p = xty.shape[0]
    path = np.zeros((lams.size, p))
    score = np.where(active, np.abs(xty), 0.0)
    lam = float(score.max(initial=0.0))
    if lam <= 0.0:
        return path, 0, True
    in_e = np.zeros(p, dtype=bool)
    in_e[np.argmax(score)] = True
    held = np.zeros(p, dtype=bool)
    cs = np.column_stack([xty, np.sign(xty)])  # c and, on E, the signs s
    beta = np.zeros(p)
    g = int(np.count_nonzero(lams >= lam))  # these rows stay 0
    knots, joined = 0, None
    while g < lams.size:
        if knots == LASSO_MAX_KNOTS:
            path[g:] = beta
            return path, knots, False
        e = np.flatnonzero(in_e)
        block = gram[e[:, None], e]
        # a drop leaves a principal block of a nonsingular block, and its
        # eigenvalues interlace, so only a join can make the block singular
        if joined is not None and np.linalg.eigvalsh(block)[0] <= _SINGULAR_EIGENVALUE:
            in_e[joined], held[joined], joined = False, True, None
            continue
        rhs = cs[e]
        uv = np.linalg.solve(block, rhs)
        u, v = uv.T
        gu, gv = (gram[:, e] @ uv).T
        a0 = xty - gu
        free = active & ~in_e & ~held
        # b_j(t) = u_j - t v_j leaves its sign s_j as t falls only if s_j v_j < 0
        t_drop = np.divide(u, v, out=np.zeros(e.size), where=rhs[:, 1] * v < 0.0)
        # with a_j(t) = a0_j + t gv_j, s a_j(t) - t rises as t falls only if
        # s gv_j < 1, and then reaches 0 at t = s a0_j / (1 - s gv_j)
        t_up = np.divide(a0, 1.0 - gv, out=np.zeros(p), where=free & (gv < 1.0))
        t_down = np.divide(-a0, 1.0 + gv, out=np.zeros(p), where=free & (gv > -1.0))
        # a root above lam means the column already crossed: by rounding,
        # when it tied with the event at the current knot
        t_drop = np.minimum(t_drop, lam)
        t_join = np.minimum(np.maximum(t_up, t_down), lam)
        drop, join = int(np.argmax(t_drop)), int(np.argmax(t_join))
        t = max(t_drop[drop], t_join[join], 0.0)
        k = g + int(np.count_nonzero(lams[g:] >= t))
        path[g:k, e] = u - lams[g:k, None] * v
        g = k
        if t <= 0.0:
            break
        beta[:] = 0.0
        beta[e] = u - t * v
        if t_join[join] > t_drop[drop]:
            joined = join
            in_e[join] = True
            cs[join, 1] = 1.0 if t_up[join] >= t_down[join] else -1.0
        else:
            in_e[e[drop]] = False
            beta[e[drop]] = 0.0
            held[:] = False
        lam = t
        knots += 1
    return path, knots, True


def _lasso_batch(gram, xty, lam, active):
    """Exact LASSO solutions of B problems at the one penalty ``lam``.

    ``xty`` and ``active`` are (B, p); ``gram`` is (B, p, p), or one shared
    (p, p) matrix read as a (B, p, p) view. While problems are pending, the
    first is solved by ``_homotopy_path``; its support E and signs s give
    every other pending problem the trial b_E = G_EE^-1 (c_E - lam s), found
    by one batched solve. The trial is the problem's solution when every
    column of E is active for it, b_E has the signs s, and every other
    active gradient is at most lam (1 + 1e-12) in size: the KKT conditions.
    The problems it fails stay pending. The order is fixed by the input,
    so the result is too.

    Returns the (B, p) coefficients.
    """
    n_problems, p = xty.shape
    gram = np.broadcast_to(gram, (n_problems, p, p))
    active = np.broadcast_to(active, (n_problems, p))
    beta = np.zeros((n_problems, p))
    pending = np.arange(n_problems)
    while pending.size:
        first, rest = pending[0], pending[1:]
        beta[first] = _homotopy_path(gram[first], xty[first], [lam], active[first])[0][0]
        in_e = beta[first] != 0.0
        s = np.sign(beta[first, in_e])
        rest = rest[active[rest][:, in_e].all(axis=1)]
        rows = gram[rest[:, None], in_e]  # (B, |E|, p): E's rows, by symmetry its columns
        rhs = xty[rest][:, in_e] - lam * s
        try:
            b_e = np.linalg.solve(rows[:, :, in_e], rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:  # an exactly singular block: no trial passes
            b_e = np.full_like(rhs, np.nan)
        grad = xty[rest] - np.einsum("bk,bkj->bj", b_e, rows)
        off_e = np.where(active[rest] & ~in_e, np.abs(grad), 0.0)
        kkt = np.all(np.sign(b_e) == s, axis=1) & np.all(off_e <= lam * (1.0 + 1e-12), axis=1)
        beta[rest[kkt][:, None], in_e] = b_e[kkt]
        pending = np.setdiff1d(pending[1:], rest[kkt], assume_unique=True)
    return beta


def _gram_problem(x, y):
    """Standardize (x, y) and reduce it to the p x p data the solver needs:
    (gram, xty, active, centers, scales, ybar), with gram = xs'xs/n and
    xty = xs'(y - ybar)/n for the standardized tails xs, ``active`` marking
    non-constant columns and ``ybar`` the mean of each head. Columns are
    scaled by their root mean square deviation: the 1/n makes every active
    column of xs satisfy (1/n)||col||^2 = 1, so the Gram matrix has a unit
    diagonal on the active columns. ``y`` is one head vector, or an (n, G)
    matrix of G heads that share the tails: xty is then (p, G)."""
    n = x.shape[0]
    xs, m, s, active = _standardize_columns(x, ddof=0)
    ybar = y.mean(axis=0)
    return xs.T @ xs / n, xs.T @ (y - ybar) / n, active, m, s, ybar


def _lambda_grid(xty) -> np.ndarray:
    lam_max = float(np.max(np.abs(xty)))
    if lam_max <= 0.0:
        lam_max = 1e-3  # constant response: any penalty zeroes everything
    return np.geomspace(lam_max, lam_max * LASSO_GRID_RATIO, LASSO_GRID_SIZE)


def _held_out_problems(x, y, order, n_sets):
    """``_gram_problem``'s six outputs for the rows kept when each set of
    ``np.array_split(order, n_sets)``, a partition of the rows, is held out,
    stacked on a leading axis. Each downdates the full data's centred
    cross-products S: a set of k rows whose mean lies d from the full mean,
    with centred cross-products W (0 for one row), leaves
    S - (k n/(n-k)) d d' - W and moves the mean by -k d/(n-k). Each set's
    mean, min and max are reductions over its rows, exact for a one-row
    set, and the kept rows' min and max are the other sets' extremes. A
    set holding all but 1/_DOWNDATE_RATIO of a column's centred sum of
    squares cancels the downdate, and is rebuilt from its kept rows. No
    loop runs over rows.
    """
    n = x.shape[0]
    bounds = np.arange(n_sets + 1) * (n // n_sets) + np.minimum(np.arange(n_sets + 1), n % n_sets)
    starts, k = bounds[:-1], np.diff(bounds).astype(np.float64)  # set g: bounds[g]:bounds[g + 1]
    kept = n - k[:, None]
    x_sets, y_sets = x.take(order, axis=0), y.take(order)
    set_mu = np.add.reduceat(x_sets, starts) / k[:, None]
    set_ybar = np.add.reduceat(y_sets, starts) / k
    lo, hi = np.minimum.reduceat(x_sets, starts), np.maximum.reduceat(x_sets, starts)
    mu, ybar = x.mean(axis=0), y.mean()
    dx, d, dy = x - mu, set_mu - mu, set_ybar - ybar
    sxx = dx.T @ dx
    wd = k[:, None] * n / kept * d
    cxx = sxx - wd[:, :, None] * d[:, None, :]
    cxy = dx.T @ (y - ybar) - wd * dy[:, None]
    for g in np.flatnonzero(k > 1):
        dev = x_sets[bounds[g] : bounds[g + 1]] - set_mu[g]
        cxx[g] -= dev.T @ dev
        cxy[g] -= dev.T @ (y_sets[bounds[g] : bounds[g + 1]] - set_ybar[g])
    ss = np.diagonal(cxx, axis1=1, axis2=2)
    rebuild = np.any(ss * _DOWNDATE_RATIO < np.diag(sxx), axis=1)
    lo, hi = np.ascontiguousarray(lo.T), np.ascontiguousarray(hi.T)  # inner loops over sets
    lo2, hi2 = np.partition(lo, 1, axis=1), np.partition(hi, -2, axis=1)
    lo = np.where(lo == lo2[:, :1], lo2[:, 1:2], lo2[:, :1])  # equal on a tie
    hi = np.where(hi == hi2[:, -1:], hi2[:, -2:-1], hi2[:, -1:])
    active = _active_columns(lo, hi, kept.T).T & ~rebuild[:, None]
    s = np.sqrt(np.where(active, ss / kept, np.inf))  # zeroes inactive entries
    cxx /= kept[:, :, None]
    cxx /= s[:, :, None] * s[:, None, :]
    m = mu - k[:, None] * d / kept
    problems = cxx, cxy / kept / s, active, m, np.where(active, s, 1.0), ybar - k * dy / kept[:, 0]
    for g in np.flatnonzero(rebuild):
        held = order[bounds[g] : bounds[g + 1]]
        for out, value in zip(problems, _gram_problem(np.delete(x, held, 0), np.delete(y, held))):
            out[g] = value
    return problems


def _cv_lambda(x, y, xty, seed: int) -> tuple[float, bool]:
    """Pick the penalty by LASSO_CV_FOLDS-fold cross-validation on mean squared error.

    Each fold's problem (``_held_out_problems``) reads the grid of ``xty``,
    the full data's cross-products, off its exact homotopy path; ties go to
    the largest penalty. Returns (penalty, whether every path was finished).
    """
    grid = _lambda_grid(xty)
    order = np.random.default_rng(seed).permutation(x.shape[0])
    held_out = _held_out_problems(x, y, order, LASSO_CV_FOLDS)
    sse = np.zeros(grid.size)
    converged = True
    for held, gram, c, active, m, s, ybar in zip(np.array_split(order, LASSO_CV_FOLDS), *held_out):
        path, _, fold_converged = _homotopy_path(gram, c, grid, active)
        converged = converged and fold_converged
        coefs = path / s
        pred = (ybar - coefs @ m)[:, None] + coefs @ x[held].T
        sse += ((y[held] - pred) ** 2).sum(axis=1)
    best = float(grid[np.argmin(sse)])  # argmin takes the first = largest lam
    return best, converged


def fit_lasso(d: Dataset, *, lam: float | None = None, seed: int = 0) -> FittedModel:
    """L1-penalized least squares, objective (1/2n)||y - b0 - X b||^2 + lam*||b||_1.

    The problem is standardized once (``_gram_problem``) and the exact
    homotopy path runs on it; reported coefficients are on the original
    scale. When ``lam`` is None it is chosen by LASSO_CV_FOLDS-fold
    cross-validation, with fold assignment drawn from ``seed`` and the
    grid read off the same problem, so a cross-validated fit and a fit at
    its penalty end on the same solve. ``converged`` covers the final fit
    and the cross-validation paths.
    """
    seed = check_knob("seed", seed)
    if lam is not None:
        lam = float(lam)
        if not lam >= 0.0:  # NaN fails too
            raise DataError(f"penalty must be >= 0, got {lam}")
    elif d.n < LASSO_CV_FOLDS:
        raise DataError(f"LASSO cross-validation needs n >= {LASSO_CV_FOLDS}, got n={d.n}")
    gram, xty, active, m, s, ybar = _gram_problem(d.x, d.y)
    cv_converged = True
    if lam is None:
        lam, cv_converged = _cv_lambda(d.x, d.y, xty, seed)
    path, _, converged = _homotopy_path(gram, xty, [lam], active)
    coef = path[0] / s
    return FittedModel(
        kind=Regressor.LASSO,
        intercept=float(ybar - coef @ m),
        coefficients=_readonly(coef),
        lam=lam,
        converged=converged and cv_converged,
    )


def lasso_kkt_residual(d: Dataset, m: FittedModel) -> float:
    """Largest violation of the LASSO stationarity conditions at ``m``.

    Measured on the internal (rescaled) problem the solver optimizes:
    active coordinates need gradient = lam * sign, inactive ones need
    |gradient| <= lam. Zero means exact optimality.
    """
    xs, centers, scales, active_cols = _standardize_columns(d.x, ddof=0)
    beta = m.coefficients * scales
    r = (d.y - d.y.mean()) - xs @ beta
    grad = xs.T @ r / d.n
    gap = np.where(beta != 0.0, np.abs(grad - m.lam * np.sign(beta)), np.abs(grad) - m.lam)
    return float(np.max(gap[active_cols], initial=0.0))


# ---------------------------------------------------------------------------
# Kernel smoothing (Nadaraya-Watson, Gaussian kernel)
# ---------------------------------------------------------------------------

def _median_sample_size(pairs: int) -> int:
    """Pairs sampled to bracket the median of ``pairs`` distances: about
    pairs^(2/3), so the bracket keeps about 6 pairs^(2/3) of them."""
    return min(pairs, math.ceil(pairs ** (2.0 / 3.0)))


def _median_bracket(z: np.ndarray, pairs: int) -> tuple[float, float]:
    """Squared distances lo <= hi that likely bracket the median of the
    ``pairs`` upper-triangle distances of ``z``: the order statistics at
    m/2 -+ 3 sqrt(m) of m pairs i != j drawn from a fixed-seed generator.
    Each is summed column by column like ``_sq_dists``, so it is the same
    float as that pair's entry in the triangle.
    """
    n = z.shape[0]
    m = _median_sample_size(pairs)
    rng = np.random.default_rng(0)
    i = rng.integers(0, n, size=m)
    j = rng.integers(0, n - 1, size=m)
    j += j >= i
    d2 = np.square(z[i, 0] - z[j, 0])
    for c in range(1, z.shape[1]):
        d2 += np.square(z[i, c] - z[j, c])
    spread = 3.0 * math.sqrt(m)
    ranks = max(int(m / 2 - spread), 0), min(math.ceil(m / 2 + spread), m - 1)
    d2.partition(ranks)
    return float(d2[ranks[0]]), float(d2[ranks[1]])


def _triangle_blocks(z: np.ndarray):
    """Yield ``(start, block)`` over the strict upper triangle of the squared
    distances among the rows of ``z``: ``block[r, c]`` is the distance from
    row start + r to row start + 1 + c, the float ``_sq_dists`` gives that
    pair whatever the block, and the entries below the diagonal (c < r) are
    +inf, which no pair of the triangle is.

    A block holds min(_TRIANGLE_ROWS, _SMOOTH_ENTRIES // n) rows, at least
    one, against the rows after its first, so it holds at most
    _SMOOTH_ENTRIES distances from n = _SMOOTH_ENTRIES / _TRIANGLE_ROWS on.
    Every block is formed in one pair of flat buffers allocated once, of
    the first and widest block's size, and ``_sq_dists`` fills a contiguous
    rows x cols view of each, so a sweep holds two block-sized arrays, never
    a block and the pair that forms the next one; ``block`` is overwritten
    by the next block. A pair allocated per block had its pages returned to
    the system and faulted in again by glibc's malloc.
    """
    n = z.shape[0]
    step = max(1, min(_TRIANGLE_ROWS, _SMOOTH_ENTRIES // n, n - 1))
    lower = np.tri(step, step, -1, dtype=bool)
    buf = np.empty((2, step * (n - 1)))  # the first block is the widest
    for start in range(0, n - 1, step):
        rows, cols = min(step, n - 1 - start), n - 1 - start
        out, tmp = (flat[: rows * cols].reshape(rows, cols) for flat in buf)
        block = _sq_dists(z[start : start + rows], z[start + 1 :], out=out, tmp=tmp)
        block[:, :rows][lower[:rows, :rows]] = np.inf
        yield start, block


def _triangle_between(z: np.ndarray, lo: float, hi: float):
    """One pass over the upper-triangle squared distances of ``z``
    (``_triangle_blocks``).

    Returns (below, at_lo, inside, at_hi): how many distances are below
    ``lo`` and equal to it, those strictly between ``lo`` and ``hi``, and how
    many equal ``hi`` (0 when ``hi`` is ``lo``). Ties at the ends are counted,
    not kept, so a design whose distances mostly tie keeps few of them. A
    block's +inf entries are never below ``lo``, and within the bracket only
    when ``hi`` is +inf, where they are counted at ``hi``, after every
    distance.

    Each block is read three times, into two bool buffers allocated once:
    d < lo, counted for ``below``; d <= hi; and their difference,
    lo <= d <= hi, whose distances are gathered. The end ties are then
    counted among the gathered ones, which are few, in the same two
    buffers, and dropped when there are any: small tie masks allocated
    for every block left the heap of a process that fits 3 000-row
    kernels about 1 MB larger.

    The kept distances go into one buffer with room for 8 m of them, m the
    sample size (the bracket holds about 6 m), grown only when a block's
    gathered ones do not fit, so that kept distances of another length for
    each block do not fragment the heap of a process that fits many
    kernels. ``np.take`` in clip mode gathers a block's distances straight
    into it; in raise mode, as ``np.compress`` takes them, it first copies
    the slice it writes.
    """
    n = z.shape[0]
    below, at_lo, at_hi, size = 0, 0, 0, 0
    inside = np.empty(8 * _median_sample_size(n * (n - 1) // 2))
    flags = None
    for _, block in _triangle_blocks(z):
        if flags is None:  # the first block is the widest
            flags = np.empty((2, block.size), dtype=bool)
        lt, le = (flat[: block.size].reshape(block.shape) for flat in flags)
        np.less(block, lo, out=lt)
        below += np.count_nonzero(lt)
        np.less_equal(block, hi, out=le)
        np.greater(le, lt, out=le)
        kept = np.flatnonzero(le)
        if size + kept.size > inside.size:
            inside = np.concatenate([inside[:size], np.empty(size + kept.size)])
        gathered = inside[size : size + kept.size]
        np.take(block, kept, out=gathered, mode="clip")
        ends, at_end = (flat[: kept.size] for flat in flags)
        at_lo += np.count_nonzero(np.equal(gathered, lo, out=ends))
        if hi > lo:
            at_hi += np.count_nonzero(np.equal(gathered, hi, out=at_end))
            ends |= at_end
        count = kept.size - np.count_nonzero(ends)
        if count < kept.size:
            inside[size : size + count] = gathered[~ends]
        size += count
    return below, at_lo, inside[:size], at_hi


def _median_bandwidth(z: np.ndarray) -> float:
    """The default bandwidth: the median pairwise distance among the rows of
    ``z``, floored at KERNEL_MIN_BANDWIDTH.

    Exact, by Floyd & Rivest's selection (1975, CACM 18(3)). A sample of
    pairs brackets the median (``_median_bracket``); one pass over the
    triangle counts the distances below the bracket and at its ends and
    keeps those inside it (``_triangle_between``); a partition of the kept
    ones selects the middle rank. When a middle rank falls outside the
    bracket, the side that missed opens to -+inf and the triangle is
    streamed again. The sample decides only what is kept, never the
    result, and three passes always suffice. An even count averages the
    two middle values as ``np.median`` does, so the result equals the
    median of the upper triangle exactly. No vector of the n(n-1)/2
    distances is formed: one block of the triangle and the kept distances,
    about 6 (n(n-1)/2)^(2/3) of them, are held.
    """
    n = z.shape[0]
    pairs = n * (n - 1) // 2
    mid = pairs // 2
    first = mid if pairs % 2 else mid - 1  # lower middle rank, 0-based
    lo, hi = _median_bracket(z, pairs)
    while True:
        below, at_lo, inside, at_hi = _triangle_between(z, lo, hi)
        missed_low = first < below
        missed_high = mid >= below + at_lo + inside.size + at_hi
        if not (missed_low or missed_high):
            break
        lo = -np.inf if missed_low else lo
        hi = np.inf if missed_high else hi
    # from rank `below` on, the sorted distances run: at_lo copies of lo,
    # the inside ones, at_hi copies of hi
    offsets = [rank - below - at_lo for rank in (first, mid)]
    kth = [k for k in offsets if 0 <= k < inside.size]
    if kth:
        inside.partition(kth)
    low, high = (lo if k < 0 else hi if k >= inside.size else inside[k] for k in offsets)
    median = (low + high) / 2.0 if pairs % 2 == 0 else high
    return max(float(np.sqrt(median)), KERNEL_MIN_BANDWIDTH)


def _shifted_gaussian(d2: np.ndarray, bandwidth: float) -> np.ndarray:
    """Gaussian weights of squared distances ``d2``, each row shifted by its
    minimum: the common factor cancels once the weights are normalized, so
    they are exact but never all underflow.

    Works in ``d2``'s buffer, which it overwrites and returns as the weights.
    Dividing by -2h^2 equals negating and then dividing by 2h^2 bit for bit:
    IEEE division is symmetric in sign.
    """
    d2 -= d2.min(axis=1, keepdims=True)
    np.divide(d2, -2.0 * bandwidth**2, out=d2)
    return np.exp(d2, out=d2)


def _row_blocks(n: int, width: int) -> list[slice]:
    """Consecutive slices that cover ``range(n)``, for rows of ``width``
    entries: each block has the most rows that hold at most _SMOOTH_ENTRIES
    entries, rounded down to a multiple of 4 and at least 4.

    A last block of one row joins the block before it: numpy computes a
    one-row matrix-vector product as a dot product, whose order of
    additions differs from that of a row of a larger product. So every row
    of a blocked product equals the same row of the whole product.
    """
    starts = list(range(0, n, max(4, _SMOOTH_ENTRIES // width // 4 * 4)))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n])]


def _weight_sums(z: np.ndarray, bandwidth: float, heads: np.ndarray) -> np.ndarray:
    """Sum over j != i of w_ij heads[j] for each row i of ``z``, one row of
    the result per row of ``z`` and one column per column of ``heads``.

    w_ij = exp(d_ij / (-2h^2)) is the unshifted Gaussian weight of the
    squared distance d_ij, and w_ij = w_ji: one sweep of the distance
    triangle (``_triangle_blocks``) forms each pair's weight once and adds
    it to both rows' sums with two products a block, ``k @ heads`` for the
    block's rows and ``k.T @ heads`` for the rows after them. No n x n
    matrix is held and no weight is formed twice. A sum accumulates its
    block products in another order than the whole product ``w @ heads``,
    so it equals that product up to rounding.
    """
    sums = np.zeros(heads.shape)
    for start, block in _triangle_blocks(z):
        rows = slice(start, start + block.shape[0])
        k = np.exp(np.divide(block, -2.0 * bandwidth**2, out=block), out=block)
        sums[rows] += k @ heads[start + 1 :]
        sums[start + 1 :] += k.T @ heads[rows]
    return sums


def fit_kernel(d: Dataset) -> FittedModel:
    """Gaussian-kernel local averaging on standardized features.

    The bandwidth is the median pairwise distance among the standardized
    training tails (floored at 1e-6), a dimension-robust parameter-free
    heuristic. It is selected exactly without holding the n(n-1)/2
    distances (``_median_bandwidth``), so the fit's memory grows with
    n^(4/3), not n^2.

    ``train_z`` is stored column-major, read-only, in one copy: every
    distance sweep (the triangle, ``kernel_weights``) reads it through
    ``_sq_dists``, which subtracts one column of it at a time, and a
    column-major column is contiguous where a row-major one is read at a
    stride of p entries. Each entry is the same float either way.
    """
    if d.n < 2:
        raise DataError(f"kernel fit needs n >= 2, got n={d.n}")
    z, centers, scales, _ = _standardize_columns(d.x)
    z = np.asfortranarray(z)
    z.flags.writeable = False
    return FittedModel(
        kind=Regressor.KERNEL,
        bandwidth=_median_bandwidth(z),
        train_z=z,
        train_y=d.y,
        centers=_readonly(centers),
        scales=_readonly(scales),
    )


def kernel_weights(m: FittedModel, x_new: np.ndarray) -> np.ndarray:
    """Normalized kernel weights of each training row for each query row,
    shifted by ``_shifted_gaussian`` so that they never all underflow."""
    return _kernel_weights(m, _tail_rows(x_new, m.p, "model expects"))


def _kernel_weights(m: FittedModel, rows: np.ndarray) -> np.ndarray:
    """``kernel_weights`` at query rows already read by ``_tail_rows``."""
    z0 = transform_features(rows, m.centers, m.scales)
    w = _shifted_gaussian(_sq_dists(z0, m.train_z), m.bandwidth)
    w /= w.sum(axis=1, keepdims=True)
    return w


def _forecast(m: FittedModel, rows: np.ndarray) -> np.ndarray:
    """``predict_many`` at query rows already read by ``_tail_rows``, or
    rows of a ``Dataset``, so that a call chain checks each tail once.

    The kernel forms the weights of one ``_row_blocks`` block of query rows
    against its n training rows at a time, so no (rows x n) weight matrix
    is held for a long ``rows``.
    """
    if m.kind is Regressor.KERNEL:
        out = np.empty(rows.shape[0])
        for block in _row_blocks(rows.shape[0], m.train_z.shape[0]):
            out[block] = _kernel_weights(m, rows[block]) @ m.train_y
        return out
    return m.intercept + rows @ m.coefficients


def predict_many(m: FittedModel, x_new) -> np.ndarray:
    """Forecast at each row of ``x_new`` (``_forecast``)."""
    return _forecast(m, _tail_rows(x_new, m.p, "model expects"))


def predict(m: FittedModel, x0) -> float:
    """Forecast at a single tail."""
    return float(_forecast(m, _tail_rows(x0, m.p, "model expects", one=True))[0])


def fit(d: Dataset, kind, seed: int = 0) -> FittedModel:
    """Dispatch to the chosen engine at its default hyperparameters.

    LASSO picks its penalty by cross-validation with folds drawn from
    ``seed``; the kernel uses the median-heuristic bandwidth.
    """
    kind = _choice(Regressor, kind)
    if kind is Regressor.OLS:
        return fit_ols(d)
    if kind is Regressor.LASSO:
        return fit_lasso(d, seed=seed)
    return fit_kernel(d)


def loo_residuals(x, y, model: FittedModel) -> np.ndarray:
    """Signed leave-one-out residuals y_i - f_{-i}(x_i) of ``model``'s engine.

    ``model`` is the engine's fit on all of (x, y). OLS uses the exact
    identity e_i / (1 - h_ii) at any rank, e being ``model``'s residuals:
    leaving out a row with h_ii < 1 keeps the rank, so every least-squares
    fit of the kept rows (``fit_ols``'s minimum-norm one too) forecasts it
    alike; only a row with h_ii >= 1 - 1e-8 is refit with ``fit_ols``. LASSO solves every
    problem, built by the downdate that builds the cross-validation folds
    (``_held_out_problems``), exactly at the model's penalty, batched by
    sign pattern. The kernel keeps the model's standardization and
    bandwidth and drops row i's own weight: its forecast is
    sum_j w_ij y_j / sum_j w_ij over j != i, both sums read off one sweep
    of the distance triangle (``_weight_sums``), so each pair's weight is
    formed once and no n x n matrix is held. The weights are unshifted,
    and a row whose weights sum below _ISOLATED_SUM, where they have
    underflowed, is isolated: it alone forms its n - 1 weights again,
    shifted by its nearest neighbour (``_shifted_gaussian``), which are
    exact and never all underflow.
    """
    if model.kind is Regressor.LASSO:
        gram, xty, active, m, s, ybar = _held_out_problems(x, y, np.arange(len(y)), len(y))
        coef = _lasso_batch(gram, xty, model.lam, active) / s
        return y - (ybar - np.einsum("ij,ij->i", coef, m) + np.einsum("ij,ij->i", x, coef))
    if model.kind is Regressor.KERNEL:
        z, h = model.train_z, model.bandwidth
        total, head = _weight_sums(z, h, np.column_stack([np.ones(len(y)), y])).T
        isolated = total < _ISOLATED_SUM
        out = y - head / np.where(isolated, 1.0, total)
        for i in np.flatnonzero(isolated):
            d2 = _sq_dists(z[i : i + 1], z)
            d2[0, i] = np.inf
            w = _shifted_gaussian(d2, h)[0]
            out[i] = y[i] - (w @ y) / w.sum()
        return out
    a = np.column_stack([np.ones(len(y)), x])
    coef = np.append(model.intercept, model.coefficients)
    # lstsq's own cutoff, so h is the projection its fitted values use
    h = np.einsum("ij,ji->i", a, np.linalg.pinv(a, rcond=max(a.shape) * np.finfo(float).eps))
    pinned = h >= 1.0 - 1e-8
    out = (y - a @ coef) / np.where(pinned, 1.0, 1.0 - h)
    for i in np.flatnonzero(pinned):
        out[i] = y[i] - predict(fit_ols(Dataset(np.delete(x, i, axis=0), np.delete(y, i))), x[i])
    return out


def candidate_residuals(x_aug, y, candidates, model: FittedModel):
    """Absolute residuals of full conformal's refits, one block of
    candidates at a time.

    Yields ``(cols, resid)`` for the slices ``cols`` of ``_row_blocks``
    over the candidates, for columns of n+1 entries: at most
    _SMOOTH_ENTRIES residuals a block, or 4 candidates when a column holds
    more than a quarter of that, so no (n+1) x G matrix is held. Column j
    of ``resid`` holds |y_aug - f(x_aug)| for ``model``'s engine refit on
    the n+1 rows of ``x_aug`` with heads y_aug = (y, candidates[cols][j]).

    Every engine reads its candidates off two heads: (y, 0), and the unit
    head e at the query row, so that y_aug = A + B * candidate with
    A = (y, 0) and B = e. OLS and the kernel are linear in the heads, so
    their refits' residuals are affine in the candidate too (Vovk,
    Gammerman & Shafer 2005, ch. 2), and A and B become the residuals of
    the two heads. OLS reads both off one call of ``fit_ols``'s ``lstsq``,
    whose minimum-norm solution is linear in the head at any rank. The
    kernel refits once with ``fit_kernel`` on the n+1 rows, head padded
    with 0; its weights depend only on the tails. One sweep of the
    triangle (``_weight_sums``) sums each row's weights times the heads 1,
    (y, 0) and e, so the e column holds the triangle's last column,
    w[:, n]; each row's own weight, exp(-0) = 1, adds its own heads. With
    S the first sum, A = y_pad - (w y_pad) / S and B = e - w[:, n] / S.
    The self weight keeps S >= 1, so no row needs the nearest-neighbour
    shift of ``loo_residuals``.

    LASSO is not linear in the heads, but its problem is affine in them:
    one ``_gram_problem`` of the two heads standardizes the shared tails
    once and gives the centred cross-products c0 and c1 and the means
    ybar0 and ebar of (y, 0) and e, so a candidate t's problem has
    xty = c0 + t c1 and mean ybar0 + t ebar. ``_lasso_batch`` solves every
    candidate exactly at ``model``'s penalty in one batch by sign pattern
    (cross-validating per candidate is pointless and slow), and each
    block subtracts the candidates' fitted values from A + B * t. Its
    sums run in another order than a literal ``fit_lasso`` refit's, so a
    column equals that refit's residuals up to rounding.

    Blocks this small also keep OpenBLAS 0.3.31 from splitting a product
    between its threads: the residuals had the same bits at 1 and 2
    threads on every design tried up to n = 10 000, p = 12.
    """
    n = len(y)
    y_pad, e = np.append(y, 0.0), (np.arange(n + 1) == n).astype(float)
    heads = np.column_stack([y_pad, e])
    lasso = model.kind is Regressor.LASSO
    if lasso:
        gram, c, active, m, s, ybar = _gram_problem(x_aug, heads)
        xty = c[:, 0] + np.multiply.outer(candidates, c[:, 1])
        coef = _lasso_batch(gram, xty, model.lam, active) / s
        intercepts = ybar[0] + candidates * ybar[1] - coef @ m
        a, b = y_pad, e
    elif model.kind is Regressor.KERNEL:
        refit = fit_kernel(Dataset(x_aug, y_pad))
        heads = np.column_stack([np.ones(n + 1), heads])
        # a row's own weight is exp(-0) = 1: its heads join the sums
        total, head, last = (_weight_sums(refit.train_z, refit.bandwidth, heads) + heads).T
        a, b = y_pad - head / total, e - last / total
    else:
        coef, *_ = np.linalg.lstsq(np.column_stack([np.ones(n + 1), x_aug]), heads, rcond=None)
        fitted = x_aug @ coef[1:]
        fitted += coef[0]
        a, b = np.subtract(heads, fitted, out=fitted).T
    for cols in _row_blocks(len(candidates), n + 1):
        resid = np.multiply.outer(b, candidates[cols])
        resid += a[:, None]
        if lasso:
            fitted = x_aug @ coef[cols].T
            fitted += intercepts[cols]
            resid -= fitted
        yield cols, np.abs(resid, out=resid)
