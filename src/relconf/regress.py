"""Regression engines: ordinary least squares, LASSO, and kernel smoothing.

Each engine exposes the same surface: a ``fit_*`` constructor returning an
immutable :class:`FittedModel`, plus :func:`predict` / :func:`predict_many`
for evaluation at new tails. ``fit`` dispatches on the engine enum, and
:func:`loo_residuals` (jackknife) and :func:`candidate_residuals` (full
conformal) on the fitted model's engine, so every engine's refit algebra
lives here and the interval constructors stay engine-agnostic.

LASSO runs covariance-update coordinate descent (Friedman, Hastie &
Tibshirani 2010) on the p x p Gram matrix of the standardized problem,
along a warm-started penalty path; cross-validation solves each fold's
whole path in one call. The fixed-penalty refits of interval constructors
(every leave-one-out problem, every full-conformal candidate head) are
solved together, as one vectorised batch.
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
    _readonly,
    _sq_dists,
    _standardize_columns,
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
    "lasso_candidate_residuals",
    "lasso_kkt_residual",
    "lasso_loo_residuals",
    "lasso_objective",
    "loo_residuals",
    "min_fit_rows",
    "soft_threshold",
]

# LASSO path constants: 50-point log grid down to 1e-4 of the smallest
# all-zero lambda, coordinate sweeps stop at max coefficient change 1e-8,
# and a cross-validated penalty uses 5 folds, so needs at least 5 rows.
LASSO_CV_FOLDS = 5
LASSO_GRID_SIZE = 50
LASSO_GRID_RATIO = 1e-4
LASSO_TOL = 1e-8
LASSO_MAX_SWEEPS = 10_000
# A leave-one-out LASSO problem is refit from its rows instead of
# downdated when its left-out row holds all but 1/_LOO_DOWNDATE_RATIO of a
# column's centred sum of squares.
_LOO_DOWNDATE_RATIO = 1e4
KERNEL_MIN_BANDWIDTH = 1e-6


def min_fit_rows(kind) -> int:
    """Fewest rows an engine's default fit runs on (LASSO cross-validates)."""
    return LASSO_CV_FOLDS if Regressor(kind) is Regressor.LASSO else 2


@dataclass(frozen=True)
class FittedModel:
    """Frozen result of one regression fit.

    ``coefficients``/``intercept`` describe linear engines; the kernel
    engine instead retains its standardized training tails, heads, the
    standardization parameters, and the bandwidth. LASSO fits also carry
    the coordinate-descent ``sweeps`` at their penalty and whether the fit
    ``converged``: False when the final solve or, for a cross-validated
    penalty, any fold's path hit LASSO_MAX_SWEEPS before LASSO_TOL.
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
    sweeps: int | None = None
    converged: bool | None = None

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
# LASSO via covariance-update coordinate descent
# ---------------------------------------------------------------------------

def soft_threshold(z: float, lam: float) -> float:
    """Proximal map of lam*|.|: shrink z toward zero by lam, clipping at 0."""
    if z > lam:
        return z - lam
    if z < -lam:
        return z + lam
    return 0.0


def lasso_objective(x, y, intercept: float, coef, lam: float) -> float:
    """(1/2n) sum of squared residuals plus lam times the l1 norm of coef."""
    r = y - intercept - x @ np.asarray(coef)
    return float((r @ r) / (2 * len(y)) + lam * np.abs(coef).sum())


def _cd_path(gram, xty, lams, active):
    """Cyclic coordinate descent along a penalty path, on the Gram matrix.

    Solves (1/2) b'Gb - c'b + lam*||b||_1 with ``gram`` G = xs'xs/n and
    ``xty`` c = xs'yc/n of the standardized problem, for each penalty in
    ``lams`` in turn, each warm-started from the previous solution. Only
    ``active`` coordinates move; every active column has G[j, j] = 1 up to
    rounding, so a coordinate update is one soft-threshold step. The
    gradient c - Gb is kept current as coordinates change, so a sweep costs
    O(p) per changed coordinate and never touches the n data rows. Per
    penalty, sweeps stop when no coefficient moves by LASSO_TOL or more, or
    after LASSO_MAX_SWEEPS.

    Returns (path, sweeps, converged): one coefficient row per penalty, the
    total number of sweeps, and whether every penalty met the tolerance.
    """
    rows = gram.tolist()
    grad = xty.tolist()
    beta = [0.0] * len(grad)
    cols = np.flatnonzero(active).tolist()
    path = []
    sweeps = 0
    converged = True
    for lam in lams:
        lam = float(lam)
        for sweep in range(1, LASSO_MAX_SWEEPS + 1):
            delta = 0.0
            for j in cols:
                old = beta[j]
                new = soft_threshold(grad[j] + old, lam)
                if new != old:
                    step = new - old
                    beta[j] = new
                    grad = [g - gj * step for g, gj in zip(grad, rows[j])]
                    change = abs(step)
                    if change > delta:
                        delta = change
            if delta < LASSO_TOL:
                break
        else:
            converged = False
        sweeps += sweep
        path.append(list(beta))
    return np.array(path), sweeps, converged


def _cd_batch(gram, xty, lam, active):
    """Cyclic coordinate descent on B problems at one penalty, all at once.

    ``xty`` and ``active`` are (B, p); ``gram`` is (B, p, p), or one (p, p)
    matrix that every problem shares. Each step moves coordinate j of every
    live problem together, with the soft threshold written as the exact
    z - clip(z, -lam, lam). A problem is frozen, and dropped from the
    working arrays, once its own sweep moves no coefficient by LASSO_TOL or
    it reaches LASSO_MAX_SWEEPS. Frozen problems take no step, so problem b
    gets the iterates, sweep count and convergence of
    ``_cd_path(gram[b], xty[b], [lam], active[b])`` bit for bit.

    Returns (beta, sweeps, converged) of shapes (B, p), (B,) and (B,).

    Penalty paths stay with ``_cd_path``: cross-validation solves at most
    LASSO_CV_FOLDS paths, and on so few problems numpy's per-call overhead
    costs more than the Python float loop it would replace.
    """
    lam = float(lam)
    grad = np.array(xty, dtype=np.float64)
    n_problems, p = grad.shape
    shared = gram.ndim == 2
    beta = np.zeros((n_problems, p))
    sweeps = np.full(n_problems, LASSO_MAX_SWEEPS)
    converged = np.zeros(n_problems, dtype=bool)
    live = np.arange(n_problems)
    b = beta.copy()
    act = np.broadcast_to(active, (n_problems, p))
    for sweep in range(1, LASSO_MAX_SWEEPS + 1):
        delta = np.zeros(live.size)
        for j in range(p):
            old = b[:, j]
            z = grad[:, j] + old
            new = z - np.clip(z, -lam, lam)
            move = act[:, j] & (new != old)
            if not move.any():
                continue
            step = new - old
            b[move, j] = new[move]
            row = gram[j] if shared else gram[:, j, :]
            np.subtract(grad, row * step[:, None], out=grad, where=move[:, None])
            np.maximum(delta, np.abs(step), out=delta, where=move)
        done = delta < LASSO_TOL
        if done.any():
            frozen = live[done]
            beta[frozen], sweeps[frozen], converged[frozen] = b[done], sweep, True
            keep = ~done
            live, b, grad, act = live[keep], b[keep], grad[keep], act[keep]
            if not shared:
                gram = gram[keep]
            if not live.size:
                break
    beta[live] = b
    return beta, sweeps, converged


def _gram_problem(x, y):
    """Standardize (x, y) and reduce it to the p x p data the solver needs.

    Returns (gram, xty, active, centers, scales, ybar): gram = xs'xs/n and
    xty = xs'(y - ybar)/n, with ``active`` marking non-constant columns.
    Columns are scaled by their root mean square deviation: the 1/n makes
    every active column of xs satisfy (1/n)||col||^2 = 1, which reduces
    each coordinate update to a pure soft-threshold step.
    """
    xs, m, s, active = _standardize_columns(x, ddof=0)
    n = x.shape[0]
    ybar = y.mean()
    gram = xs.T @ xs / n
    xty = xs.T @ (y - ybar) / n
    return gram, xty, active, m, s, ybar


def _lambda_grid(xty) -> np.ndarray:
    lam_max = float(np.max(np.abs(xty))) if xty.size else 0.0
    if lam_max <= 0.0:
        lam_max = 1e-3  # constant response: any penalty zeroes everything
    return np.geomspace(lam_max, lam_max * LASSO_GRID_RATIO, LASSO_GRID_SIZE)


def _lasso_solve(x, y, lam) -> tuple[float, np.ndarray, int, bool]:
    """One penalized fit: (intercept, coefficients, sweeps, converged).

    The intercept and coefficients are on the input scale.
    """
    gram, xty, active, m, s, ybar = _gram_problem(x, y)
    path, sweeps, converged = _cd_path(gram, xty, [lam], active)
    coef = path[0] / s
    return float(ybar - coef @ m), coef, sweeps, converged


def _cv_lambda(x, y, folds: int, seed: int) -> tuple[float, bool]:
    """Pick the penalty by K-fold cross-validation on mean squared error.

    The grid comes from the full data; each fold fits the whole path with
    warm starts. Ties resolve to the largest (most parsimonious) penalty.
    Returns (penalty, whether every fold's path converged).
    """
    n = x.shape[0]
    grid = _lambda_grid(_gram_problem(x, y)[1])
    rng = np.random.default_rng(seed)
    fold_ids = np.array_split(rng.permutation(n), folds)
    sse = np.zeros(grid.size)
    converged = True
    for held in fold_ids:
        mask = np.ones(n, dtype=bool)
        mask[held] = False
        gram, xty, active, m, s, ybar = _gram_problem(x[mask], y[mask])
        path, _, fold_converged = _cd_path(gram, xty, grid, active)
        converged = converged and fold_converged
        coefs = path / s
        pred = (ybar - coefs @ m)[:, None] + coefs @ x[held].T
        sse += ((y[held] - pred) ** 2).sum(axis=1)
    best = float(grid[np.argmin(sse)])  # argmin takes the first = largest lam
    return best, converged


def fit_lasso(
    d: Dataset, folds: int = LASSO_CV_FOLDS, lam: float | None = None, seed: int = 0
) -> FittedModel:
    """L1-penalized least squares, objective (1/2n)||y - b0 - X b||^2 + lam*||b||_1.

    Coordinate descent runs on internally rescaled features; reported
    coefficients are on the original scale. When ``lam`` is None it is
    chosen by ``folds``-fold cross-validation with fold assignment drawn
    from ``seed``. ``sweeps`` on the result counts the final fit at the
    chosen penalty; ``converged`` also covers the cross-validation paths.
    """
    cv_converged = True
    if lam is None:
        folds = int(folds)
        if not (2 <= folds <= d.n):
            raise DataError(f"need n >= folds >= 2, got n={d.n}, folds={folds}")
        lam, cv_converged = _cv_lambda(d.x, d.y, folds, seed)
    lam = float(lam)
    if lam < 0.0:
        raise DataError(f"penalty must be >= 0, got {lam}")
    intercept, coef, sweeps, converged = _lasso_solve(d.x, d.y, lam)
    return FittedModel(
        kind=Regressor.LASSO,
        intercept=intercept,
        coefficients=_readonly(coef),
        lam=lam,
        sweeps=sweeps,
        converged=converged and cv_converged,
    )


def lasso_loo_residuals(x, y, lam: float) -> np.ndarray:
    """Signed leave-one-out residuals y_i - f_{-i}(x_i) of LASSO at penalty ``lam``.

    Problem i is the standardized problem of the rows other than i. All n
    are built in O(n p^2) by downdating the full data's centred
    cross-products by row i, whose removal moves the mean to
    mu + (mu - x_i)/(n-1), and solved together by ``_cd_batch``. Column j
    is active without row i when its leave-one-out min and max pass
    ``core._active_columns`` for n - 1 rows.
    Downdating cancels when row i carries nearly all of a column's centred
    sum of squares, and the column's leave-one-out scale loses its digits;
    such a row is an outlier whose residual is an extrapolation, so it is
    refit from its n - 1 rows and predicted exactly as ``fit_lasso`` and
    ``predict`` would. A head outlier needs no such care: the cancelled
    cross-products err by rounding on the scale of its own residual.
    """
    n, p = x.shape
    mu, ybar = x.mean(axis=0), y.mean()
    dx, dy = x - mu, y - ybar
    sxx = dx.T @ dx
    w = n / (n - 1)
    cxx = sxx - w * dx[:, :, None] * dx[:, None, :]
    cxy = dx.T @ dy - w * dx * dy[:, None]
    ss_x = np.diagonal(cxx, axis1=1, axis2=2)
    refit = np.any(ss_x * _LOO_DOWNDATE_RATIO < np.diag(sxx), axis=1)
    order = np.argsort(x, axis=0)
    cols = np.arange(p)
    own = np.arange(n)[:, None]
    lo = np.where(own == order[0], x[order[1], cols], x[order[0], cols])
    hi = np.where(own == order[-1], x[order[-2], cols], x[order[-1], cols])
    active = _active_columns(lo, hi, n - 1) & ~refit[:, None]  # refit rows are solved below
    s = np.sqrt(np.where(active, ss_x / (n - 1), 1.0))
    gram = cxx / (n - 1) / (s[:, :, None] * s[:, None, :])
    xty = cxy / (n - 1) / s
    beta, _, _ = _cd_batch(gram, xty, lam, active)
    coef = beta / s
    loo_mu = mu + (mu - x) / (n - 1)
    loo_ybar = ybar + (ybar - y) / (n - 1)
    intercept = loo_ybar - np.einsum("ij,ij->i", coef, loo_mu)
    resid = y - (intercept + np.einsum("ij,ij->i", x, coef))
    for i in np.flatnonzero(refit):
        b0, b, _, _ = _lasso_solve(np.delete(x, i, axis=0), np.delete(y, i), lam)
        resid[i] = y[i] - (b0 + x[i : i + 1] @ b)[0]
    return resid


def lasso_candidate_residuals(x_aug, y, candidates, lam: float) -> np.ndarray:
    """Absolute residuals of the LASSO refits of full conformal, (n+1, G).

    Column g holds |y_aug - f(x_aug)| for the fit at penalty ``lam`` on the
    n+1 rows of ``x_aug`` with heads y_aug = (y, candidates[g]). The tails
    are shared, so their standardization and Gram matrix are formed once;
    each candidate's cross-products, intercept and residuals use the same
    expressions as ``_gram_problem`` and ``predict_many``, and all G
    problems are solved together by ``_cd_batch``, so every column equals
    that of a literal ``fit_lasso`` refit.
    """
    xs, m, s, active = _standardize_columns(x_aug, ddof=0)
    n1 = x_aug.shape[0]
    y_aug = [np.append(y, t) for t in candidates]
    ybar = [ya.mean() for ya in y_aug]
    xty = np.array([xs.T @ (ya - yb) / n1 for ya, yb in zip(y_aug, ybar)])
    beta, _, _ = _cd_batch(xs.T @ xs / n1, xty, lam, active)
    resid = []
    for ya, yb, b in zip(y_aug, ybar, beta):
        coef = b / s
        intercept = float(yb - coef @ m)
        resid.append(np.abs(ya - (intercept + x_aug @ coef)))
    return np.stack(resid, axis=1)


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
    worst = 0.0
    for j in range(xs.shape[1]):
        if not active_cols[j]:
            continue
        if beta[j] != 0.0:
            worst = max(worst, abs(grad[j] - m.lam * math.copysign(1.0, beta[j])))
        else:
            worst = max(worst, max(0.0, abs(grad[j]) - m.lam))
    return worst


# ---------------------------------------------------------------------------
# Kernel smoothing (Nadaraya-Watson, Gaussian kernel)
# ---------------------------------------------------------------------------

def _median_bandwidth(d2: np.ndarray) -> float:
    """The default bandwidth: the median pairwise distance, from the square
    matrix ``d2`` of squared ones, floored at KERNEL_MIN_BANDWIDTH."""
    iu = np.triu_indices(d2.shape[0], k=1)
    return max(float(np.sqrt(np.median(d2[iu]))), KERNEL_MIN_BANDWIDTH)


def _shifted_gaussian(d2: np.ndarray, bandwidth: float) -> np.ndarray:
    """Gaussian weights of squared distances ``d2``, each row shifted in
    place by its minimum: the common factor cancels once the weights are
    normalized, so they are exact but never all underflow."""
    d2 -= d2.min(axis=1, keepdims=True)
    return np.exp(-d2 / (2.0 * bandwidth**2))


def fit_kernel(d: Dataset, bandwidth: float | None = None) -> FittedModel:
    """Gaussian-kernel local averaging on standardized features.

    The default bandwidth is the median pairwise distance among the
    standardized training tails (floored at 1e-6), a dimension-robust
    parameter-free heuristic. Pass ``bandwidth`` to override.
    """
    if d.n < 2:
        raise DataError(f"kernel fit needs n >= 2, got n={d.n}")
    z, centers, scales, _ = _standardize_columns(d.x)
    if bandwidth is None:
        bandwidth = _median_bandwidth(_sq_dists(z, z))
    return FittedModel(
        kind=Regressor.KERNEL,
        bandwidth=max(float(bandwidth), KERNEL_MIN_BANDWIDTH),
        train_z=_readonly(z),
        train_y=d.y,
        centers=_readonly(centers),
        scales=_readonly(scales),
    )


def kernel_weights(m: FittedModel, x_new: np.ndarray) -> np.ndarray:
    """Normalized kernel weights of each training row for each query row,
    shifted by ``_shifted_gaussian`` so that they never all underflow."""
    z0 = transform_features(np.atleast_2d(x_new), m.centers, m.scales)
    d2 = _sq_dists(z0, m.train_z)  # as a temporary, it raised kernel_pooled peak RSS 9 MB
    w = _shifted_gaussian(d2, m.bandwidth)
    return w / w.sum(axis=1, keepdims=True)


def predict_many(m: FittedModel, x_new) -> np.ndarray:
    """Forecast at each row of ``x_new``."""
    x_new = np.atleast_2d(np.asarray(x_new, dtype=np.float64))
    if x_new.shape[1] != m.p:
        raise DataError(f"query has {x_new.shape[1]} features, model expects {m.p}")
    if m.kind is Regressor.KERNEL:
        return kernel_weights(m, x_new) @ m.train_y
    return m.intercept + x_new @ m.coefficients


def predict(m: FittedModel, x0) -> float:
    """Forecast at a single tail."""
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    return float(predict_many(m, x0[None, :])[0])


def fit(d: Dataset, kind, seed: int = 0) -> FittedModel:
    """Dispatch to the chosen engine at its default hyperparameters.

    LASSO picks its penalty by cross-validation with folds drawn from
    ``seed``; the kernel uses the median-heuristic bandwidth.
    """
    kind = Regressor(kind)
    if kind is Regressor.OLS:
        return fit_ols(d)
    if kind is Regressor.LASSO:
        return fit_lasso(d, seed=seed)
    return fit_kernel(d)


def loo_residuals(x, y, model: FittedModel) -> np.ndarray:
    """Signed leave-one-out residuals y_i - f_{-i}(x_i) of ``model``'s engine.

    ``model`` is the engine's fit on all of (x, y). OLS uses the exact
    identity e_i / (1 - h_ii) and refits row by row when the design is
    rank-deficient or a leverage reaches 1. LASSO solves every problem at
    the model's penalty as one batch. The kernel keeps the model's
    standardization and bandwidth and drops row i's own weight.
    """
    if model.kind is Regressor.LASSO:
        return lasso_loo_residuals(x, y, model.lam)
    if model.kind is Regressor.KERNEL:
        d2 = _sq_dists(model.train_z, model.train_z)
        np.fill_diagonal(d2, np.inf)
        w = _shifted_gaussian(d2, model.bandwidth)
        return y - (w @ y) / w.sum(axis=1)
    n = len(y)
    a = np.column_stack([np.ones(n), x])
    coef, _, rank, _ = np.linalg.lstsq(a, y, rcond=None)
    if rank == a.shape[1]:
        h = np.einsum("ij,ji->i", a, np.linalg.pinv(a))
        if np.max(h) < 1.0 - 1e-8:
            return (y - a @ coef) / (1.0 - h)
    out = np.empty(n)
    for i in range(n):
        coef, *_ = np.linalg.lstsq(np.delete(a, i, axis=0), np.delete(y, i), rcond=None)
        out[i] = y[i] - (float(coef[0]) + x[i : i + 1] @ coef[1:])[0]
    return out


def candidate_residuals(x_aug, y, candidates, model: FittedModel) -> np.ndarray:
    """Absolute residuals of full conformal's refits, shape (n+1, G).

    Column g holds |y_aug - f(x_aug)| for ``model``'s engine refit on the
    n+1 rows of ``x_aug`` with heads y_aug = (y, candidates[g]). OLS calls
    ``lstsq`` per candidate. LASSO solves every candidate as one batch at
    the base fit ``model``'s penalty; re-running cross-validation per
    candidate is pointless and slow. The kernel's weights depend only on
    the shared tails, so one (n+1)^2 distance matrix gives its bandwidth
    and weights, and its residuals are affine in the candidate head.
    """
    if model.kind is Regressor.LASSO:
        return lasso_candidate_residuals(x_aug, y, candidates, model.lam)
    n = len(y)
    if model.kind is Regressor.KERNEL:
        z = _standardize_columns(x_aug)[0]
        d2 = _sq_dists(z, z)
        w = _shifted_gaussian(d2, _median_bandwidth(d2))
        w /= w.sum(axis=1, keepdims=True)
        y_pad = np.append(y, 0.0)
        b = -w[:, n]
        b[n] += 1.0
        return np.abs((y_pad - w @ y_pad)[:, None] + b[:, None] * candidates[None, :])
    design = np.column_stack([np.ones(n + 1), x_aug])
    resid = np.empty((n + 1, len(candidates)))
    for g, trial in enumerate(candidates):
        y_aug = np.append(y, trial)
        coef, *_ = np.linalg.lstsq(design, y_aug, rcond=None)
        resid[:, g] = np.abs(y_aug - (float(coef[0]) + x_aug @ coef[1:]))
    return resid
