"""Conformal prediction intervals: split, full (transductive), and jackknife.

All three constructors share the same nonconformity score (the absolute
residual) and the same finite-sample rank conventions:

* split:     d* = k-th smallest calibration residual, k = ceil((m+1)(1-a))
* jackknife: d* = k-th smallest leave-one-out residual, k = ceil(n(1-a))
* full:      candidate accepted iff its residual rank among all n+1 is
             <= ceil((n+1)(1-a)); rank counts strictly smaller residuals,
             so ties favor acceptance.

Ceilings are evaluated with a 1e-9 guard so that quantities like 10 * 0.9
(which floats render as 9.000000000000002) land on the intended integer.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    ConfigError,
    ConformalMethod,
    ConformalSpec,
    DataError,
    Dataset,
    PredictionInterval,
    Regressor,
    _choice,
    _query_tail,
    check_knob,
)
from .regress import (
    FittedModel,
    _forecast,
    _split_order,
    candidate_residuals,
    fit,
    loo_residuals,
    min_fit_rows,
)

__all__ = [
    "conformal_interval",
    "ceil_guarded",
    "split_quantile",
    "loo_quantile",
]

_CEIL_GUARD = 1e-9


def ceil_guarded(x: float) -> int:
    """Ceiling that forgives float dust just above an integer."""
    return math.ceil(x - _CEIL_GUARD)


def _point(model: FittedModel, x0: np.ndarray) -> float:
    """The forecast at the query tail ``x0`` that ``_query_tail`` has read,
    which is not checked again."""
    return float(_forecast(model, x0[None])[0])


def _kth_smallest(values: np.ndarray, k: int) -> float:
    """k-th smallest entry, with k clamped to [1, len(values)]."""
    k = min(max(k, 1), len(values))
    return float(np.partition(np.asarray(values, dtype=float), k - 1)[k - 1])


def split_quantile(abs_residuals: np.ndarray, alpha: float) -> float:
    """k-th smallest with k = ceil((m+1)(1-alpha)), clamped to [1, m]."""
    return _kth_smallest(abs_residuals, ceil_guarded((len(abs_residuals) + 1) * (1.0 - alpha)))


def loo_quantile(abs_residuals: np.ndarray, alpha: float) -> float:
    """k-th smallest with k = ceil(n(1-alpha)), clamped to [1, n]."""
    return _kth_smallest(abs_residuals, ceil_guarded(len(abs_residuals) * (1.0 - alpha)))


# ---------------------------------------------------------------------------
# The three constructors, which ``conformal_interval`` calls on a tail,
# seed and dataset it has checked; they check nothing again
# ---------------------------------------------------------------------------

def _split_train_rows(n: int, rho: float) -> int:
    """Rows split conformal fits on, floor(rho*n)."""
    return int(math.floor(rho * n + _CEIL_GUARD))


def _split(d: Dataset, reg: Regressor, x0: np.ndarray, spec: ConformalSpec, seed: int):
    """Fit on a seeded ``rho`` fraction, calibrate on the held-out rest:
    the base forecast plus/minus the calibration residual quantile."""
    n_train = _split_train_rows(d.n, spec.rho)
    perm = _split_order(seed, d.n)
    model = fit(d.subset(perm[:n_train]), reg, seed=seed)
    point = _point(model, x0)
    cal = perm[n_train:]
    resid = np.abs(d.y[cal] - _forecast(model, d.x[cal]))
    dstar = split_quantile(resid, spec.alpha)
    return PredictionInterval(point, point - dstar, point + dstar)


def _candidate_grid(y: np.ndarray, spec: ConformalSpec) -> np.ndarray:
    lo, hi = float(y.min()), float(y.max())
    e = spec.grid_expansion * (hi - lo)
    return np.linspace(lo - e, hi + e, spec.grid_points)


def _full_accepted(
    d: Dataset, base: FittedModel, x0: np.ndarray, spec: ConformalSpec
) -> tuple[np.ndarray, np.ndarray, float]:
    """Full conformal's candidate grid, per-candidate acceptance mask, and
    the base forecast.

    ``base`` is the engine's fit on ``d``. Each candidate head is appended
    to the data and the model refit on the n+1 rows
    (``regress.candidate_residuals``); the candidate survives when its
    absolute residual ranks within the lowest ceil((n+1)(1-alpha)) of all
    n+1. The refits come one block of candidates at a time, and each
    block's ranks are counted against its query row before the next block
    is formed, so no (n+1) x G residual matrix is held.
    """
    point = _point(base, x0)
    grid = _candidate_grid(d.y, spec)
    n = d.n
    k_accept = max(ceil_guarded((n + 1) * (1.0 - spec.alpha)), 1)
    accepted = np.empty(grid.size, dtype=bool)
    for cols, resid in candidate_residuals(np.vstack([d.x, x0]), d.y, grid, base):
        accepted[cols] = 1 + (resid[:n] < resid[n]).sum(axis=0) <= k_accept
    return grid, accepted, point


def _full(d: Dataset, base: FittedModel, x0: np.ndarray, spec: ConformalSpec):
    """[min accepted, max accepted] over the candidate grid.

    An empty acceptance region degrades to a zero-length interval at the
    base forecast, flagged ``degenerate`` so downstream metrics can see it.
    """
    grid, accepted, point = _full_accepted(d, base, x0, spec)
    if not accepted.any():
        return PredictionInterval(point, point, point, degenerate=True)
    kept = grid[accepted]
    return PredictionInterval(point, float(kept.min()), float(kept.max()))


def _jackknife(d: Dataset, base: FittedModel, x0: np.ndarray, spec: ConformalSpec, scores):
    """Base forecast plus/minus the leave-one-out residual quantile.
    ``scores`` are the absolute leave-one-out residuals
    ``|regress.loo_residuals(d.x, d.y, base)|``, or None to make them here."""
    point = _point(base, x0)
    if scores is None:
        scores = np.abs(loo_residuals(d.x, d.y, base))
    dstar = loo_quantile(scores, spec.alpha)
    return PredictionInterval(point, point - dstar, point + dstar)


def _min_rows(spec: ConformalSpec, reg) -> int:
    """Smallest dataset ``conformal_interval`` can run on with ``spec`` and
    ``reg``; it runs on every larger one too.

    A fit needs ``regress.min_fit_rows(reg)``; split fits on floor(rho*n)
    rows and calibrates on the rest, at least 2; jackknife needs 3.
    """
    fit_rows = min_fit_rows(reg)
    if spec.method is ConformalMethod.SPLIT:
        # neither floor(rho*n) nor n - floor(rho*n) falls as n grows
        n = fit_rows + 2
        while not fit_rows <= _split_train_rows(n, spec.rho) <= n - 2:
            n += 1
        return n
    if spec.method is ConformalMethod.JACKKNIFE:
        return max(fit_rows, 3)
    return fit_rows


def _check_rows(d: Dataset, spec: ConformalSpec, reg: Regressor) -> int:
    """``_min_rows(spec, reg)``, after refusing a ``d`` below it."""
    needed = _min_rows(spec, reg)
    if d.n < needed:
        raise DataError(
            f"{spec.method.value} conformal with {reg.value} needs n >= {needed}, got n={d.n}"
        )
    return needed


def conformal_interval(
    d: Dataset,
    reg,
    x0,
    spec: ConformalSpec,
    seed: int = 0,
    base: FittedModel | None = None,
    scores: np.ndarray | None = None,
) -> PredictionInterval:
    """The interval of method ``spec.method`` with engine ``reg`` for the
    query tail ``x0``, calibrated on ``d``.

    Before any fit it checks, in turn, the engine (a spec that names one,
    a grid cell's ``ExperimentConfig``, must name ``reg``: a ConfigError
    otherwise), the tail (``_query_tail``), the seed (``check_knob``, for
    every method) and the size of ``d`` (``_min_rows``: a DataError below
    it).

    Full conformal and the jackknife start from the base fit
    ``regress.fit(d, reg, seed)``: ``base`` when the caller has it, which
    must be of engine ``reg``, else made here. The jackknife also takes
    ``base``'s absolute leave-one-out residuals on ``d`` as ``scores``,
    else makes them; the other methods ignore them. Split fits on part of
    ``d`` and takes neither.
    """
    reg = _choice(Regressor, reg)
    if getattr(spec, "regressor", reg) is not reg:
        raise ConfigError(f"spec is for engine {spec.regressor.value}, not {reg.value}")
    x0 = _query_tail(d, x0)
    seed = check_knob("seed", seed)
    _check_rows(d, spec, reg)
    if spec.method is ConformalMethod.SPLIT:
        return _split(d, reg, x0, spec, seed)
    if base is None:
        base = fit(d, reg, seed=seed)
    elif base.kind is not reg:
        raise DataError(f"base fit is {base.kind.value}, not {reg.value}")
    if spec.method is ConformalMethod.FULL:
        return _full(d, base, x0, spec)
    return _jackknife(d, base, x0, spec, scores)
