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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConformalMethod,
    DataError,
    Dataset,
    PredictionInterval,
    Regressor,
    _choice,
    _query_tail,
    check_knob,
    check_knobs,
)
from .regress import (
    FittedModel,
    _forecast,
    candidate_residuals,
    fit,
    loo_residuals,
    min_fit_rows,
)

__all__ = [
    "ConformalSpec",
    "conformal_interval",
    "split_conformal",
    "full_conformal",
    "full_conformal_accepted",
    "jackknife_conformal",
    "ceil_guarded",
    "split_quantile",
    "loo_quantile",
]

_CEIL_GUARD = 1e-9


def ceil_guarded(x: float) -> int:
    """Ceiling that forgives float dust just above an integer."""
    return math.ceil(x - _CEIL_GUARD)


@dataclass(frozen=True)
class ConformalSpec:
    """Method choice plus the knobs it needs.

    ``rho`` only matters for split; ``grid_points``/``grid_expansion``
    only for full.
    """

    method: ConformalMethod
    alpha: float = 0.1
    rho: float = 0.5
    grid_points: int = 100
    grid_expansion: float = 0.25

    def __post_init__(self):
        object.__setattr__(self, "method", _choice(ConformalMethod, self.method))
        check_knobs(self)


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
# Split conformal
# ---------------------------------------------------------------------------

def _split_train_rows(n: int, rho: float, fit_rows: int) -> int | None:
    """Rows split conformal fits on, floor(rho*n), or None when that leaves
    fewer than ``fit_rows`` to fit or fewer than 2 to calibrate."""
    n_train = int(math.floor(rho * n + _CEIL_GUARD))
    return n_train if fit_rows <= n_train <= n - 2 else None


@functools.lru_cache(maxsize=64)
def _split_order(seed: int, n: int) -> np.ndarray:
    """The seeded row order split conformal cuts into fit and calibration
    rows, read-only. Memoised: every path of a query runs on one seed and
    the relevant and simulated rows share one n, so a (seed, n) recurs
    across the query's paths and regressors."""
    order = np.random.default_rng(seed).permutation(n)
    order.flags.writeable = False
    return order


def split_conformal(d: Dataset, reg, x0, spec: ConformalSpec, seed: int) -> PredictionInterval:
    """Fit on a seeded ``rho`` fraction, calibrate on the held-out rest.

    The interval is the base forecast plus/minus the calibration
    residual quantile. The fit needs ``regress.min_fit_rows(reg)`` rows
    and calibration at least 2.
    """
    x0 = _query_tail(d, x0)
    reg = _choice(Regressor, reg)
    fit_rows = min_fit_rows(reg)
    n_train = _split_train_rows(d.n, spec.rho, fit_rows)
    if n_train is None:
        raise DataError(
            f"split with {reg.value} needs {fit_rows} <= floor(rho*n) <= n-2;"
            f" rho={spec.rho}, n={d.n}"
        )
    seed = check_knob("seed", seed)
    perm = _split_order(seed, d.n)
    model = fit(d.subset(perm[:n_train]), reg, seed=seed)
    point = _point(model, x0)
    cal = perm[n_train:]
    resid = np.abs(d.y[cal] - _forecast(model, d.x[cal]))
    dstar = split_quantile(resid, spec.alpha)
    return PredictionInterval(point, point - dstar, point + dstar)


# ---------------------------------------------------------------------------
# Full (transductive) conformal
# ---------------------------------------------------------------------------

def _candidate_grid(y: np.ndarray, spec: ConformalSpec) -> np.ndarray:
    lo, hi = float(y.min()), float(y.max())
    e = spec.grid_expansion * (hi - lo)
    return np.linspace(lo - e, hi + e, spec.grid_points)


def full_conformal_accepted(
    d: Dataset, base: FittedModel, x0, spec: ConformalSpec
) -> tuple[np.ndarray, np.ndarray, float]:
    """Candidate grid, per-candidate acceptance mask, and the base forecast.

    ``base`` is the engine's fit on ``d``. Each candidate head is appended
    to the data and the model refit on the n+1 rows
    (``regress.candidate_residuals``); the candidate survives when its
    absolute residual ranks within the lowest ceil((n+1)(1-alpha)) of all
    n+1. The refits come one block of candidates at a time, and each
    block's ranks are counted against its query row before the next block
    is formed, so no (n+1) x G residual matrix is held.
    """
    x0 = _query_tail(d, x0)
    point = _point(base, x0)
    grid = _candidate_grid(d.y, spec)
    n = d.n
    k_accept = max(ceil_guarded((n + 1) * (1.0 - spec.alpha)), 1)
    accepted = np.empty(grid.size, dtype=bool)
    for cols, resid in candidate_residuals(np.vstack([d.x, x0]), d.y, grid, base):
        accepted[cols] = 1 + (resid[:n] < resid[n]).sum(axis=0) <= k_accept
    return grid, accepted, point


def full_conformal(d: Dataset, base: FittedModel, x0, spec: ConformalSpec) -> PredictionInterval:
    """[min accepted, max accepted] over the candidate grid.

    An empty acceptance region degrades to a zero-length interval at the
    base forecast, flagged ``degenerate`` so downstream metrics can see it.
    ``base`` is as for ``full_conformal_accepted``.
    """
    grid, accepted, point = full_conformal_accepted(d, base, x0, spec)
    if not accepted.any():
        return PredictionInterval(point, point, point, degenerate=True)
    kept = grid[accepted]
    return PredictionInterval(point, float(kept.min()), float(kept.max()))


# ---------------------------------------------------------------------------
# Jackknife conformal
# ---------------------------------------------------------------------------

def jackknife_conformal(
    d: Dataset, base: FittedModel, x0, spec: ConformalSpec, scores: np.ndarray | None = None
) -> PredictionInterval:
    """Base forecast plus/minus the leave-one-out residual quantile;
    ``base`` is the engine's fit on ``d``. ``scores`` are the absolute
    leave-one-out residuals ``|regress.loo_residuals(d.x, d.y, base)|``:
    given when the caller has them, else made here."""
    x0 = _query_tail(d, x0)
    if d.n < 3:
        raise DataError(f"jackknife needs n >= 3, got n={d.n}")
    point = _point(base, x0)
    if scores is None:
        scores = np.abs(loo_residuals(d.x, d.y, base))
    dstar = loo_quantile(scores, spec.alpha)
    return PredictionInterval(point, point - dstar, point + dstar)


def _min_rows(spec: ConformalSpec, reg) -> int:
    """Smallest dataset ``conformal_interval`` can run on with ``spec`` and ``reg``.

    A fit needs ``regress.min_fit_rows(reg)``; split fits on floor(rho*n)
    rows; jackknife needs 3.
    """
    fit_rows = min_fit_rows(reg)
    if spec.method is ConformalMethod.SPLIT:
        n = fit_rows + 2
        while _split_train_rows(n, spec.rho, fit_rows) is None:
            n += 1
        return n
    if spec.method is ConformalMethod.JACKKNIFE:
        return max(fit_rows, 3)
    return fit_rows


def conformal_interval(
    d: Dataset,
    reg,
    x0,
    spec: ConformalSpec,
    seed: int = 0,
    base: FittedModel | None = None,
    scores: np.ndarray | None = None,
) -> PredictionInterval:
    """Dispatch on ``spec.method``.

    Full conformal and the jackknife start from the base fit
    ``regress.fit(d, reg, seed)``: ``base`` when the caller has it, which
    must be of engine ``reg``, else made here. The jackknife also takes
    ``base``'s absolute leave-one-out residuals on ``d`` as ``scores``
    (``jackknife_conformal``); the other methods ignore them. Split fits on
    part of ``d`` and takes neither.
    """
    reg = _choice(Regressor, reg)
    if spec.method is ConformalMethod.SPLIT:
        return split_conformal(d, reg, x0, spec, seed)
    if base is None:
        base = fit(d, reg, seed=seed)
    elif base.kind is not reg:
        raise DataError(f"base fit is {base.kind.value}, not {reg.value}")
    if spec.method is ConformalMethod.FULL:
        return full_conformal(d, base, x0, spec)
    return jackknife_conformal(d, base, x0, spec, scores)
