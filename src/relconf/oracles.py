"""Oracle checks shared by the acceptance gate and ``relconf selftest``.

Each check takes no arguments and returns ``(ok, detail)``: whether it
held, and the measured quantities against their bounds. The gate
(``tests/test_acceptance.py``) and the CLI run these same functions, so
the two cannot drift apart. ``CHECKS`` lists what selftest runs, by the
name it prints.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .conformal import ConformalSpec, _full_accepted, conformal_interval
from .core import ConformalMethod, Dataset, PredictionInterval, Regressor
from .dgp import gen_setting
from .evaluate import score
from .regress import fit_lasso, fit_ols, lasso_kkt_residual, loo_residuals, predict, predict_many

__all__ = [
    "CHECKS",
    "split_coverage",
    "full_conformal_brute_force",
    "jackknife_leave_one_out",
    "lasso_correctness",
    "metric_arithmetic",
    "ols_exact_fit",
    "orthonormal_design",
]


def split_coverage() -> tuple[bool, str]:
    """Criterion 01. Split conformal, OLS, alpha=0.1: empirical coverage over
    500 fresh setting-A replications stays above 0.86 (= 0.9 minus three
    binomial SEs), in under 30 seconds."""
    spec = ConformalSpec(method=ConformalMethod.SPLIT, alpha=0.1)
    start = time.perf_counter()
    hits = 0
    for rep in range(500):
        d, q = gen_setting("A", seed=rep)
        iv = conformal_interval(d, Regressor.OLS, q.x0, spec, seed=rep)
        hits += iv.lo <= q.y0 <= iv.up
    elapsed = time.perf_counter() - start
    coverage = hits / 500
    return (
        coverage >= 0.86 and elapsed < 30.0,
        f"coverage={coverage:.3f} (need >= 0.86), elapsed={elapsed:.1f}s (need < 30s)",
    )


def full_conformal_brute_force() -> tuple[bool, str]:
    """Criterion 02. Production accepted set == literal refit-per-candidate
    oracle, exactly, on 25 random problems (n <= 15, p <= 2, 20-point grid)."""
    rng = np.random.default_rng(202)
    alphas = (0.1, 0.2, 0.3, 0.05, 0.5)
    mismatches = 0
    for i in range(25):
        n = int(rng.integers(5, 16))
        p = int(rng.integers(1, 3))
        x = rng.normal(0.0, 1.0, size=(n, p))
        beta = rng.normal(0.0, 1.0, size=p)
        y = x @ beta + rng.normal(0.0, 0.5, size=n)
        d = Dataset(x, y)
        x0 = rng.normal(0.0, 1.0, size=p)
        alpha = alphas[i % len(alphas)]
        spec = ConformalSpec(method=ConformalMethod.FULL, alpha=alpha, grid_points=20)
        grid, accepted, _ = _full_accepted(d, fit_ols(d), x0, spec)

        # independent oracle: same pinned grid formula, literal refits
        spread = float(y.max() - y.min())
        oracle_grid = np.linspace(
            y.min() - 0.25 * spread, y.max() + 0.25 * spread, 20
        )
        if not np.array_equal(grid, oracle_grid):
            return False, f"dataset {i}: candidate grid differs from the pinned formula"
        k = min(max(math.ceil((n + 1) * (1.0 - alpha) - 1e-9), 1), n + 1)
        x_aug = np.vstack([x, x0])
        for j, trial in enumerate(oracle_grid):
            m = fit_ols(Dataset(x_aug, np.append(y, trial)))
            r = np.abs(np.append(y, trial) - predict_many(m, x_aug))
            rank = 1 + int(np.sum(r[:-1] < r[-1]))
            mismatches += int(bool(accepted[j]) != (rank <= k))
    return mismatches == 0, f"{mismatches} grid-cell mismatches over 25 datasets"


def jackknife_leave_one_out() -> tuple[bool, str]:
    """Criterion 03. Leave-one-out residuals match a per-row refit loop to
    1e-8 on 25 random datasets with n <= 30."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(5, 31))
        p = int(rng.integers(1, 4))
        x = rng.normal(0.0, 1.0, size=(n, p))
        y = x @ rng.normal(0.0, 1.0, size=p) + rng.normal(0.0, 1.0, size=n)
        d = Dataset(x, y)
        fast = loo_residuals(d.x, d.y, fit_ols(d))
        for i in range(n):
            rest = d.subset(np.delete(np.arange(n), i))
            naive = y[i] - predict(fit_ols(rest), x[i])
            worst = max(worst, abs(fast[i] - naive))
    return worst <= 1e-8, f"max |fast - naive| = {worst:.3e} (need <= 1e-8)"


def orthonormal_design(rng, n, p):
    """Zero-mean columns with (1/n) X^T X = I exactly."""
    raw = rng.normal(0.0, 1.0, size=(n, p))
    q, _ = np.linalg.qr(raw - raw.mean(axis=0))
    return q * math.sqrt(n)


def lasso_correctness() -> tuple[bool, str]:
    """Criterion 04. Fixed-penalty coefficients match closed-form
    soft-thresholding on orthonormalized designs to 1e-6; lambda=0 matches
    OLS to 1e-6; the first-order optimality residual is <= 1e-6 on 50
    random problems."""
    rng = np.random.default_rng(404)
    worst_soft = 0.0
    for _ in range(10):
        n, p = 60, 4
        x = orthonormal_design(rng, n, p)
        y = x @ rng.normal(0.0, 1.0, size=p) + rng.normal(0.0, 0.5, size=n)
        d = Dataset(x, y)
        z = x.T @ (y - y.mean()) / n
        for lam in (0.05, 0.2, 0.7):
            m = fit_lasso(d, lam=lam)
            closed = np.sign(z) * np.maximum(np.abs(z) - lam, 0.0)
            worst_soft = max(worst_soft, float(np.abs(m.coefficients - closed).max()))

    worst_ols = 0.0
    for _ in range(10):
        n, p = 50, 3
        x = rng.normal(0.0, 1.0, size=(n, p))
        y = x @ rng.normal(0.0, 1.0, size=p) + rng.normal(0.0, 1.0, size=n)
        d = Dataset(x, y)
        ols, lasso = fit_ols(d), fit_lasso(d, lam=0.0)
        worst_ols = max(
            worst_ols,
            float(np.abs(lasso.coefficients - ols.coefficients).max()),
            abs(lasso.intercept - ols.intercept),
        )

    worst_kkt = 0.0
    for i in range(50):
        n = int(rng.integers(30, 80))
        p = int(rng.integers(2, 9))
        x = rng.normal(0.0, 1.0, size=(n, p))
        beta = np.where(rng.random(p) < 0.5, 0.0, rng.normal(0.0, 2.0, size=p))
        y = x @ beta + rng.normal(0.0, 1.0, size=n)
        d = Dataset(x, y)
        if i % 2 == 0:
            m = fit_lasso(d, seed=i)  # cross-validated penalty
        else:
            m = fit_lasso(d, lam=float(10 ** rng.uniform(-3, -0.5)))
        worst_kkt = max(worst_kkt, lasso_kkt_residual(d, m))

    return (
        worst_soft <= 1e-6 and worst_ols <= 1e-6 and worst_kkt <= 1e-6,
        f"soft-threshold dev {worst_soft:.2e}, lambda0-vs-OLS dev {worst_ols:.2e}, "
        f"KKT residual {worst_kkt:.2e} (all need <= 1e-6)",
    )


def metric_arithmetic() -> tuple[bool, str]:
    """Criterion 10. ``score`` reproduces the hand-checked metrics to 1e-10:
    forecast 2.59, bounds [1.36, 3.8], realized 2.05 give distance 0.54,
    length 2.44, ratio 0.54/2.44, covered."""
    row = score(PredictionInterval(point=2.59, lo=1.36, up=3.8), y0=2.05)
    checks = [
        abs(row.a_dist - 0.54) <= 1e-10,
        abs(row.c_len - 2.44) <= 1e-10,
        abs(row.d_norm - 0.54 / 2.44) <= 1e-10,
        row.covered,
    ]
    zero = score(PredictionInterval(point=0.96, lo=0.5, up=1.5), y0=0.96)
    checks += [zero.a_dist == 0.0, zero.d_norm == 0.0, zero.covered]
    boundary = score(PredictionInterval(point=2.0, lo=1.0, up=3.0), y0=1.0)
    checks.append(boundary.covered)
    return (
        all(checks),
        f"A={row.a_dist!r} C={row.c_len!r} D={row.d_norm!r} covered={row.covered} "
        f"(targets 0.54, 2.44, {0.54 / 2.44:.6f}, True at 1e-10)",
    )


def ols_exact_fit() -> tuple[bool, str]:
    """OLS recovers y = 2x + 1 from nine noiseless points and forecasts 21
    at x = 10."""
    x = np.linspace(0.0, 4.0, 9).reshape(-1, 1)
    m = fit_ols(Dataset(x, 2.0 * x[:, 0] + 1.0))
    intercept = abs(m.intercept - 1.0)
    slope = abs(m.coefficients[0] - 2.0)
    forecast = abs(predict(m, [10.0]) - 21.0)
    return (
        intercept < 1e-10 and slope < 1e-10 and forecast < 1e-9,
        f"intercept dev {intercept:.2e}, slope dev {slope:.2e} (need < 1e-10), "
        f"forecast dev {forecast:.2e} (need < 1e-9)",
    )


CHECKS = {
    "criterion-01-split-coverage": split_coverage,
    "criterion-02-full-conformal-brute-force": full_conformal_brute_force,
    "criterion-03-jackknife-leave-one-out": jackknife_leave_one_out,
    "criterion-04-lasso-correctness": lasso_correctness,
    "criterion-10-metric-arithmetic": metric_arithmetic,
    "ols-exact-fit": ols_exact_fit,
}
