"""Regression engines against closed-form and brute-force oracles."""

import dataclasses
import os
import subprocess
import sys
import time
import tracemalloc
from collections import deque

import numpy as np
import pytest

from relconf.core import DataError, Dataset, Regressor, _sq_dists, _standardize_columns
from relconf.regress import (
    FittedModel,
    candidate_residuals,
    fit,
    fit_kernel,
    fit_lasso,
    fit_ols,
    kernel_weights,
    lasso_kkt_residual,
    loo_residuals,
    predict,
    predict_many,
)
from relconf import regress
from relconf.conformal import ConformalSpec, full_conformal
from relconf.oracles import orthonormal_design
from relconf.regress import (
    _gram_problem,
    _homotopy_path,
    _lambda_grid,
    _median_bandwidth,
    _shifted_gaussian,
)

# rows of kernel weights per block in the blocked-smoother tests, which set
# the entry budget (block_rows) so that a block of their width has B rows
B = 256
# designs whose median bandwidth is checked against the whole triangle
_MEDIAN_SIZES = (2, 3, 4, 65, 70, 513, 514, 1000, 1002)


def make_dataset(rng, n, p, noise=1.0):
    x = rng.normal(size=(n, p))
    coef = rng.normal(size=p)
    y = 1.0 + x @ coef + noise * rng.normal(size=n)
    return Dataset(x, y)


def candidate_problem(seed, n, p):
    """n rows and a query row whose column 1 is constant, their heads, and
    15 candidate heads reaching well past the heads' range."""
    rng = np.random.default_rng(seed)
    x_aug = rng.normal(size=(n + 1, p))
    x_aug[:, 1] = 0.7
    y = 1.0 + x_aug[:n] @ rng.normal(size=p) + rng.normal(size=n)
    span = y.max() - y.min()
    return x_aug, y, np.linspace(y.min() - 2.0 * span, y.max() + 2.0 * span, 15)


def stacked_candidate_residuals(x_aug, y, candidates, model):
    """``candidate_residuals``'s blocks side by side, checked to cover the
    candidates in order."""
    blocks = list(candidate_residuals(x_aug, y, candidates, model))
    stops = [0] + [cols.stop for cols, _ in blocks]
    assert [cols.start for cols, _ in blocks] == stops[:-1] and stops[-1] == len(candidates)
    return np.hstack([resid for _, resid in blocks])


@pytest.fixture
def block_rows(monkeypatch):
    """Set _SMOOTH_ENTRIES so that ``_row_blocks`` gives ``rows`` rows, a
    multiple of 4, per block of ``width`` entries a row."""
    return lambda rows, width: monkeypatch.setattr(regress, "_SMOOTH_ENTRIES", rows * width)


# The coordinate-descent references stop once a sweep moves no coefficient
# by REFERENCE_TOL, or after REFERENCE_MAX_SWEEPS sweeps, so they are exact
# only to about REFERENCE_TOL.
REFERENCE_TOL = 1e-8
REFERENCE_MAX_SWEEPS = 10_000


def soft_threshold(z, lam):
    """Proximal map of lam*|.|: shrink z toward zero by lam, clipping at 0."""
    if z > lam:
        return z - lam
    if z < -lam:
        return z + lam
    return 0.0


def lasso_objective(x, y, intercept, coef, lam):
    """(1/2n) sum of squared residuals plus lam times the l1 norm of coef."""
    r = y - intercept - x @ coef
    return float((r @ r) / (2 * len(y)) + lam * np.abs(coef).sum())


def reference_sweeps(xs, yc, lam, beta, active):
    """Residual-update coordinate descent on the n data rows (Friedman,
    Hastie & Tibshirani 2010), a reference independent of the Gram matrix."""
    n = xs.shape[0]
    r = yc - xs @ beta
    for _ in range(REFERENCE_MAX_SWEEPS):
        delta = 0.0
        for j in np.flatnonzero(active):
            old = beta[j]
            new = soft_threshold(xs[:, j] @ r / n + old, lam)
            if new != old:
                r += xs[:, j] * (old - new)
                beta[j] = new
                delta = max(delta, abs(new - old))
        if delta < REFERENCE_TOL:
            break
    return beta


def reference_gram_path(gram, xty, lams, active):
    """Covariance-update coordinate descent on the Gram matrix along the
    penalties ``lams``, each warm-started from the previous solution: one
    coefficient row per penalty."""
    beta = np.zeros(len(xty))
    grad = np.array(xty, dtype=np.float64)
    path = []
    for lam in lams:
        for _ in range(REFERENCE_MAX_SWEEPS):
            delta = 0.0
            for j in np.flatnonzero(active):
                old = beta[j]
                new = soft_threshold(grad[j] + old, lam)
                if new != old:
                    beta[j] = new
                    grad -= gram[j] * (new - old)
                    delta = max(delta, abs(new - old))
            if delta < REFERENCE_TOL:
                break
        path.append(beta.copy())
    return np.array(path)


def reference_fit(x, y, lam):
    xs, m, s, _ = _standardize_columns(x, ddof=0)
    ybar = y.mean()
    beta = reference_sweeps(
        xs, y - ybar, lam, np.zeros(x.shape[1]), np.any(xs != 0.0, axis=0)
    )
    coef = beta / s
    return float(ybar - coef @ m), coef


def reference_cv_lambda(x, y, folds, seed):
    n = x.shape[0]
    xs, _, _, _ = _standardize_columns(x, ddof=0)
    lam_max = float(np.max(np.abs(xs.T @ (y - y.mean()))) / n)
    grid = np.geomspace(
        lam_max, lam_max * regress.LASSO_GRID_RATIO, regress.LASSO_GRID_SIZE
    )
    fold_ids = np.array_split(np.random.default_rng(seed).permutation(n), folds)
    sse = np.zeros(grid.size)
    for held in fold_ids:
        mask = np.ones(n, dtype=bool)
        mask[held] = False
        xt, yt = x[mask], y[mask]
        xs, m, s, _ = _standardize_columns(xt, ddof=0)
        active = np.any(xs != 0.0, axis=0)
        yc = yt - yt.mean()
        beta = np.zeros(x.shape[1])
        for g, lam in enumerate(grid):
            beta = reference_sweeps(xs, yc, lam, beta, active)
            coef = beta / s
            pred = (yt.mean() - coef @ m) + x[held] @ coef
            sse[g] += float(((y[held] - pred) ** 2).sum())
    return float(grid[np.argmin(sse)])


class TestOls:
    def test_exact_linear_data(self):
        d = Dataset(np.array([[1.0], [2.0], [3.0]]), [2.0, 4.0, 6.0])
        m = fit_ols(d)
        np.testing.assert_allclose(m.intercept, 0.0, atol=1e-10)
        np.testing.assert_allclose(m.coefficients, [2.0], atol=1e-10)

    def test_constant_response(self):
        rng = np.random.default_rng(0)
        d = Dataset(rng.normal(size=(12, 3)), np.full(12, 4.5))
        m = fit_ols(d)
        np.testing.assert_allclose(m.intercept, 4.5, atol=1e-10)
        np.testing.assert_allclose(m.coefficients, np.zeros(3), atol=1e-10)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(1)
        d = make_dataset(rng, 20, 3)
        m = fit_ols(d)
        a = np.column_stack([np.ones(20), d.x])
        oracle = np.linalg.solve(a.T @ a, a.T @ d.y)
        np.testing.assert_allclose(m.intercept, oracle[0], atol=1e-8)
        np.testing.assert_allclose(m.coefficients, oracle[1:], atol=1e-8)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(2)
        d = make_dataset(rng, 50, 4)
        m = fit_ols(d)
        r = d.y - predict_many(m, d.x)
        assert abs(r.sum()) <= 1e-8 * d.n
        for j in range(d.p):
            assert abs(r @ d.x[:, j]) <= 1e-8 * d.n

    def test_singular_design_minimum_norm(self):
        rng = np.random.default_rng(3)
        d = make_dataset(rng, 4, 7)  # p > n
        m = fit_ols(d)
        a = np.column_stack([np.ones(4), d.x])
        oracle = np.linalg.pinv(a) @ d.y
        np.testing.assert_allclose(
            np.concatenate([[m.intercept], m.coefficients]), oracle, atol=1e-8
        )
        np.testing.assert_allclose(predict_many(m, d.x), d.y, atol=1e-8)

    @pytest.mark.parametrize("n, p", [(30, 3), (30, 12), (8, 12)])
    def test_candidate_residuals_equal_literal_refits(self, block_rows, n, p):
        # Each block of 4 candidates is solved by one lstsq over its (n+1, 4)
        # head matrix; each column must be a literal fit_ols refit's residuals.
        # The constant column makes every design rank-deficient, so each
        # refit is the minimum-norm solution, and n = 8 has p > n.
        x_aug, y, candidates = candidate_problem(60 + n + p, n, p)
        block_rows(4, n + 1)
        resid = stacked_candidate_residuals(x_aug, y, candidates, fit_ols(Dataset(x_aug[:n], y)))
        assert resid.shape == (n + 1, candidates.size)
        for g, trial in enumerate(candidates):
            y_aug = np.append(y, trial)
            literal = np.abs(y_aug - predict_many(fit_ols(Dataset(x_aug, y_aug)), x_aug))
            np.testing.assert_allclose(resid[:, g], literal, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "column, refit_rows",
        [(np.ones(40), []), (np.eye(40)[0], [0])],
        ids=["constant_column", "one_row_spans_a_column"],
    )
    def test_loo_residuals_refit_only_rows_of_unit_leverage(self, monkeypatch, column, refit_rows):
        # e_i / (1 - h_ii) is row i's leave-one-out residual at any rank
        # while h_ii < 1: a constant column (a copy of the intercept) makes
        # the design rank-deficient but refits nothing; a column that only
        # row 0 spans gives that row h = 1, and only it is refit
        rng = np.random.default_rng(41)
        x = np.column_stack([rng.normal(size=(40, 3)), column])
        y = rng.normal(size=40)
        literal = [
            y[i] - predict(fit_ols(Dataset(np.delete(x, i, axis=0), np.delete(y, i))), x[i])
            for i in range(40)
        ]
        model = fit_ols(Dataset(x, y))
        refits = []
        monkeypatch.setattr(regress, "fit_ols", lambda d: refits.append(d) or fit_ols(d))
        loo = loo_residuals(x, y, model)
        assert len(refits) == len(refit_rows)
        for d, i in zip(refits, refit_rows):
            np.testing.assert_array_equal(d.x, np.delete(x, i, axis=0))
        np.testing.assert_allclose(loo, literal, rtol=0, atol=1e-12)


def near_collinear_dataset():
    """Twelve near-copies of one column and a pure-noise head."""
    rng = np.random.default_rng(0)
    z = rng.normal(size=(30, 1))
    x = z + 0.05 * rng.normal(size=(30, 12))
    return Dataset(x, rng.normal(size=30))


def gram_kkt_residual(gram, xty, lam, beta, active):
    """Largest violation of the stationarity conditions of
    (1/2) b'Gb - c'b + lam*||b||_1 at ``beta``, over the active columns."""
    grad = xty - gram @ beta
    violation = np.where(beta != 0.0, np.abs(grad - lam * np.sign(beta)), np.abs(grad) - lam)
    return float(np.max(violation[active], initial=0.0))


def assert_exact_path(gram, xty, active, grid, tol):
    """The homotopy path is finished and meets the KKT conditions within
    ``tol`` at every grid penalty; returns it."""
    path, _, converged = _homotopy_path(gram, xty, grid, active)
    assert converged
    for lam, beta in zip(grid, path):
        assert gram_kkt_residual(gram, xty, lam, beta, active) <= tol
    return path


def path_problem(seed, n, p, collinear=True):
    """A standardized LASSO problem and a grid whose top lies above its
    lam_max, as a fold's does under the full data's grid."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    if collinear and p > 1:
        x[:, -1] = x[:, 0] + 0.1 * rng.normal(size=n)
    y = x @ rng.normal(size=p) + rng.normal(size=n)
    gram, xty, active, _, _, _ = _gram_problem(x, y)
    return gram, xty, active, _lambda_grid(1.2 * xty)


class TestLasso:
    def test_zero_penalty_equals_ols(self):
        rng = np.random.default_rng(4)
        d = make_dataset(rng, 40, 4)
        m = fit_lasso(d, lam=0.0)
        ols = fit_ols(d)
        np.testing.assert_allclose(m.intercept, ols.intercept, atol=1e-6)
        np.testing.assert_allclose(m.coefficients, ols.coefficients, atol=1e-6)

    def test_orthonormal_soft_threshold_oracle(self):
        rng = np.random.default_rng(5)
        x = orthonormal_design(rng, 60, 5)
        y = 2.0 + x @ np.array([1.5, -0.8, 0.3, 0.0, 0.05]) + rng.normal(size=60)
        d = Dataset(x, y)
        ols_coef = fit_ols(d).coefficients
        for lam in (0.05, 0.2, 0.7):
            m = fit_lasso(d, lam=lam)
            expected = np.sign(ols_coef) * np.maximum(np.abs(ols_coef) - lam, 0.0)
            np.testing.assert_allclose(m.coefficients, expected, atol=1e-6)

    def test_large_penalty_zeroes_everything(self):
        rng = np.random.default_rng(6)
        d = make_dataset(rng, 30, 4)
        m = fit_lasso(d, lam=1e6)
        np.testing.assert_array_equal(m.coefficients, np.zeros(4))
        np.testing.assert_allclose(m.intercept, d.y.mean(), atol=1e-10)

    def test_kkt_conditions_at_cv_solution(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            d = make_dataset(np.random.default_rng(100 + trial), 50, 8)
            m = fit_lasso(d, seed=trial)
            assert lasso_kkt_residual(d, m) <= 1e-6

    def test_warm_started_path_meets_kkt_at_every_penalty(self):
        # the homotopy carries each penalty's solution on to the next one
        rng = np.random.default_rng(18)
        x = rng.normal(size=(30, 6))
        x[:, 1] = x[:, 0] + 0.2 * rng.normal(size=30)
        d = Dataset(x, x @ rng.normal(size=6) + rng.normal(size=30))
        gram, xty, active, m, s, ybar = _gram_problem(d.x, d.y)
        grid = _lambda_grid(xty)
        path, knots, converged = _homotopy_path(gram, xty, grid, active)
        assert path.shape == (regress.LASSO_GRID_SIZE, 6)
        assert converged and knots >= 5
        for lam, beta in zip(grid, path):
            coef = beta / s
            row = FittedModel(
                kind=Regressor.LASSO,
                intercept=float(ybar - coef @ m),
                coefficients=coef,
                lam=float(lam),
            )
            assert lasso_kkt_residual(d, row) <= 1e-12

    @pytest.mark.parametrize(
        "n, p, lam, constant_col",
        [
            (40, 2, 0.05, None),
            (40, 2, 0.0, None),
            (60, 5, 0.02, 3),
            (25, 5, 0.0, 0),
            (50, 12, 0.01, 7),
            (12, 12, 0.0, 4),
        ],
    )
    def test_matches_residual_update_reference(self, n, p, lam, constant_col):
        rng = np.random.default_rng(1000 * n + 10 * p + (constant_col or 0))
        x = rng.normal(size=(n, p))
        x[:, 1] = x[:, 0] + 0.3 * rng.normal(size=n)
        if constant_col is not None:
            x[:, constant_col] = 2.5
        y = 1.0 + x @ rng.normal(size=p) + rng.normal(size=n)
        d = Dataset(x, y)
        cv = fit_lasso(d, seed=p)
        assert cv.lam == reference_cv_lambda(x, y, 5, p)
        for m in (fit_lasso(d, lam=lam), cv):
            # the fit is exact; the coordinate-descent reference stops at a
            # coefficient change of REFERENCE_TOL, so it is the inexact side
            assert lasso_kkt_residual(d, m) <= 1e-12
            intercept, coef = reference_fit(x, y, m.lam)
            if m.lam == 0.0 and n <= p:
                # 11 active columns interpolate the 12 centred heads, and
                # the Gram matrix's condition number is about 8 500: the
                # reference stops at its step tolerance with coefficients
                # 5e-3 away, so only its objective is a bound
                assert lasso_objective(x, y, m.intercept, m.coefficients, 0.0) <= lasso_objective(
                    x, y, intercept, coef, 0.0
                )
                continue
            np.testing.assert_allclose(m.coefficients, coef, rtol=0, atol=1e-6)
            assert m.intercept == pytest.approx(intercept, rel=0, abs=1e-6)

    def test_convergence_reported(self, monkeypatch):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(30, 4))
        x[:, 1] = x[:, 0] + 0.2 * rng.normal(size=30)
        d = Dataset(x, x @ np.array([1.0, -1.0, 0.5, 0.0]) + rng.normal(size=30))
        assert fit_lasso(d, lam=0.01).converged is True
        assert fit_lasso(d, seed=0).converged is True
        # the final fit follows the path from lam_max down to its penalty
        monkeypatch.setattr(regress, "LASSO_MAX_KNOTS", 1)
        assert fit_lasso(d, lam=0.01).converged is False
        assert fit_ols(d).converged is None

    def test_near_collinear_cv_takes_milliseconds(self):
        # Coordinate descent, the solver before the homotopy, spent about
        # 35 s in this design's fold paths, many of which hit its sweep cap.
        d = near_collinear_dataset()
        start = time.perf_counter()
        m = fit_lasso(d, seed=0)
        assert time.perf_counter() - start < 1.0
        assert m.converged is True

    @pytest.mark.parametrize("n, p", [(24, 2), (24, 12), (40, 5), (60, 12)])
    def test_homotopy_path_meets_kkt_at_every_grid_penalty(self, n, p):
        # full-rank problems; a near-copy of the first column makes
        # coefficients leave the active set along some of the paths
        for seed in range(20):
            gram, xty, active, grid = path_problem(1000 * n + 10 * p + seed, n, p)
            path, knots, converged = _homotopy_path(gram, xty, grid, active)
            assert converged and knots >= p - 1
            for lam, beta in zip(grid, path):
                assert gram_kkt_residual(gram, xty, lam, beta, active) <= 1e-12

    @pytest.mark.parametrize("p", [2, 5, 8])
    def test_homotopy_path_equals_coordinate_descent(self, p):
        for seed in range(10):
            gram, xty, active, grid = path_problem(seed, 60, p, collinear=False)
            exact = _homotopy_path(gram, xty, grid, active)[0]
            np.testing.assert_allclose(
                exact, reference_gram_path(gram, xty, grid, active), rtol=0, atol=1e-6
            )

    @pytest.mark.parametrize("n", [10, 12])
    def test_rank_deficient_path_meets_kkt(self, n):
        # p = 12 on 10 or 12 rows, as in the split-conformal folds of the
        # long suite: the centred columns span at most n - 1 dimensions, so
        # the active set can reach the rank of the rows, and every later
        # join is skipped
        for seed in range(50):
            assert_exact_path(*path_problem(seed, n, 12, collinear=seed % 2 == 0), tol=1e-9)

    def test_tied_events_on_binary_designs_meet_kkt(self):
        # 0/1 columns and integer heads on a few rows tie often: two
        # gradients reach the penalty at the same knot, and rounding can put
        # the root of the second just above it. It must still join there.
        rng = np.random.default_rng(42)
        for _ in range(300):
            n, p = rng.integers(6, 16), rng.integers(2, 8)
            x = rng.integers(0, 2, size=(n, p)).astype(float)
            y = np.round(x @ rng.normal(size=p) + rng.normal(size=n))
            gram, xty, active, _, _, _ = _gram_problem(x, y)
            assert_exact_path(gram, xty, active, _lambda_grid(1.1 * xty), 1e-9)

    @pytest.mark.parametrize("twin", [1.0, -1.0], ids=["duplicated", "negated"])
    def test_singular_join_is_skipped(self, twin):
        # The last column is column 0 or its negation, so an active block
        # holding both is singular. On some draws rounding lets the twin's
        # gradient reach the penalty at a knot; the join is undone, and the
        # twin, whose gradient stays at +-lam, keeps a zero coefficient.
        for seed in range(40):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(20, 4))
            x[:, -1] = twin * x[:, 0]
            y = x @ rng.normal(size=4) + rng.normal(size=20)
            gram, xty, active, _, _, _ = _gram_problem(x, y)
            path = assert_exact_path(gram, xty, active, _lambda_grid(1.2 * xty), 1e-12)
            assert not np.any((path[:, 0] != 0.0) & (path[:, -1] != 0.0))

    def test_knot_cap_stops_the_path_unconverged(self, monkeypatch):
        gram, xty, active, grid = path_problem(4, 40, 5)
        full, knots, _ = _homotopy_path(gram, xty, grid, active)
        assert knots >= 3
        monkeypatch.setattr(regress, "LASSO_MAX_KNOTS", 2)
        path, knots, converged = _homotopy_path(gram, xty, grid, active)
        assert knots == 2 and converged is False
        # the penalties reached before the cap are exact; the rest keep the
        # solution at the second knot
        k = int(np.argmin(np.all(path == full, axis=1)))
        assert 0 < k < grid.size
        assert np.all(path[k:] == path[-1]) and np.count_nonzero(path[-1]) >= 1
        # the cap ends cross-validation's fold paths too
        assert fit_lasso(near_collinear_dataset(), seed=0).converged is False

    def test_constant_response_gives_all_zero_path(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(20, 3))
        y = np.full(20, 2.5)
        gram, xty, active, _, _, _ = _gram_problem(x, y)
        assert not xty.any()
        path, knots, converged = _homotopy_path(gram, xty, _lambda_grid(xty), active)
        assert path.shape == (regress.LASSO_GRID_SIZE, 3)
        assert not path.any() and knots == 0 and converged
        m = fit_lasso(Dataset(x, y), seed=0)
        assert not m.coefficients.any() and m.intercept == 2.5

    def test_tied_joins_give_the_soft_threshold_path(self):
        # On an orthonormal problem (G = I) the path is the soft threshold
        # of c. Columns 0 and 1 tie at lam_max: column 0 starts the path
        # and column 1 joins at the same penalty, a knot of zero length.
        xty = np.array([1.0, -1.0, 0.5])
        lams = np.geomspace(2.0, 1e-3, 30)
        path, knots, converged = _homotopy_path(np.eye(3), xty, lams, np.ones(3, dtype=bool))
        expected = np.sign(xty) * np.maximum(np.abs(xty) - lams[:, None], 0.0)
        np.testing.assert_allclose(path, expected, rtol=0, atol=1e-15)
        assert knots == 2 and converged

    def test_constant_column_stays_inactive(self):
        # The float column mean of 30 copies of 0.1 is off by 4.2e-17, so
        # the column's root mean square deviation is 4.2e-17, not 0. It must
        # not be scaled up into a feature: the column is constant, so it
        # takes no coefficient and the unpenalized fit is the OLS fit.
        rng = np.random.default_rng(0)
        x = np.column_stack([rng.normal(size=30), np.full(30, 0.1)])
        y = 1.0 + 2.0 * x[:, 0] + rng.normal(size=30)
        d = Dataset(x, y)
        unpenalized = fit_lasso(d, lam=0.0)
        assert unpenalized.coefficients[1] == 0.0
        assert fit_lasso(d, seed=0).coefficients[1] == 0.0
        np.testing.assert_allclose(
            predict_many(unpenalized, x), predict_many(fit_ols(d), x), rtol=0, atol=1e-10
        )

    @pytest.mark.parametrize("p", [1, 2, 12])
    @pytest.mark.parametrize("shared_gram", [False, True])
    def test_batch_equals_path_per_problem(self, monkeypatch, p, shared_gram):
        # Each problem of a batch must get its own homotopy path's exact
        # solution. The problems perturb one problem's tails (unless the
        # Gram matrix is shared) and head, as leave-one-out problems do, and
        # some have inactive columns, so most but not all share a sign
        # pattern: some are solved by the batched solve of another problem's
        # pattern and some need a homotopy path of their own.
        rng = np.random.default_rng(p + 100 * shared_gram)
        n, batch, lam = 20, 12, 0.03
        base = rng.normal(size=(n, p))
        head = base @ rng.normal(size=p) + rng.normal(size=n)
        grams, xtys = [], []
        for b in range(batch):
            x = base if shared_gram else base + 0.05 * rng.normal(size=(n, p))
            gram, xty, _, _, _, _ = _gram_problem(x, head + 0.3 * rng.normal(size=n))
            grams.append(gram)
            xtys.append(xty)
        gram = grams[0] if shared_gram else np.array(grams)
        xty = np.array(xtys)
        active = rng.random((batch, p)) < 0.9
        active[0] = True
        active[1] = False
        reference = [_homotopy_path(grams[b], xty[b], [lam], active[b])[0][0] for b in range(batch)]
        calls = []
        homotopy = regress._homotopy_path

        def spy(*args):
            calls.append(args)
            return homotopy(*args)

        monkeypatch.setattr(regress, "_homotopy_path", spy)
        beta = regress._lasso_batch(gram, xty, lam, active)
        assert beta.shape == (batch, p)
        # a second path ran, and the batched solve took at least one problem
        assert 2 <= len(calls) < batch
        for b in range(batch):
            np.testing.assert_allclose(beta[b], reference[b], rtol=0, atol=1e-12)
            assert gram_kkt_residual(grams[b], xty[b], lam, beta[b], active[b]) <= 1e-12
            assert not beta[b, ~active[b]].any()

    def test_batch_leaves_an_exactly_singular_block_to_its_own_path(self):
        # Problem 1's two columns are equal, so the block of problem 0's
        # support is exactly singular for it and the batched solve cannot
        # run; every problem still gets its own path's exact solution.
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 2))
        twin = np.column_stack([x[:, 0], x[:, 0]])
        heads = [a.sum(axis=1) + 0.1 * rng.normal(size=30) for a in (x, twin, x)]
        problems = [_gram_problem(a, y)[:2] for a, y in zip((x, twin, x), heads)]
        grams, xty = map(np.array, zip(*problems))
        active = np.ones((3, 2), dtype=bool)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(grams[1], xty[1])
        beta = regress._lasso_batch(grams, xty, 0.01, active)
        assert np.count_nonzero(beta[0]) == 2 and np.count_nonzero(beta[1]) == 1
        for b in range(3):
            path = _homotopy_path(grams[b], xty[b], [0.01], active[b])[0]
            np.testing.assert_array_equal(beta[b], path[0])
            assert gram_kkt_residual(grams[b], xty[b], 0.01, beta[b], active[b]) <= 1e-12

    @pytest.mark.parametrize("p", [3, 12])
    def test_candidate_residuals_equal_literal_refits(self, block_rows, p):
        # The candidate heads are solved as one batch, and their cross-products
        # and residuals formed in blocks of 4, whose matrix products sum in
        # another order than a refit per candidate; every column must still
        # be a literal fit_lasso refit's residuals up to rounding. One column
        # is constant, and the candidates reach well past the heads.
        n = 30
        x_aug, y, candidates = candidate_problem(40 + p, n, p)
        model = fit_lasso(Dataset(x_aug[:n], y), seed=0)
        block_rows(4, n + 1)
        resid = stacked_candidate_residuals(x_aug, y, candidates, model)
        assert resid.shape == (n + 1, candidates.size)
        for g, trial in enumerate(candidates):
            y_aug = np.append(y, trial)
            refit = fit_lasso(Dataset(x_aug, y_aug), lam=model.lam)
            assert refit.coefficients[1] == 0.0
            literal = np.abs(y_aug - predict_many(refit, x_aug))
            np.testing.assert_allclose(resid[:, g], literal, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("p", [1, 3, 12])
    def test_cv_fit_equals_fit_at_its_penalty(self, p):
        # the cross-validated fit and the fit at its penalty end on one solve
        d = make_dataset(np.random.default_rng(50 + p), 25, p)
        for seed in range(3):
            cv = fit_lasso(d, seed=seed)
            fixed = fit_lasso(d, lam=cv.lam)
            assert cv.intercept == fixed.intercept
            np.testing.assert_array_equal(cv.coefficients, fixed.coefficients)

    def test_cv_is_seed_deterministic(self):
        d = make_dataset(np.random.default_rng(9), 40, 5)
        m1 = fit_lasso(d, seed=3)
        m2 = fit_lasso(d, seed=3)
        assert m1.lam == m2.lam
        np.testing.assert_array_equal(m1.coefficients, m2.coefficients)

    def test_sparse_recovery_monte_carlo(self):
        # 12 features, 2 active: the cross-validated fit should zero out
        # at least 5 of the 10 null coefficients in >= 80% of replications.
        hits = 0
        reps = 100
        for rep in range(reps):
            rng = np.random.default_rng(1000 + rep)
            x = rng.normal(size=(100, 12))
            beta = np.concatenate([rng.normal(size=2), np.zeros(10)])
            y = x @ beta + rng.normal(size=100)
            m = fit_lasso(Dataset(x, y), seed=rep)
            if np.sum(m.coefficients[2:] == 0.0) >= 5:
                hits += 1
        assert hits >= 80

    def test_too_few_rows_for_folds(self):
        d = make_dataset(np.random.default_rng(10), 4, 2)
        with pytest.raises(DataError):
            fit_lasso(d)

    def test_cv_memory_holds_no_per_row_outer_products(self):
        # the folds downdate p x p cross-products: one (n, p, p) array of
        # per-row outer products would take 144 MB here
        d = make_dataset(np.random.default_rng(24), 20_000, 30)
        tracemalloc.start()
        try:
            fit_lasso(d, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_nan_penalty_rejected(self):
        # NaN < 0 is False, so only a test that NaN fails lets it through
        d = make_dataset(np.random.default_rng(10), 20, 2)
        with pytest.raises(DataError, match="penalty"):
            fit_lasso(d, lam=float("nan"))

    def test_penalty_and_seed_are_keyword_only(self):
        # a positional number must not silently become a penalty or a fold count
        d = make_dataset(np.random.default_rng(10), 20, 2)
        with pytest.raises(TypeError):
            fit_lasso(d, 5)


def held_out_design(case, held):
    """40 rows, 4 columns and their heads, where ``held`` (one left-out row
    or one fold) makes the named case: "constant" sets column 1 to 0.7
    throughout, "constant_without_set" sets column 2 to 0.3 on every row
    outside ``held``, and "outlier" puts 1e4 into column 3 of the first row
    of ``held``, all but about 4e-7 of that column's centred sum of
    squares."""
    rng = np.random.default_rng(23)
    x = rng.normal(size=(40, 4))
    y = x @ rng.normal(size=4) + rng.normal(size=40)
    if case == "constant":
        x[:, 1] = 0.7
    elif case == "constant_without_set":
        x[:, 2] = 0.3
        x[held, 2] = 1.5 + np.arange(held.size)
    elif case == "outlier":
        x[held[0], 3] = 1e4
    return x, y


@pytest.fixture
def gram_problem_calls(monkeypatch):
    """The argument tuples of every ``_gram_problem`` call made through the
    module, each still answered by the real function."""
    calls = []
    real = regress._gram_problem

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(regress, "_gram_problem", spy)
    return calls


class TestHeldOutProblems:
    # a set whose kept rows are constant in a column, or which holds a
    # column's outlier, cancels the downdate and is rebuilt from its rows
    @pytest.mark.parametrize(
        "case, rebuilt",
        [("plain", 0), ("constant", 0), ("constant_without_set", 1), ("outlier", 1)],
    )
    @pytest.mark.parametrize("sets", ["leave_one_out", "folds"])
    def test_each_problem_equals_gram_problem_of_its_kept_rows(
        self, gram_problem_calls, sets, case, rebuilt
    ):
        n = 40
        if sets == "leave_one_out":
            order, n_sets = np.arange(n), n
        else:
            order, n_sets = np.random.default_rng(5).permutation(n), 5
        held_sets = np.array_split(order, n_sets)
        x, y = held_out_design(case, held_sets[2])
        problems = regress._held_out_problems(x, y, order, n_sets)
        assert len(gram_problem_calls) == rebuilt
        assert problems[0].shape == (n_sets, 4, 4)
        for g, held in enumerate(held_sets):
            expected = regress._gram_problem(np.delete(x, held, axis=0), np.delete(y, held))
            gram, xty, active, centers, scales, ybar = (out[g] for out in problems)
            np.testing.assert_array_equal(active, expected[2])
            for got, want in zip((gram, xty, centers, scales, ybar), expected[:2] + expected[3:]):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            if case != "plain" and g != 2:
                assert active.tolist() == [True, case != "constant", True, True]

    def test_cv_fold_holding_an_outlier_is_rebuilt(self, gram_problem_calls):
        # row 7's column 1 holds all but about 6e-7 of that column's centred
        # sum of squares; its fold is rebuilt from the fold's kept rows, and
        # the penalty is the one refitting every fold from its rows gives
        rng = np.random.default_rng(31)
        x = rng.normal(size=(60, 3))
        x[7, 1] = 1e4
        y = 1.0 + x @ np.array([1.0, 1e-4, -0.5]) + rng.normal(size=60)
        for seed in range(3):
            gram_problem_calls.clear()
            assert fit_lasso(Dataset(x, y), seed=seed).lam == reference_cv_lambda(x, y, 5, seed)
            # the full problem, then the fold holding row 7
            assert [len(a[1]) for a in gram_problem_calls] == [60, 48]


class TestKernel:
    def test_constant_response(self):
        rng = np.random.default_rng(12)
        d = Dataset(rng.normal(size=(15, 2)), np.full(15, 3.25))
        m = fit_kernel(d)
        assert predict(m, rng.normal(size=2)) == pytest.approx(3.25)

    def test_interpolation_limit_at_training_tail(self):
        rng = np.random.default_rng(13)
        d = make_dataset(rng, 12, 2)
        m = dataclasses.replace(fit_kernel(d), bandwidth=1e-6)
        for i in (0, 5, 11):
            assert predict(m, d.x[i]) == pytest.approx(d.y[i], abs=1e-6)

    def test_midpoint_symmetry(self):
        d = Dataset(np.array([[0.0], [2.0]]), [0.0, 2.0])
        m = fit_kernel(d)
        assert predict(m, [1.0]) == pytest.approx(1.0)

    def test_direct_formula_oracle_1d(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(10, 1))
        y = rng.normal(size=10)
        d = Dataset(x, y)
        m = fit_kernel(d)
        # independent recomputation: standardize, median-distance bandwidth,
        # plain (unstabilized) weighted average
        z = (x - x.mean()) / x.std(ddof=1)
        dists = [abs(z[i, 0] - z[j, 0]) for i in range(10) for j in range(i + 1, 10)]
        h = np.median(dists)
        assert m.bandwidth == pytest.approx(h, rel=1e-12)
        for x0 in (-0.5, 0.3, 1.7):
            z0 = (x0 - x.mean()) / x.std(ddof=1)
            k = np.exp(-((z0 - z[:, 0]) ** 2) / (2 * h**2))
            np.testing.assert_allclose(predict(m, [x0]), k @ y / k.sum(), rtol=1e-10)

    def test_predictions_are_convex_combinations(self):
        rng = np.random.default_rng(15)
        d = make_dataset(rng, 30, 3)
        m = fit_kernel(d)
        preds = predict_many(m, rng.normal(size=(50, 3)))
        assert preds.min() >= d.y.min() - 1e-12
        assert preds.max() <= d.y.max() + 1e-12

    def test_duplicate_rows_floor_bandwidth(self):
        x = np.repeat([[1.0, 2.0]], 6, axis=0)
        x[3:] += 1.0
        m = fit_kernel(Dataset(x, np.arange(6.0)))
        assert m.bandwidth >= 1e-6
        assert np.isfinite(predict(m, [1.0, 2.0]))

    def test_all_duplicate_design_floors_bandwidth(self):
        x = np.repeat([[1.0, 2.0]], 40, axis=0)
        assert _median_bandwidth(np.zeros((40, 2))) == regress.KERNEL_MIN_BANDWIDTH
        assert fit_kernel(Dataset(x, np.arange(40.0))).bandwidth == regress.KERNEL_MIN_BANDWIDTH

    def test_one_row_refused(self):
        with pytest.raises(DataError, match="kernel fit needs n >= 2, got n=1"):
            fit_kernel(Dataset([[0.5, 1.0]], [2.0]))

    @pytest.mark.parametrize("p", range(1, 8))
    def test_sq_dists_bit_equal_to_difference_cube_below_8_columns(self, p):
        # numpy sums an axis shorter than 8 left to right, as _sq_dists does
        rng = np.random.default_rng(p)
        a, b = rng.normal(size=(37, p)), rng.normal(size=(23, p))
        np.testing.assert_array_equal(_sq_dists(a, b), ((a[:, None] - b[None]) ** 2).sum(-1))

    @pytest.mark.parametrize("p", [8, 12])
    def test_sq_dists_near_difference_cube_from_8_columns(self, p):
        # from 8 columns numpy sums pairwise, a different order of additions
        rng = np.random.default_rng(p)
        a, b = rng.normal(size=(37, p)), rng.normal(size=(23, p))
        ref = ((a[:, None] - b[None]) ** 2).sum(-1)
        np.testing.assert_allclose(_sq_dists(a, b), ref, rtol=1e-12, atol=0)

    # pair counts n(n-1)/2: 1 (n=2), odd (n=3, 70, 514, 1002), even (n=4, 65,
    # 513, 1000); from n=65 on the triangle spans several row blocks and ends
    # on a partial one, and the bracket's ends are interior order statistics
    # of the sample. At n=513 to 1002 the bracket keeps about 6/N^(1/3) of
    # the N pairs, 12% to 8%. On an integer lattice many distances tie with
    # the middle ones and with the bracket's ends.
    @pytest.mark.parametrize(
        "n, lattice",
        [(n, False) for n in _MEDIAN_SIZES] + [(n, True) for n in _MEDIAN_SIZES[3:]],
        ids=[str(n) for n in _MEDIAN_SIZES] + [f"lattice-{n}" for n in _MEDIAN_SIZES[3:]],
    )
    def test_median_bandwidth_equals_upper_triangle_median(self, n, lattice):
        rng = np.random.default_rng(n)
        z = rng.integers(-2, 3, size=(n, 3)).astype(float) if lattice else rng.normal(size=(n, 3))
        d2 = ((z[:, None] - z[None]) ** 2).sum(-1)
        assert _median_bandwidth(z) == np.sqrt(np.median(d2[np.triu_indices(n, 1)]))

    @pytest.mark.parametrize("n", [2047, 2048, 2049, 3000])
    def test_triangle_blocks_keep_to_the_entry_budget(self, monkeypatch, n):
        # 32 rows a block up to n = 2 048, fewer from there on, so that no
        # block holds more than _SMOOTH_ENTRIES distances
        shapes = []

        def recording(a, b):
            shapes.append((a.shape[0], b.shape[0]))
            return _sq_dists(a, b)

        monkeypatch.setattr(regress, "_sq_dists", recording)
        regress._triangle_between(np.random.default_rng(n).normal(size=(n, 2)), 1.0, 2.0)
        assert {rows for rows, _ in shapes[:-1]} == {min(32, regress._SMOOTH_ENTRIES // n)}
        assert max(rows * cols for rows, cols in shapes) <= regress._SMOOTH_ENTRIES

    @pytest.mark.parametrize("n", _MEDIAN_SIZES[3:])
    def test_median_bandwidth_does_not_depend_on_the_triangle_blocks(self, monkeypatch, n):
        # blocks of 5 rows at n = 65 and 70, and of 1 row from n = 513 on
        z = np.random.default_rng(n).integers(-2, 3, size=(n, 3)).astype(float)
        whole = _median_bandwidth(z)
        monkeypatch.setattr(regress, "_SMOOTH_ENTRIES", 5 * 70)
        assert _median_bandwidth(z) == whole

    def test_median_bandwidth_exact_when_the_bracket_misses(self, monkeypatch):
        # two sampled pairs bracket the median only by chance: each side of
        # the bracket must miss on some design, open and be streamed again
        passes = []
        stream = regress._triangle_between

        def recording(z, lo, hi):
            passes.append((lo, hi))
            return stream(z, lo, hi)

        monkeypatch.setattr(regress, "_median_sample_size", lambda pairs: min(pairs, 2))
        monkeypatch.setattr(regress, "_triangle_between", recording)
        rng = np.random.default_rng(18)
        opened = set()
        for n in range(2, 80, 3):
            for z in (rng.normal(size=(n, 2)), rng.integers(-1, 2, size=(n, 2)).astype(float)):
                passes.clear()
                d2 = ((z[:, None] - z[None]) ** 2).sum(-1)
                assert _median_bandwidth(z) == max(
                    np.sqrt(np.median(d2[np.triu_indices(n, 1)])), regress.KERNEL_MIN_BANDWIDTH
                )
                # a miss opens only the side that missed, and one more pass ends it
                assert len(passes) <= 2
                if len(passes) == 2:
                    (lo, hi), again = passes
                    assert again in ((-np.inf, hi), (lo, np.inf))
                    opened.add("low" if again[0] == -np.inf else "high")
        assert opened == {"low", "high"}

    @pytest.mark.parametrize("bandwidth", [1e-170, 1e-140, 1e-6, 0.3, 1.0, 1e3, 1e150])
    def test_shifted_gaussian_bit_equal_to_negate_then_divide(self, bandwidth):
        # reference: negate, then divide by 2h^2; the entries at +inf stand
        # for a smoother's dropped self-weights
        rng = np.random.default_rng(19)
        d2 = _sq_dists(rng.normal(size=(40, 3)), rng.normal(size=(70, 3))) * rng.choice(
            [1e-3, 1.0, 1e3], size=(40, 70)
        )
        d2[np.arange(40), np.arange(40)] = np.inf
        # at h = 1e-170, 2h^2 rounds to 0: a row's minimum gives 0/0
        with np.errstate(divide="ignore", invalid="ignore"):
            ref = d2 - d2.min(axis=1, keepdims=True)
            np.negative(ref, out=ref)
            ref /= 2.0 * bandwidth**2
            np.exp(ref, out=ref)
            w = _shifted_gaussian(d2.copy(), bandwidth)
        np.testing.assert_array_equal(w.view(np.uint64), ref.view(np.uint64))

    # the unblocked formulas, with one n x n weight matrix; every row of the
    # blocked smoother must equal them bit for bit, on either side of a block
    # boundary and where a one-row tail joins the block before it (2B + 1)
    @staticmethod
    def dense_loo_residuals(m, y):
        d2 = _sq_dists(m.train_z, m.train_z)
        np.fill_diagonal(d2, np.inf)
        w = _shifted_gaussian(d2, m.bandwidth)
        return y - (w @ y) / w.sum(axis=1)

    @staticmethod
    def dense_candidate_residuals(x_aug, y, candidates):
        n = len(y)
        z = _standardize_columns(x_aug)[0]
        w = _shifted_gaussian(_sq_dists(z, z), _median_bandwidth(z))
        w /= w.sum(axis=1, keepdims=True)
        y_pad = np.append(y, 0.0)
        b = -w[:, n]
        b[n] += 1.0
        return np.abs((y_pad - w @ y_pad)[:, None] + b[:, None] * candidates[None, :])

    # n is the number of rows of the smoother's weight matrix, and its width
    @pytest.mark.parametrize("p", [2, 5])
    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 1])
    def test_blocked_loo_residuals_equal_dense(self, block_rows, n, p):
        d = make_dataset(np.random.default_rng(n + p), n, p)
        m = fit_kernel(d)
        block_rows(B, n)
        np.testing.assert_array_equal(loo_residuals(d.x, d.y, m), self.dense_loo_residuals(m, d.y))

    @pytest.mark.parametrize("p", [2, 5])
    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 1])
    def test_blocked_candidate_residuals_equal_dense(self, block_rows, n, p):
        d = make_dataset(np.random.default_rng(n + p), n, p)
        y, candidates = d.y[:-1], np.linspace(-4.0, 4.0, 9)
        block_rows(B, n)
        np.testing.assert_array_equal(
            stacked_candidate_residuals(d.x, y, candidates, fit_kernel(Dataset(d.x[:-1], y))),
            self.dense_candidate_residuals(d.x, y, candidates),
        )

    @pytest.mark.parametrize("p", [2, 5])
    @pytest.mark.parametrize("rows", [1, B - 1, B, B + 1, 2 * B + 1])
    def test_blocked_predict_many_equals_dense(self, block_rows, rows, p):
        rng = np.random.default_rng(rows + p)
        m = fit_kernel(make_dataset(rng, 300, p))
        x_new = rng.normal(size=(rows, p))
        block_rows(B, 300)
        np.testing.assert_array_equal(predict_many(m, x_new), kernel_weights(m, x_new) @ m.train_y)

    # the fewest rows a block takes, as every n above _SMOOTH_ENTRIES / 8
    # does: on a block boundary (8), a joined one-row tail (9, 257) and a
    # short last block (7, 255)
    @pytest.mark.parametrize("p", [2, 5])
    @pytest.mark.parametrize("n", [7, 8, 9, 255, 257])
    def test_four_row_blocks_equal_dense(self, block_rows, n, p):
        rng = np.random.default_rng(n + p)
        d = make_dataset(rng, n, p)
        m = fit_kernel(d)
        y, candidates = d.y[:-1], np.linspace(-4.0, 4.0, 9)
        x_new = rng.normal(size=(n, p))
        block_rows(4, n)
        np.testing.assert_array_equal(loo_residuals(d.x, d.y, m), self.dense_loo_residuals(m, d.y))
        np.testing.assert_array_equal(
            stacked_candidate_residuals(d.x, y, candidates, fit_kernel(Dataset(d.x[:-1], y))),
            self.dense_candidate_residuals(d.x, y, candidates),
        )
        np.testing.assert_array_equal(predict_many(m, x_new), kernel_weights(m, x_new) @ m.train_y)

    def test_row_blocks_cover_the_rows_within_the_entry_budget(self):
        rng = np.random.default_rng(20)
        for width in range(1, 20_001):
            budget = max(4 * width, regress._SMOOTH_ENTRIES)
            most = 3 * budget // width + 2  # three blocks and a one-row tail
            for n in [1, 2, 5, 9, *rng.integers(1, most, size=3, endpoint=True)]:
                blocks = regress._row_blocks(n, width)
                assert blocks[0].start == 0 and blocks[-1].stop == n
                assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
                assert n == 1 or blocks[-1].stop - blocks[-1].start > 1
                for block in blocks[:-1]:
                    rows = block.stop - block.start
                    assert rows >= 4 and rows % 4 == 0 and rows * width <= budget

    def test_fit_kernel_memory_stays_below_a_quarter_triangle(self):
        # the median bandwidth keeps one block of the triangle and the
        # distances inside its bracket, never the n(n-1)/2 pair vector, no
        # (n, n, p) difference cube, no triu_indices pair and no n x n matrix
        n = 2000
        d = Dataset(np.random.default_rng(16).normal(size=(n, 2)), np.zeros(n))
        tracemalloc.start()
        try:
            fit_kernel(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * (n * (n - 1) // 2) * 8

    # the smoother holds one block of weights at a time, never an n x n
    # matrix (32 MB here, and a second one inside the distance sum), and
    # full conformal's bandwidth no n(n-1)/2 pair vector
    @pytest.mark.parametrize("smoother", ["loo_residuals", "candidate_residuals", "predict_many"])
    def test_smoother_memory_stays_below_one_triangle(self, smoother):
        n = 2000
        rng = np.random.default_rng(17)
        x, y = rng.normal(size=(n, 2)), rng.normal(size=n)
        m = fit_kernel(Dataset(x, y))
        calls = {
            "loo_residuals": lambda: loo_residuals(x, y, m),
            "candidate_residuals": lambda: deque(
                candidate_residuals(x, y[:-1], np.linspace(-3.0, 3.0, 100), m), maxlen=0
            ),
            "predict_many": lambda: predict_many(m, x),
        }
        tracemalloc.start()
        try:
            calls[smoother]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (n * (n - 1) // 2) * 8

    # a block holds at most _SMOOTH_ENTRIES weights at this n: 256-row
    # blocks peaked at 58.7 and 39.2 MB here, two (256 x n) buffers
    @pytest.mark.parametrize("smoother", ["loo_residuals", "predict_many"])
    def test_smoother_memory_does_not_grow_with_n(self, smoother):
        n = 10_000
        rng = np.random.default_rng(21)
        x, y = rng.normal(size=(n, 2)), rng.normal(size=n)
        m = fit_kernel(Dataset(x, y))
        calls = {
            "loo_residuals": lambda: loo_residuals(x, y, m),
            "predict_many": lambda: predict_many(m, x),
        }
        tracemalloc.start()
        try:
            calls[smoother]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


# full conformal forms its refits one block of at most _SMOOTH_ENTRIES
# residuals at a time and ranks each block before the next; holding the
# (n+1) x G head and residual matrices instead takes about 53 MB at
# n = 20 000 (16 MB each) and 5.5 MB for the kernel at n = 3 000
@pytest.mark.parametrize(
    "reg, n, p, bound",
    [("ols", 20_000, 30, 25e6), ("lasso", 20_000, 30, 25e6), ("kernel", 3000, 2, 4.5e6)],
)
def test_full_conformal_memory_holds_no_candidate_matrix(reg, n, p, bound):
    rng = np.random.default_rng(22)
    d = make_dataset(rng, n, p)
    x0 = rng.normal(size=p)
    base = fit_lasso(d, lam=0.05) if reg == "lasso" else fit(d, reg)
    spec = ConformalSpec(method="full")
    tracemalloc.start()
    try:
        iv = full_conformal(d, base, x0, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert iv.lo < iv.point < iv.up
    assert peak < bound


# kernel leave-one-out, full-conformal candidates at one query row and
# forecasts at n = 3 000, written as raw bytes
_THREAD_PROBE = """
import sys
import numpy as np
from relconf.core import Dataset
from relconf.regress import candidate_residuals, fit_kernel, loo_residuals, predict_many
rng = np.random.default_rng(30002)
x, y = rng.normal(size=(3000, 2)), rng.normal(size=3000)
x_aug = np.vstack([x, rng.normal(size=(1, 2))])
m = fit_kernel(Dataset(x, y))
out = [
    loo_residuals(x, y, m),
    *(resid for _, resid in candidate_residuals(x_aug, y, np.linspace(-3.0, 3.0, 20), m)),
    predict_many(m, x),
]
sys.stdout.buffer.write(b"".join(a.tobytes() for a in out))
"""

# full-conformal residuals of 100 candidates on [-3, 3] at one query row for
# OLS or for LASSO at a fixed penalty, at n rows of p features, written as
# raw bytes: python -c _LINEAR_THREAD_PROBE ols|lasso n p
_LINEAR_THREAD_PROBE = """
import sys
import numpy as np
from relconf.core import Dataset
from relconf.regress import candidate_residuals, fit_lasso, fit_ols
reg, n, p = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
rng = np.random.default_rng(n + p)
x, y = rng.normal(size=(n, p)), rng.normal(size=n)
x_aug = np.vstack([x, rng.normal(size=(1, p))])
m = fit_ols(Dataset(x, y)) if reg == "ols" else fit_lasso(Dataset(x, y), lam=0.01)
assert reg == "ols" or 0 < np.count_nonzero(m.coefficients) < p
for _, resid in candidate_residuals(x_aug, y, np.linspace(-3.0, 3.0, 100), m):
    sys.stdout.buffer.write(resid.tobytes())
"""


def _output_at_1_and_2_blas_threads(probe, *args):
    """What ``python -c probe *args`` writes at 1 and at 2 BLAS threads."""
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[name] = threads
        proc = subprocess.run(
            [sys.executable, "-c", probe, *args], capture_output=True, env=env, check=True
        )
        outputs.append(proc.stdout)
    return outputs


def test_kernel_smoother_bits_do_not_depend_on_blas_threads():
    # OpenBLAS 0.3.31 splits a matrix-vector product of more than about
    # 460 000 entries between its threads, and a split inside a group of 4
    # rows moves the last bit: 256-row blocks at n = 3 000 crossed that
    # size, blocks of _SMOOTH_ENTRIES weights stay below it
    outputs = _output_at_1_and_2_blas_threads(_THREAD_PROBE)
    assert len(outputs[0]) == 8 * (3000 + 3001 * 20 + 3000)
    assert outputs[0] == outputs[1]


# OpenBLAS 0.3.31 splits between its threads lstsq's solve for 100 heads at
# n = 10 000 and the cross-products xs'Y of 100 heads at n = 3 000, p = 12,
# which moves last bits; a block of at most _SMOOTH_ENTRIES residuals (4 and
# 20 candidates here) is not split. At n = 20 000, p = 30 the factorization
# of the design itself is split, so that size is left out.
@pytest.mark.parametrize("reg, n, p", [("ols", 10_000, 5), ("lasso", 3000, 12)])
def test_full_conformal_bits_do_not_depend_on_blas_threads(reg, n, p):
    outputs = _output_at_1_and_2_blas_threads(_LINEAR_THREAD_PROBE, reg, str(n), str(p))
    assert len(outputs[0]) == 8 * (n + 1) * 100
    assert outputs[0] == outputs[1]


class TestPredict:
    def test_linear_evaluation(self):
        m = FittedModel(
            kind=Regressor.OLS, intercept=1.0, coefficients=np.array([2.0, 3.0])
        )
        assert predict(m, [1.0, 1.0]) == pytest.approx(6.0)

    def test_lasso_prediction_is_affine(self):
        rng = np.random.default_rng(16)
        d = make_dataset(rng, 25, 3)
        m = fit_lasso(d, lam=0.1)
        x0 = rng.normal(size=3)
        assert predict(m, x0) == pytest.approx(m.intercept + m.coefficients @ x0)

    def test_dimension_mismatch(self):
        m = FittedModel(kind=Regressor.OLS, intercept=0.0, coefficients=np.ones(2))
        with pytest.raises(DataError, match="features"):
            predict(m, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("x_new", [[[0.1]], [[0.1, 0.2, 0.3]]], ids=["short", "long"])
    def test_kernel_weights_refuse_wrong_length(self, x_new):
        m = fit_kernel(make_dataset(np.random.default_rng(18), 50, 2))
        message = f"query has {len(x_new[0])} features, model expects 2"
        with pytest.raises(DataError, match=message):
            kernel_weights(m, x_new)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("kind", ["ols", "lasso", "kernel"])
    def test_predictors_refuse_a_non_finite_tail(self, kind, bad):
        # Query's rule: a NaN or infinite entry is refused, not forecast as NaN
        m = fit(make_dataset(np.random.default_rng(19), 30, 2), kind, seed=0)
        calls = [lambda: predict(m, [0.3, bad]), lambda: predict_many(m, [[0.1, 0.2], [bad, 0.1]])]
        if kind == "kernel":
            calls.append(lambda: kernel_weights(m, [[-bad, 0.1]]))
        for call in calls:
            with pytest.raises(DataError, match="non-finite entry in query tail"):
                call()

    def test_dispatcher_covers_all_engines(self):
        rng = np.random.default_rng(17)
        d = make_dataset(rng, 30, 2)
        for kind in ("ols", "lasso", "kernel"):
            m = fit(d, kind, seed=1)
            assert m.kind is Regressor(kind)
            assert np.all(np.isfinite(predict_many(m, d.x)))
