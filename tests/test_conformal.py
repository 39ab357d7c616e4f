"""Interval constructors against hand ranks and brute-force refit oracles."""

import math
import re
from dataclasses import fields

import numpy as np
import pytest

from relconf.core import (
    ConfigError,
    DataError,
    Dataset,
    ExperimentConfig,
    PredictionInterval,
    Regressor,
)
from relconf.conformal import (
    ConformalSpec,
    ceil_guarded,
    conformal_interval,
    loo_quantile,
    split_quantile,
)
from relconf import conformal, oracles, regress
from relconf.regress import (
    FittedModel,
    fit,
    fit_kernel,
    fit_lasso,
    fit_ols,
    loo_residuals,
    predict,
    predict_many,
)


def make_dataset(rng, n, p, noise=1.0):
    x = rng.normal(size=(n, p))
    y = 1.0 + x @ rng.normal(size=p) + noise * rng.normal(size=n)
    return Dataset(x, y)


def brute_force_full_ols(d, x0, alpha, grid):
    """Independent full-conformal membership check: explicit normal-equations
    refit per candidate, rank rule restated from its definition."""
    n = d.n
    k = math.ceil((n + 1) * (1.0 - alpha) - 1e-9)
    x_aug = np.vstack([d.x, x0])
    a = np.column_stack([np.ones(n + 1), x_aug])
    out = []
    for t in grid:
        y_aug = np.append(d.y, t)
        beta = np.linalg.solve(a.T @ a, a.T @ y_aug)
        r = np.abs(y_aug - a @ beta)
        out.append(1 + int((r[:n] < r[n]).sum()) <= k)
    return np.array(out)


class TestQuantileRules:
    def test_split_hand_example(self):
        # 9 calibration residuals at alpha=0.1: k = ceil(10*0.9) = 9
        assert split_quantile(np.arange(1.0, 10.0), 0.1) == 9.0

    def test_loo_hand_example(self):
        # 10 residuals at alpha=0.2: k = ceil(8) = 8
        assert loo_quantile(np.arange(1.0, 11.0), 0.2) == 8.0

    def test_rank_clamps_to_sample_size(self):
        assert split_quantile(np.array([3.0, 1.0, 2.0]), 0.01) == 3.0

    def test_ceiling_guard_absorbs_float_dust(self):
        # 10 * 0.9 floats to 9.000000000000002; the guard keeps k = 9
        assert ceil_guarded(10 * 0.9) == 9
        assert ceil_guarded(9.0) == 9
        assert ceil_guarded(9.1) == 10


class TestSplit:
    SPEC = ConformalSpec(method="split", alpha=0.1)

    def test_perfect_fit_collapses(self):
        x = np.linspace(0, 1, 13)[:, None]
        d = Dataset(x, 2.0 * x.ravel())
        iv = conformal_interval(d, "ols", [0.4], self.SPEC, seed=5)
        assert iv.lo == pytest.approx(iv.up, abs=1e-10)
        assert iv.point == pytest.approx(0.8, abs=1e-10)

    def test_interval_is_centered(self):
        d = make_dataset(np.random.default_rng(0), 40, 2)
        iv = conformal_interval(d, "ols", [0.1, 0.2], self.SPEC, seed=1)
        assert iv.lo <= iv.point <= iv.up
        assert iv.up - iv.point == pytest.approx(iv.point - iv.lo)

    def test_monotone_in_alpha(self):
        d = make_dataset(np.random.default_rng(1), 60, 2)
        widths = []
        for alpha in (0.05, 0.1, 0.2, 0.5):
            spec = ConformalSpec(method="split", alpha=alpha)
            widths.append(conformal_interval(d, "ols", [0.0, 0.0], spec, seed=7).length)
        assert all(a >= b for a, b in zip(widths, widths[1:]))

    def test_translation_equivariance_ols(self):
        d = make_dataset(np.random.default_rng(2), 50, 2)
        shifted = Dataset(d.x, d.y + 10.0)
        a = conformal_interval(d, "ols", [0.3, -0.2], self.SPEC, seed=3)
        b = conformal_interval(shifted, "ols", [0.3, -0.2], self.SPEC, seed=3)
        assert b.lo == pytest.approx(a.lo + 10.0, abs=1e-9)
        assert b.up == pytest.approx(a.up + 10.0, abs=1e-9)
        assert b.length == pytest.approx(a.length, abs=1e-9)

    def test_seed_determinism(self):
        d = make_dataset(np.random.default_rng(3), 30, 2)
        a = conformal_interval(d, "ols", [0.0, 0.0], self.SPEC, seed=11)
        b = conformal_interval(d, "ols", [0.0, 0.0], self.SPEC, seed=11)
        assert (a.lo, a.point, a.up) == (b.lo, b.point, b.up)

    def test_memoised_order_is_the_seeded_permutation(self):
        # a memo hit returns the same draw as a fresh generator, read-only,
        # and the interval is the one fitted on that draw's first half
        d = make_dataset(np.random.default_rng(3), 30, 2)
        perm = np.random.default_rng(11).permutation(30)
        model = fit_ols(d.subset(perm[:15]))
        dstar = split_quantile(np.abs(d.y[perm[15:]] - predict_many(model, d.x[perm[15:]])), 0.1)
        conformal._split_order.cache_clear()
        for _ in range(2):
            order = conformal._split_order(11, 30)
            np.testing.assert_array_equal(order, perm)
            assert not order.flags.writeable
            iv = conformal_interval(d, "ols", [0.0, 0.0], self.SPEC, seed=11)
            assert (iv.lo, iv.point, iv.up) == (
                predict(model, [0.0, 0.0]) - dstar,
                predict(model, [0.0, 0.0]),
                predict(model, [0.0, 0.0]) + dstar,
            )
        assert conformal._split_order.cache_info().hits == 3

    def test_too_small_to_partition(self):
        d = make_dataset(np.random.default_rng(4), 3, 1)
        with pytest.raises(DataError, match="split"):
            conformal_interval(d, "ols", [0.0], self.SPEC, seed=0)

    def test_lasso_split_needs_rows_for_cross_validation(self):
        # 8 rows at rho 0.5 fit on 4, fewer than LASSO's 5 CV folds: split
        # with LASSO needs 10 rows, by ``conformal._min_rows``
        d = make_dataset(np.random.default_rng(4), 8, 1)
        with pytest.raises(DataError, match="split conformal with lasso needs n >= 10, got n=8"):
            conformal_interval(d, "lasso", [0.0], self.SPEC, seed=0)
        assert np.isfinite(conformal_interval(d, "ols", [0.0], self.SPEC, seed=0).length)

    def test_all_engines_produce_finite_intervals(self):
        d = make_dataset(np.random.default_rng(5), 40, 2)
        for reg in ("ols", "lasso", "kernel"):
            iv = conformal_interval(d, reg, [0.1, 0.1], self.SPEC, seed=2)
            assert np.isfinite([iv.lo, iv.point, iv.up]).all()


class TestFull:
    def test_matches_brute_force_on_random_datasets(self):
        spec = ConformalSpec(method="full", alpha=0.1, grid_points=20)
        for trial in range(5):
            rng = np.random.default_rng(200 + trial)
            n = int(rng.integers(5, 16))
            p = int(rng.integers(1, 3))
            d = make_dataset(rng, n, p)
            x0 = rng.normal(size=p)
            grid, accepted, _ = conformal._full_accepted(d, fit_ols(d), x0, spec)
            oracle = brute_force_full_ols(d, x0, spec.alpha, grid)
            np.testing.assert_array_equal(accepted, oracle)

    @pytest.mark.parametrize("reg", ["ols", "lasso", "kernel"])
    def test_candidate_blocks_accept_what_one_block_does(self, monkeypatch, reg):
        # ranked one block of 4 candidates at a time, against each block's
        # own query row, the grid keeps what one block of all 30 keeps
        d = make_dataset(np.random.default_rng(9), 40, 3)
        spec = ConformalSpec(method="full", alpha=0.2, grid_points=30)
        base = fit(d, reg, seed=0)
        x0 = np.array([0.1, 0.2, 0.3])
        whole = conformal._full_accepted(d, base, x0, spec)[1]
        monkeypatch.setattr(regress, "_SMOOTH_ENTRIES", 1)
        blocked = conformal._full_accepted(d, base, x0, spec)[1]
        assert whole.any() and not whole.all()
        np.testing.assert_array_equal(blocked, whole)

    def test_brute_force_oracle_reports_a_grid_mismatch(self, monkeypatch):
        pinned = conformal._candidate_grid
        monkeypatch.setattr(conformal, "_candidate_grid", lambda y, spec: pinned(y, spec) + 1.0)
        assert oracles.full_conformal_brute_force() == (
            False, "dataset 0: candidate grid differs from the pinned formula"
        )

    def test_exact_linear_interval_contains_truth(self):
        # noiseless data makes any off-line candidate the unique worst
        # residual, so acceptance needs either a grid point exactly on the
        # line or alpha small enough that the rank threshold reaches n+1
        x = np.linspace(0.0, 2.0, 12)[:, None]
        d = Dataset(x, 2.0 * x.ravel())
        on_grid = ConformalSpec(method="full", alpha=0.2, grid_points=13)
        iv = conformal_interval(d, "ols", [0.75], on_grid)  # grid step 0.5 hits 1.5
        assert not iv.degenerate
        assert iv.lo <= 1.5 <= iv.up
        tiny_alpha = ConformalSpec(method="full", alpha=0.05, grid_points=13)
        iv = conformal_interval(d, "ols", [0.75], tiny_alpha)  # k = n+1: accept all
        assert (iv.lo, iv.up) == (-1.0, 5.0)

    def test_nested_in_alpha(self):
        d = make_dataset(np.random.default_rng(6), 20, 2)
        tight = conformal_interval(d, "ols", [0.1, 0.1], ConformalSpec("full", alpha=0.5))
        wide = conformal_interval(d, "ols", [0.1, 0.1], ConformalSpec("full", alpha=0.1))
        assert wide.lo <= tight.lo and tight.up <= wide.up

    def test_empty_acceptance_flags_degenerate(self):
        # two points on y=x and a query at their midpoint: the augmented
        # residual vector is proportional to (1,1,-2), so the trial rank
        # is 3 unless the candidate equals 0.5 exactly - which the
        # 20-point grid over [-0.25, 1.25] never hits
        d = Dataset(np.array([[0.0], [1.0]]), [0.0, 1.0])
        spec = ConformalSpec(method="full", alpha=0.9, grid_points=20)
        iv = conformal_interval(d, "ols", [0.5], spec)
        assert iv.degenerate
        assert iv.lo == iv.up == iv.point == pytest.approx(0.5)

    def test_kernel_shortcut_matches_literal_refits(self):
        # the second query is isolated: its unshifted Gaussian weights to
        # every other row underflow to 0
        rng = np.random.default_rng(7)
        d = make_dataset(rng, 8, 2)
        spec = ConformalSpec(method="full", alpha=0.2, grid_points=15)
        k = math.ceil((d.n + 1) * (1 - spec.alpha) - 1e-9)
        for x0 in (rng.normal(size=2), np.array([1e3, -1e3])):
            grid, accepted, _ = conformal._full_accepted(d, fit_kernel(d), x0, spec)
            x_aug = np.vstack([d.x, x0])
            oracle = []
            for t in grid:
                y_aug = np.append(d.y, t)
                m = fit_kernel(Dataset(x_aug, y_aug))
                r = np.abs(y_aug - predict_many(m, x_aug))
                oracle.append(1 + int((r[: d.n] < r[d.n]).sum()) <= k)
            np.testing.assert_array_equal(accepted, np.array(oracle))

    def test_lasso_penalty_reused_from_base_fit(self):
        # every candidate refit uses the cross-validated penalty of the
        # base fit on the original rows, and the batched refits give the
        # literal refits' acceptance mask exactly
        for p in (3, 12):
            rng = np.random.default_rng(8)
            d = make_dataset(rng, 25, p)
            x0 = np.zeros(p)
            spec = ConformalSpec(method="full", alpha=0.2, grid_points=12)
            base = fit_lasso(d, seed=0)
            grid, accepted, _ = conformal._full_accepted(d, base, x0, spec)
            lam = base.lam
            k = math.ceil((d.n + 1) * (1 - spec.alpha) - 1e-9)
            x_aug = np.vstack([d.x, x0])
            oracle = []
            for t in grid:
                y_aug = np.append(d.y, t)
                m = fit_lasso(Dataset(x_aug, y_aug), lam=lam)
                r = np.abs(y_aug - predict_many(m, x_aug))
                oracle.append(1 + int((r[: d.n] < r[d.n]).sum()) <= k)
            assert accepted.any() and not accepted.all()
            np.testing.assert_array_equal(accepted, np.array(oracle))


class TestJackknife:
    SPEC = ConformalSpec(method="jackknife", alpha=0.1)

    def test_press_matches_naive_refits(self):
        for trial in range(5):
            rng = np.random.default_rng(300 + trial)
            n = int(rng.integers(8, 31))
            d = make_dataset(rng, n, 2)
            loo = loo_residuals(d.x, d.y, fit_ols(d))
            naive = np.empty(n)
            for i in range(n):
                rest = np.delete(np.arange(n), i)
                m = fit_ols(d.subset(rest))
                naive[i] = d.y[i] - predict(m, d.x[i])
            np.testing.assert_allclose(loo, naive, atol=1e-8)

    @pytest.mark.parametrize("p", [1, 3])
    def test_full_rank_design_with_unit_leverage_equals_refits(self, p):
        # n = p + 1 rows: the design is square and full rank, every leverage
        # is 1, so the leverage shortcut would divide by zero: each row is refit
        d = make_dataset(np.random.default_rng(320 + p), p + 1, p)
        loo = loo_residuals(d.x, d.y, fit_ols(d))
        naive = [
            d.y[i] - predict(fit_ols(d.subset(np.delete(np.arange(d.n), i))), d.x[i])
            for i in range(d.n)
        ]
        np.testing.assert_allclose(loo, naive, rtol=0, atol=1e-8)

    def test_exact_linear_collapses(self):
        x = np.linspace(0, 1, 10)[:, None]
        d = Dataset(x, 3.0 * x.ravel() + 1.0)
        iv = conformal_interval(d, "ols", [0.5], self.SPEC)
        assert iv.length == pytest.approx(0.0, abs=1e-8)
        assert iv.point == pytest.approx(2.5, abs=1e-8)

    @staticmethod
    def assert_lasso_loo_equals_refits(d, lam):
        loo = loo_residuals(d.x, d.y, fit_lasso(d, lam=lam))
        for i in range(d.n):
            m = fit_lasso(d.subset(np.delete(np.arange(d.n), i)), lam=lam)
            assert loo[i] == pytest.approx(d.y[i] - predict(m, d.x[i]), rel=0, abs=1e-12)

    def test_lasso_loo_equals_per_row_refits(self):
        for p in (2, 12):
            d = make_dataset(np.random.default_rng(9), 20, p)
            self.assert_lasso_loo_equals_refits(d, lam=0.08)

    @pytest.mark.parametrize("case", ["outlier_row", "column_constant_without_one_row"])
    def test_lasso_loo_stress_cases_equal_per_row_refits(self, case):
        rng = np.random.default_rng(9)
        d = make_dataset(rng, 20, 12)
        x, y = d.x.copy(), d.y
        if case == "outlier_row":
            # Column 1 carries a strong effect, and row 4 then moves so far
            # out in it that it holds all but 1e-8 of the column's centred
            # sum of squares: downdating by row 4 cancels. Its residual, an
            # extrapolation, is of order 1e5.
            y = y + 2.0 * x[:, 1]
            x[4, 1] = 1e5
            c = x[:, 1] - x[:, 1].mean()
            rest = np.delete(x[:, 1], 4) - np.delete(x[:, 1], 4).mean()
            assert c @ c >= 1e8 * (rest @ rest)
        else:
            x[:, 1] = 0.0
            x[11, 1] = 1.5
        self.assert_lasso_loo_equals_refits(Dataset(x, y), lam=0.08)

    def test_lasso_loo_column_constant_at_rounding_level(self):
        # Column 1 differs from 0.1 by one ulp in row 11 only, too little
        # for the cancellation guard to notice. Its spread is below the
        # rounding error of its mean, so every fit, with or without row
        # 11, must leave it out; a column standardized from rounding noise
        # would differ between the batch and the refits.
        rng = np.random.default_rng(9)
        d = make_dataset(rng, 20, 2)
        x = d.x.copy()
        x[:, 1] = 0.1
        x[11, 1] = np.nextafter(0.1, 1.0)
        d = Dataset(x, d.y)
        assert fit_lasso(d, lam=0.01).coefficients[1] == 0.0
        m = fit_lasso(d.subset(np.delete(np.arange(d.n), 11)), lam=0.01)
        assert m.coefficients[1] == 0.0
        self.assert_lasso_loo_equals_refits(d, lam=0.01)

    def test_kernel_loo_against_explicit_loop(self):
        # in the second dataset row 5 is isolated: its unshifted Gaussian
        # weights to every other row underflow to 0, so the loop subtracts
        # the smallest squared distance before exponentiating
        near = make_dataset(np.random.default_rng(10), 12, 2)
        x = near.x.copy()
        x[5] = [1e3, -1e3]
        for d in (near, Dataset(x, near.y)):
            km = fit_kernel(d)
            loo = loo_residuals(d.x, d.y, km)
            z = km.train_z
            for i in range(d.n):
                d2 = np.delete(((z[i] - z) ** 2).sum(axis=1), i)
                w = np.exp(-(d2 - d2.min()) / (2 * km.bandwidth**2))
                expected = d.y[i] - w @ np.delete(d.y, i) / w.sum()
                assert loo[i] == pytest.approx(expected, rel=1e-9)
        d2 = np.delete(((z[5] - z) ** 2).sum(axis=1), 5)
        assert np.all(np.exp(-d2 / (2 * km.bandwidth**2)) == 0.0)  # isolated

    def test_rank_deficient_design_falls_back(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 2))
        x = np.column_stack([x, x[:, 0] + x[:, 1]])  # exactly collinear
        d = Dataset(x, rng.normal(size=6))
        loo = loo_residuals(d.x, d.y, fit_ols(d))
        assert np.all(np.isfinite(loo))
        for i in (0, 3):
            rest = np.delete(np.arange(6), i)
            m = fit_ols(d.subset(rest))
            assert loo[i] == pytest.approx(d.y[i] - predict(m, d.x[i]), abs=1e-8)

    def test_monotone_in_alpha(self):
        d = make_dataset(np.random.default_rng(12), 30, 2)
        widths = [
            conformal_interval(d, "ols", [0.0, 0.0], ConformalSpec("jackknife", alpha=a)).length
            for a in (0.05, 0.1, 0.2, 0.5)
        ]
        assert all(a >= b for a, b in zip(widths, widths[1:]))

    def test_needs_three_rows(self):
        d = Dataset([[0.0], [1.0]], [0.0, 1.0])
        with pytest.raises(DataError, match="jackknife"):
            conformal_interval(d, "ols", [0.5], self.SPEC)


class TestDispatch:
    def test_routes_by_method(self):
        d = make_dataset(np.random.default_rng(13), 30, 2)
        base = fit(d, "ols", seed=4)
        x0 = np.zeros(2)
        constructors = {
            "split": lambda spec: conformal._split(d, Regressor.OLS, x0, spec, 4),
            "full": lambda spec: conformal._full(d, base, x0, spec),
            "jackknife": lambda spec: conformal._jackknife(d, base, x0, spec, None),
        }
        for method, construct in constructors.items():
            spec = ConformalSpec(method=method, alpha=0.2, grid_points=25)
            iv = conformal_interval(d, "ols", [0.0, 0.0], spec, seed=4)
            own = construct(spec)
            for f in fields(PredictionInterval):
                assert getattr(iv, f.name) == getattr(own, f.name), (method, f.name)
            assert iv.lo <= iv.up

    @pytest.mark.parametrize("method", ["split", "full", "jackknife"])
    @pytest.mark.parametrize("reg", ["ols", "lasso", "kernel"])
    def test_cell_config_is_its_conformal_spec(self, reg, method):
        # the runner passes a grid cell's config as the spec: it gives the
        # interval of the ConformalSpec made of its method and knobs
        d = make_dataset(np.random.default_rng(17), 30, 2)
        cfg = ExperimentConfig(
            method=method, regressor=reg, alpha=0.2, rho=0.6, grid_points=25, grid_expansion=0.5
        )
        assert isinstance(cfg, ConformalSpec)
        spec = ConformalSpec(
            cfg.method, alpha=cfg.alpha, rho=cfg.rho,
            grid_points=cfg.grid_points, grid_expansion=cfg.grid_expansion,
        )
        x0 = [0.1, -0.2]
        assert conformal_interval(d, reg, x0, cfg, seed=4) == (
            conformal_interval(d, reg, x0, spec, seed=4)
        )

    @pytest.mark.parametrize("method", ["split", "full", "jackknife"])
    def test_cell_config_of_another_engine_is_refused(self, method):
        # a grid cell's config names its engine: called with another, the
        # interval would be the other engine's, the config's unread
        d = make_dataset(np.random.default_rng(14), 40, 2)
        cfg = ExperimentConfig(method=method, regressor="kernel", grid_points=25)
        with pytest.raises(ConfigError, match="kernel, not ols"):
            conformal_interval(d, "ols", [0.1, -0.2], cfg, seed=4)
        # the engine's name is its member
        assert conformal_interval(d, "kernel", [0.1, -0.2], cfg, seed=4) == (
            conformal_interval(d, cfg.regressor, [0.1, -0.2], cfg, seed=4)
        )

    @pytest.mark.parametrize("reg", ["ols", "lasso", "kernel"])
    def test_given_base_fit_is_used_and_changes_nothing(self, reg, monkeypatch):
        # full conformal and the jackknife take a caller's base fit in place
        # of their own, with the same interval
        d = make_dataset(np.random.default_rng(14), 30, 2)
        base = fit(d, reg, seed=4)
        alone = {
            method: conformal_interval(
                d, reg, [0.1, -0.2], ConformalSpec(method=method, grid_points=25), seed=4
            )
            for method in ("full", "jackknife")
        }
        monkeypatch.setattr(conformal, "fit", None)  # a fit here would fail
        for method, iv in alone.items():
            spec = ConformalSpec(method=method, grid_points=25)
            assert conformal_interval(d, reg, [0.1, -0.2], spec, seed=4, base=base) == iv

    @pytest.mark.parametrize("method", ["full", "jackknife"])
    def test_base_fit_of_another_engine_is_refused(self, method):
        d = make_dataset(np.random.default_rng(14), 30, 2)
        spec = ConformalSpec(method=method, grid_points=25)
        with pytest.raises(DataError, match="kernel"):
            conformal_interval(d, "ols", [0.1, -0.2], spec, base=fit(d, "kernel"))

    def test_base_fit_built_with_an_engine_name_is_that_engine(self):
        # FittedModel coerces its kind, so a base built from the name "ols"
        # is an OLS fit, not refused or read as another engine
        d = make_dataset(np.random.default_rng(14), 30, 2)
        m = fit_ols(d)
        twin = FittedModel(kind="ols", intercept=m.intercept, coefficients=m.coefficients)
        spec = ConformalSpec(method="jackknife")
        assert conformal_interval(d, "ols", [0.1, -0.2], spec, base=twin) == (
            conformal_interval(d, "ols", [0.1, -0.2], spec, base=m)
        )


@pytest.mark.parametrize("reg", ["ols", "lasso", "kernel"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_query_tail_refused(reg, bad):
    # every method reads the tail through the Query rule, with or without
    # a caller's base fit: no LAPACK error, no blame on the feature matrix
    # or on the interval's point
    d = make_dataset(np.random.default_rng(15), 30, 2)
    base = fit(d, reg, seed=4)
    x0 = [bad, 0.5]
    spec = {m: ConformalSpec(method=m, grid_points=25) for m in ("split", "full", "jackknife")}
    for construct in (
        *(lambda m=m: conformal_interval(d, reg, x0, spec[m], seed=4) for m in spec),
        *(lambda m=m: conformal_interval(d, reg, x0, spec[m], seed=4, base=base) for m in spec),
    ):
        with pytest.raises(DataError, match="non-finite entry in query tail"):
            construct()


CELLS = [f"{m}-{reg}" for m in ("split", "full", "jackknife") for reg in ("ols", "lasso", "kernel")]


@pytest.mark.parametrize("seed", [1.5, -1, 2**64])
@pytest.mark.parametrize("consumer", [*CELLS, "fit_lasso"])
def test_seed_must_be_a_64_bit_unsigned_integer(consumer, seed, monkeypatch):
    # every method checks the seed by the knob rule every seed follows,
    # before any fit, whether or not its engine reads it (split's row order
    # and LASSO's folds do): 1.5 would be cut to stream 1, -1 is no numpy
    # seed, and 2^64 is past the rule's bound
    d = make_dataset(np.random.default_rng(16), 30, 2)
    with pytest.raises(ConfigError, match="seed"):
        if consumer == "fit_lasso":
            fit_lasso(d, seed=seed)
        else:
            method, reg = consumer.split("-")
            monkeypatch.setattr(conformal, "fit", None)  # a fit here would fail
            conformal_interval(d, reg, [0.0, 0.0], ConformalSpec(method), seed=seed)


@pytest.mark.parametrize("cell", CELLS)
def test_dataset_below_the_fewest_rows_is_refused_with_one_message(cell, monkeypatch):
    # one size check, before any fit: one row short of ``_min_rows`` is
    # refused with the runner's message, and that many rows or more run
    method, reg = cell.split("-")
    spec = ConformalSpec(method, grid_points=25)
    needed = conformal._min_rows(spec, Regressor(reg))
    rng = np.random.default_rng(18)
    message = f"{method} conformal with {reg} needs n >= {needed}, got n={needed - 1}"
    with monkeypatch.context() as patch:
        patch.setattr(conformal, "fit", None)  # a fit here would fail
        with pytest.raises(DataError, match=re.escape(message)):
            conformal_interval(make_dataset(rng, needed - 1, 1), reg, [0.0], spec)
    for n in range(needed, needed + 4):
        iv = conformal_interval(make_dataset(rng, n, 1), reg, [0.0], spec)
        assert np.isfinite([iv.lo, iv.point, iv.up]).all()
