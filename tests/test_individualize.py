"""Selection rules and control augmentation: quantile arithmetic, fallbacks,
invariances, and the 2 n_r containment contract."""

import numpy as np
import pytest

from relconf.core import ConfigError, DataError, Dataset, Similarity
from relconf.individualize import (
    ControlMode,
    ControlSet,
    Origin,
    RelevanceSelection,
    save_controls_csv,
    select,
    select_cosine,
    select_percentile,
    simulate_controls,
)


def line_dataset():
    """Ten 1-D rows whose distances to x0=0 are proportional to 1..10."""
    x = np.arange(1.0, 11.0)[:, None]
    return Dataset(x, np.zeros(10))


class TestPercentile:
    def test_hand_quantile_enumeration(self):
        d = line_dataset()
        sel = select_percentile(d, [0.0], alpha=0.3, min_relevant=2)
        np.testing.assert_array_equal(sel.indices, [0, 1, 2])
        assert not sel.fallback

    def test_alpha_near_one_keeps_everything(self):
        d = line_dataset()
        sel = select_percentile(d, [0.0], alpha=0.99, min_relevant=2)
        assert sel.n_relevant == 10

    def test_zero_distance_row_always_selected(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 3))
        d = Dataset(x, np.zeros(40))
        sel = select_percentile(d, x[17], alpha=0.05, min_relevant=2)
        assert 17 in sel.indices

    def test_threshold_ties_all_included(self):
        x = np.array([[1.0], [1.0], [1.0], [5.0], [6.0], [7.0]])
        d = Dataset(x, np.zeros(6))
        sel = select_percentile(d, [1.0], alpha=0.2, min_relevant=2)
        # k = ceil(1.2) = 2 < min_relevant, floor to 2; rows 0-2 tie at 0
        np.testing.assert_array_equal(sel.indices, [0, 1, 2])

    def test_min_relevant_floor_flags_fallback(self):
        d = line_dataset()
        sel = select_percentile(d, [0.0], alpha=0.1, min_relevant=5)
        assert sel.fallback
        assert sel.n_relevant == 5

    def test_invariant_under_feature_rescaling(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 3))
        x0 = rng.normal(size=3)
        a = select_percentile(Dataset(x, np.zeros(50)), x0, 0.2, 2)
        b = select_percentile(
            Dataset(x * [3.0, 0.5, 40.0], np.zeros(50)), x0 * [3.0, 0.5, 40.0], 0.2, 2
        )
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_needs_enough_rows(self):
        d = line_dataset()
        with pytest.raises(DataError):
            select_percentile(d, [0.0], alpha=0.3, min_relevant=11)


class TestCosine:
    def test_collinear_row_selected(self):
        x = np.array([[1.0, 2.0], [0.5, 1.0], [-3.0, 1.0], [2.0, -1.0]])
        d = Dataset(x, np.zeros(4))
        sel = select_cosine(d, [2.0, 4.0], gamma=0.999, min_relevant=2)
        assert 0 in sel.indices and 1 in sel.indices

    def test_orthogonal_row_excluded(self):
        x = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 2.0], [1.0, 0.9]])
        d = Dataset(x, np.zeros(4))
        sel = select_cosine(d, [1.0, 0.0], gamma=0.5, min_relevant=2)
        assert 0 not in sel.indices
        assert sel.scores[0] == pytest.approx(0.0)

    def test_dot_product_arithmetic(self):
        x = np.array([[1.0, 0.0], [1.0, 1.0], [0.9, 1.1], [1.0, 0.8]])
        d = Dataset(x, np.zeros(4))
        sel = select_cosine(d, [1.0, 1.0], gamma=0.70, min_relevant=2)
        assert sel.scores[0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert 0 in sel.indices
        sel = select_cosine(d, [1.0, 1.0], gamma=0.71, min_relevant=2)
        assert 0 not in sel.indices

    def test_scale_free_in_query(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 4))
        d = Dataset(x, np.zeros(30))
        x0 = rng.normal(size=4)
        a = select_cosine(d, x0, 0.5, 2)
        b = select_cosine(d, 17.0 * x0, 0.5, 2)
        np.testing.assert_allclose(a.scores, b.scores, atol=1e-12)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_monotone_shrinkage_in_gamma(self):
        rng = np.random.default_rng(3)
        x = np.abs(rng.normal(size=(80, 3))) + 0.1
        d = Dataset(x, np.zeros(80))
        x0 = np.abs(rng.normal(size=3)) + 0.1
        sizes = [
            select_cosine(d, x0, g, min_relevant=2).n_relevant
            for g in (0.5, 0.7, 0.9, 0.99)
        ]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_zero_norm_row_never_selected(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.9], [0.8, 1.0]])
        d = Dataset(x, np.zeros(4))
        sel = select_cosine(d, [1.0, 1.0], gamma=0.5, min_relevant=2)
        assert 0 not in sel.indices
        assert sel.scores[0] == -np.inf

    def test_zero_norm_query_rejected(self):
        d = Dataset(np.ones((5, 2)), np.zeros(5))
        with pytest.raises(DataError, match="zero-norm query"):
            select_cosine(d, [0.0, 0.0], gamma=0.5, min_relevant=2)

    def test_fallback_is_exactly_top_k(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 3))
        d = Dataset(x, np.zeros(20))
        sel = select_cosine(d, rng.normal(size=3), gamma=0.999, min_relevant=6)
        assert sel.fallback
        assert sel.n_relevant == 6
        worst_kept = sel.scores[sel.indices].min()
        dropped = np.setdiff1d(np.arange(20), sel.indices)
        assert sel.scores[dropped].max() <= worst_kept

    def test_dispatch_helper(self):
        rng = np.random.default_rng(5)
        d = Dataset(rng.normal(size=(40, 2)), np.zeros(40))
        x0 = rng.normal(size=2)
        assert select(d, x0, "percentile", 0.2, 0.9, 2).method is Similarity.PERCENTILE
        assert select(d, x0, "cosine", 0.2, 0.5, 2).method is Similarity.COSINE

    def test_knobs_checked_by_their_config_rule(self):
        # each knob meets its config rule: 30.9 rows is refused, not cut to 30
        rng = np.random.default_rng(5)
        d = Dataset(rng.normal(size=(40, 2)), np.zeros(40))
        x0 = rng.normal(size=2)
        for rule, knobs, name in [
            (select_percentile, dict(alpha=0.2, min_relevant=30.9), "min_relevant"),
            (select_cosine, dict(gamma=0.5, min_relevant=30.9), "min_relevant"),
            (select_cosine, dict(gamma=0.5, min_relevant=1), "min_relevant"),
            (select_percentile, dict(alpha=1.0), "alpha"),
            (select_cosine, dict(gamma=np.nan), "gamma"),
        ]:
            with pytest.raises(ConfigError, match=name):
                rule(d, x0, **knobs)


class TestSimulateControls:
    @staticmethod
    def selection(d, k):
        return RelevanceSelection(
            np.arange(k), np.zeros(d.n), Similarity.PERCENTILE, 1.0
        )

    def test_row_count_doubles(self):
        rng = np.random.default_rng(6)
        d = Dataset(rng.normal(size=(30, 2)), rng.normal(size=30))
        cs = simulate_controls(d, self.selection(d, 7), noise_scale=0.1, seed=1)
        assert cs.dataset.n == 14
        assert sum(o is Origin.RELEVANT_ORIGINAL for o in cs.origin) == 7
        assert cs.origin[:7] == (Origin.RELEVANT_ORIGINAL,) * 7

    def test_originals_preserved_exactly(self):
        rng = np.random.default_rng(7)
        d = Dataset(rng.normal(size=(20, 3)), rng.normal(size=20))
        sel = self.selection(d, 9)
        cs = simulate_controls(d, sel, noise_scale=0.2, seed=2)
        np.testing.assert_array_equal(cs.originals.x, d.x[sel.indices])
        np.testing.assert_array_equal(cs.originals.y, d.y[sel.indices])

    def test_clones_keep_source_heads(self):
        rng = np.random.default_rng(8)
        d = Dataset(rng.normal(size=(12, 2)), rng.normal(size=12))
        cs = simulate_controls(d, self.selection(d, 12), noise_scale=0.1, seed=3)
        np.testing.assert_array_equal(cs.simulated.y, d.y[:12])

    def test_degenerate_noise_reproduces_tails(self):
        rng = np.random.default_rng(9)
        d = Dataset(rng.normal(size=(25, 2)), rng.normal(size=25))
        cs = simulate_controls(d, self.selection(d, 25), noise_scale=1e-12, seed=4)
        np.testing.assert_allclose(cs.simulated.x, d.x, atol=1e-10)

    def test_noise_moments_monte_carlo(self):
        rng = np.random.default_rng(10)
        d = Dataset(rng.normal(0, 3.0, size=(1000, 2)), rng.normal(size=1000))
        sel = self.selection(d, 1000)
        cs = simulate_controls(d, sel, noise_scale=0.1, seed=5)
        deltas = cs.simulated.x - d.x
        sigma = d.x.std(axis=0, ddof=1)
        np.testing.assert_allclose(
            deltas.std(axis=0, ddof=1), 0.1 * sigma, rtol=0.10
        )

    def test_seed_determinism_and_sensitivity(self):
        rng = np.random.default_rng(11)
        d = Dataset(rng.normal(size=(15, 2)), rng.normal(size=15))
        sel = self.selection(d, 15)
        a = simulate_controls(d, sel, 0.1, seed=6)
        b = simulate_controls(d, sel, 0.1, seed=6)
        c = simulate_controls(d, sel, 0.1, seed=7)
        np.testing.assert_array_equal(a.dataset.x, b.dataset.x)
        assert not np.array_equal(a.dataset.x, c.dataset.x)

    def test_gaussian_mimic_heads_come_from_relevant_rows(self):
        rng = np.random.default_rng(12)
        d = Dataset(rng.normal(size=(40, 3)), rng.normal(size=40))
        sel = self.selection(d, 10)
        cs = simulate_controls(d, sel, 0.5, mode="gaussian_mimic", seed=8)
        assert cs.dataset.n == 20
        assert set(cs.simulated.y) <= set(d.y[:10])
        assert all(o is Origin.GAUSSIAN_MIMIC for o in cs.origin[10:])

    def test_nonpositive_noise_rejected(self):
        # refused here, not later as a non-finite feature matrix
        d = Dataset(np.ones((5, 2)) + np.eye(5, 2), np.zeros(5))
        for noise_scale in (0.0, np.inf):
            with pytest.raises(ConfigError, match="noise_scale"):
                simulate_controls(d, self.selection(d, 5), noise_scale=noise_scale)

    def test_csv_export_carries_origin_column(self, tmp_path):
        rng = np.random.default_rng(13)
        d = Dataset(rng.normal(size=(6, 2)), rng.normal(size=6))
        cs = simulate_controls(d, self.selection(d, 6), 0.1, seed=9)
        f = tmp_path / "controls.csv"
        save_controls_csv(cs, f, comments=["seed=9"])
        lines = f.read_text().splitlines()
        assert lines[0] == "# seed=9"
        assert lines[1].split(",") == ["y", "x1", "x2", "origin"]
        assert len(lines) == 2 + 12
        assert lines[2].endswith("relevant_original")
        assert lines[-1].endswith("perturbed_clone")


class TestRelevanceSelectionValidation:
    def test_duplicate_indices_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            RelevanceSelection(
                np.array([0, 0]), np.zeros(5), Similarity.PERCENTILE, 1.0
            )

    def test_empty_selection_rejected(self):
        with pytest.raises(DataError, match="empty"):
            RelevanceSelection(
                np.array([], dtype=int), np.zeros(5), Similarity.PERCENTILE, 1.0
            )

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError, match="range"):
            RelevanceSelection(np.array([9]), np.zeros(5), Similarity.COSINE, 1.0)
