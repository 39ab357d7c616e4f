"""Selection rules and simulated controls: quantile arithmetic, fallbacks,
invariances, and one synthetic row per relevant row."""

import re

import numpy as np
import pytest

from relconf import regress
from relconf.core import ConfigError, DataError, Dataset, Similarity
from relconf.individualize import (
    SIGMA_FLOOR,
    ControlMode,
    RelevanceSelection,
    _row_normals,
    select,
    simulate_controls,
)


def cosines(d, x0):
    """Each row's cosine with the query tail, computed here from the definition."""
    x0 = np.asarray(x0, dtype=float)
    return np.array([row @ x0 / (np.linalg.norm(row) * np.linalg.norm(x0)) for row in d.x])


def line_dataset():
    """Ten 1-D rows whose distances to x0=0 are proportional to 1..10."""
    x = np.arange(1.0, 11.0)[:, None]
    return Dataset(x, np.zeros(10))


class TestPercentile:
    def test_hand_quantile_enumeration(self):
        d = line_dataset()
        sel = select(d, [0.0], "percentile", alpha=0.3, min_relevant=2)
        np.testing.assert_array_equal(sel.indices, [0, 1, 2])
        assert not sel.fallback

    def test_alpha_near_one_keeps_everything(self):
        d = line_dataset()
        sel = select(d, [0.0], "percentile", alpha=0.99, min_relevant=2)
        assert sel.n_relevant == 10

    def test_zero_distance_row_always_selected(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 3))
        d = Dataset(x, np.zeros(40))
        sel = select(d, x[17], "percentile", alpha=0.05, min_relevant=2)
        assert 17 in sel.indices

    def test_threshold_ties_all_included(self):
        x = np.array([[1.0], [1.0], [1.0], [5.0], [6.0], [7.0]])
        d = Dataset(x, np.zeros(6))
        sel = select(d, [1.0], "percentile", alpha=0.2, min_relevant=2)
        # k = ceil(1.2) = 2 < min_relevant, floor to 2; rows 0-2 tie at 0
        np.testing.assert_array_equal(sel.indices, [0, 1, 2])

    def test_ties_at_the_cut_that_reach_the_floor_are_no_fallback(self):
        # k = ceil(1.2) = 2 < min_relevant = 3, but rows 0-2 tie at the k-th
        # distance 0: the rule alone admits 3 rows, so the floor never acts
        x = np.array([[1.0], [1.0], [1.0], [5.0], [6.0], [7.0]])
        sel = select(Dataset(x, np.zeros(6)), [1.0], "percentile", alpha=0.2, min_relevant=3)
        np.testing.assert_array_equal(sel.indices, [0, 1, 2])
        assert sel.threshold_used == 0.0
        assert not sel.fallback

    def test_min_relevant_floor_flags_fallback(self):
        d = line_dataset()
        sel = select(d, [0.0], "percentile", alpha=0.1, min_relevant=5)
        assert sel.fallback
        assert sel.n_relevant == 5

    def test_invariant_under_feature_rescaling(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 3))
        x0 = rng.normal(size=3)
        a = select(Dataset(x, np.zeros(50)), x0, "percentile", 0.2, min_relevant=2)
        b = select(
            Dataset(x * [3.0, 0.5, 40.0], np.zeros(50)), x0 * [3.0, 0.5, 40.0],
            "percentile", 0.2, min_relevant=2,
        )
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_needs_enough_rows(self):
        d = line_dataset()
        with pytest.raises(DataError):
            select(d, [0.0], "percentile", alpha=0.3, min_relevant=11)


class TestCosine:
    def test_collinear_row_selected(self):
        x = np.array([[1.0, 2.0], [0.5, 1.0], [-3.0, 1.0], [2.0, -1.0]])
        d = Dataset(x, np.zeros(4))
        sel = select(d, [2.0, 4.0], "cosine", gamma=0.999, min_relevant=2)
        assert 0 in sel.indices and 1 in sel.indices

    def test_orthogonal_row_excluded(self):
        x = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 2.0], [1.0, 0.9]])
        d = Dataset(x, np.zeros(4))
        assert cosines(d, [1.0, 0.0])[0] == pytest.approx(0.0)
        sel = select(d, [1.0, 0.0], "cosine", gamma=0.5, min_relevant=2)
        assert 0 not in sel.indices

    def test_fewer_rows_than_min_relevant_refused(self):
        d = Dataset(np.arange(1.0, 9.0).reshape(4, 2), np.zeros(4))
        with pytest.raises(DataError, match="need n >= min_relevant, got n=4, min_relevant=5"):
            select(d, [1.0, 1.0], "cosine", gamma=0.5, min_relevant=5)

    def test_dot_product_arithmetic(self):
        x = np.array([[1.0, 0.0], [1.0, 1.0], [0.9, 1.1], [1.0, 0.8]])
        d = Dataset(x, np.zeros(4))
        # row 0's cosine with the query is 1/sqrt(2) ~ 0.7071
        assert cosines(d, [1.0, 1.0])[0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        sel = select(d, [1.0, 1.0], "cosine", gamma=0.70, min_relevant=2)
        assert 0 in sel.indices
        sel = select(d, [1.0, 1.0], "cosine", gamma=0.71, min_relevant=2)
        assert 0 not in sel.indices

    def test_scale_free_in_query(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 4))
        d = Dataset(x, np.zeros(30))
        x0 = rng.normal(size=4)
        a = select(d, x0, "cosine", gamma=0.5, min_relevant=2)
        b = select(d, 17.0 * x0, "cosine", gamma=0.5, min_relevant=2)
        np.testing.assert_array_equal(a.indices, b.indices)
        # on a fallback the threshold is a row's cosine, equal up to rounding
        a = select(d, x0, "cosine", gamma=0.999, min_relevant=25)
        b = select(d, 17.0 * x0, "cosine", gamma=0.999, min_relevant=25)
        assert a.fallback and b.fallback
        np.testing.assert_array_equal(a.indices, b.indices)
        assert a.threshold_used == pytest.approx(b.threshold_used, abs=1e-12)

    def test_monotone_shrinkage_in_gamma(self):
        rng = np.random.default_rng(3)
        x = np.abs(rng.normal(size=(80, 3))) + 0.1
        d = Dataset(x, np.zeros(80))
        x0 = np.abs(rng.normal(size=3)) + 0.1
        sizes = [
            select(d, x0, "cosine", gamma=g, min_relevant=2).n_relevant
            for g in (0.5, 0.7, 0.9, 0.99)
        ]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_zero_norm_row_never_selected(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.9], [0.8, 1.0]])
        d = Dataset(x, np.zeros(4))
        sel = select(d, [1.0, 1.0], "cosine", gamma=0.5, min_relevant=2)
        assert 0 not in sel.indices
        # not even as the last pick of a fallback's top rows
        sel = select(d, [1.0, 1.0], "cosine", gamma=0.9999, min_relevant=3)
        assert sel.fallback
        np.testing.assert_array_equal(sel.indices, [1, 2, 3])

    def test_zero_norm_rows_fill_the_floor_only_when_too_few_have_a_cosine(self):
        # two rows have a cosine and the floor asks for three: the threshold
        # is -inf and every row is kept, not the first zero-norm row
        x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 0.9]])
        d = Dataset(x, np.zeros(4))
        sel = select(d, [1.0, 1.0], "cosine", gamma=0.9999, min_relevant=3)
        assert sel.fallback and sel.threshold_used == -np.inf
        np.testing.assert_array_equal(sel.indices, [0, 1, 2, 3])

    def test_floor_keeps_every_row_tied_at_the_cut_in_any_row_order(self):
        # 15 rows closer to the query than ten copies of one tail, 15 rows
        # farther: the floor of 20 cuts through the copies, so all ten are
        # kept, whatever positions the rows take in the file
        rng = np.random.default_rng(40)
        angles = np.concatenate([
            rng.uniform(0.05, 0.4, 15), np.full(10, np.arctan(0.5)), rng.uniform(0.5, 1.2, 15)
        ])
        radii = np.concatenate([
            rng.uniform(0.5, 3.0, 15), np.full(10, 2.0), rng.uniform(0.5, 3.0, 15)
        ])
        x = radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(40)
            d = Dataset(x[perm], np.zeros(40))
            sel = select(d, [1.0, 0.0], "cosine", gamma=0.9999, min_relevant=20)
            assert sel.fallback and sel.n_relevant == 25
            np.testing.assert_array_equal(np.sort(perm[sel.indices]), np.arange(25))

    def test_scaling_by_a_power_of_two_changes_nothing(self):
        # tails whose squares overflow or underflow still have a cosine, and
        # it is the one of the same tails at ordinary scale, bit for bit
        rng = np.random.default_rng(41)
        x = rng.normal(size=(40, 3))
        x0 = np.array([1.0, 0.5, -0.25])
        base = select(Dataset(x, np.zeros(40)), x0, "cosine", gamma=0.9, min_relevant=10)
        assert base.fallback
        for k in (-1000, -600, 600, 1000):
            sel = select(
                Dataset(np.ldexp(x, k), np.zeros(40)), np.ldexp(x0, k),
                "cosine", gamma=0.9, min_relevant=10,
            )
            np.testing.assert_array_equal(sel.indices, base.indices)
            assert sel.threshold_used.hex() == base.threshold_used.hex()

    def test_rows_whose_squares_overflow_score_as_their_direction(self):
        # a row [1.5e308, -1.5e308] scores exactly as [1, -1] does
        rng = np.random.default_rng(41)
        x = rng.normal(size=(40, 2))
        for min_relevant in (10, 38):
            sels = []
            for big in (1.0, 1.5e308):
                x[:5] = [big, -big]
                d = Dataset(x, np.zeros(40))
                sel = select(d, [1.0, 0.5], "cosine", gamma=0.9999, min_relevant=min_relevant)
                sels.append(sel)
            np.testing.assert_array_equal(sels[0].indices, sels[1].indices)
            assert sels[0].threshold_used == sels[1].threshold_used

    def test_query_whose_squares_overflow_keeps_its_direction(self):
        # [1e200, 5e199] points where [1, 0.5] does, so it keeps the same rows
        d = Dataset(np.random.default_rng(41).normal(size=(40, 2)), np.zeros(40))
        small = select(d, [1.0, 0.5], "cosine", gamma=0.9, min_relevant=10)
        big = select(d, [1e200, 5e199], "cosine", gamma=0.9, min_relevant=10)
        assert small.n_relevant == 10
        assert small.threshold_used == pytest.approx(0.6933, abs=1e-4)
        np.testing.assert_array_equal(big.indices, small.indices)
        assert big.threshold_used == small.threshold_used

    def test_zero_norm_query_rejected(self):
        d = Dataset(np.ones((5, 2)), np.zeros(5))
        with pytest.raises(DataError, match="zero-norm query"):
            select(d, [0.0, 0.0], "cosine", gamma=0.5, min_relevant=2)

    def test_fallback_is_exactly_top_k(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 3))
        d = Dataset(x, np.zeros(20))
        x0 = rng.normal(size=3)
        sel = select(d, x0, "cosine", gamma=0.999, min_relevant=6)
        assert sel.fallback
        assert sel.n_relevant == 6
        scores = cosines(d, x0)
        worst_kept = scores[sel.indices].min()
        assert sel.threshold_used == pytest.approx(worst_kept, abs=1e-12)
        dropped = np.setdiff1d(np.arange(20), sel.indices)
        assert scores[dropped].max() <= worst_kept

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
            ("percentile", dict(alpha=0.2, min_relevant=30.9), "min_relevant"),
            ("cosine", dict(gamma=0.5, min_relevant=30.9), "min_relevant"),
            ("cosine", dict(gamma=0.5, min_relevant=1), "min_relevant"),
            ("percentile", dict(alpha=1.0), "alpha"),
            ("cosine", dict(gamma=np.nan), "gamma"),
        ]:
            with pytest.raises(ConfigError, match=name):
                select(d, x0, rule, **knobs)

    @pytest.mark.parametrize("x0", [[0.5], [0.5, 0.2, 0.1]], ids=["short", "long"])
    def test_query_of_wrong_length_refused(self, x0):
        # a one-entry query is not broadcast over both columns
        rng = np.random.default_rng(6)
        d = Dataset(rng.normal(size=(40, 2)), np.zeros(40))
        message = f"query has {len(x0)} features, dataset has 2"
        for rule in (
            lambda: select(d, x0, "percentile", 0.1, 0.9, 10),
            lambda: select(d, x0, "cosine", 0.1, 0.9, 10),
        ):
            with pytest.raises(DataError, match=message):
                rule()

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_query_refused(self, bad):
        # not a nan threshold, every row, or an empty selection
        rng = np.random.default_rng(6)
        d = Dataset(rng.normal(size=(50, 2)), np.zeros(50))
        x0 = [bad, 0.5]
        for rule in (
            lambda: select(d, x0, "percentile", 0.1, 0.9, 10),
            lambda: select(d, x0, "cosine", 0.1, 0.9, 10),
        ):
            with pytest.raises(DataError, match="non-finite entry in query tail"):
                rule()


class TestSimulateControls:
    @staticmethod
    def selection(d, k):
        return RelevanceSelection(np.arange(k), Similarity.PERCENTILE, 1.0)

    @staticmethod
    def controls(d, sel, *args, **kwargs):
        """The controls of a selection made on ``d``, built as the runner does."""
        return simulate_controls(d, sel.indices, *args, **kwargs)

    def test_one_control_per_relevant_row(self):
        rng = np.random.default_rng(6)
        d = Dataset(rng.normal(size=(30, 2)), rng.normal(size=30), ("a", "b"), "h")
        for mode in ControlMode:
            cs = self.controls(d, self.selection(d, 7), noise_scale=0.1, mode=mode, seed=1)
            assert isinstance(cs, Dataset)
            assert (cs.n, cs.p) == (7, 2)
            assert (cs.feature_names, cs.head_name) == (("a", "b"), "h")

    def test_clones_follow_selection_order(self):
        # each clone is its source row jittered, in the order of the selection
        rng = np.random.default_rng(7)
        d = Dataset(rng.normal(size=(20, 3)), rng.normal(size=20))
        sel = RelevanceSelection(np.array([12, 3, 17, 5]), Similarity.COSINE, 0.5)
        cs = self.controls(d, sel, noise_scale=1e-12, seed=2)
        np.testing.assert_array_equal(cs.y, d.y[sel.indices])
        np.testing.assert_allclose(cs.x, d.x[sel.indices], atol=1e-10)
        assert not np.array_equal(cs.x, d.x[sel.indices])

    @pytest.mark.parametrize("mode", list(ControlMode))
    def test_one_row_subset_takes_the_sigma_floor(self, mode):
        # a one-row subset has no sample std: sigma is the 1e-8 floor, so
        # each control stays next to its source row and keeps its head
        d = Dataset(np.array([[3.0, -2.0], [0.5, 7.0]]), [1.5, -4.0])
        sel = RelevanceSelection(np.array([1]), Similarity.COSINE, 0.5)
        cs = self.controls(d, sel, noise_scale=2.0, mode=mode, seed=5)
        np.testing.assert_allclose(cs.x, d.x[[1]], rtol=0, atol=1e-7)
        assert not np.array_equal(cs.x, d.x[[1]])
        np.testing.assert_array_equal(cs.y, [-4.0])

    def test_clones_keep_source_heads(self):
        rng = np.random.default_rng(8)
        d = Dataset(rng.normal(size=(12, 2)), rng.normal(size=12))
        cs = self.controls(d, self.selection(d, 12), noise_scale=0.1, seed=3)
        np.testing.assert_array_equal(cs.y, d.y[:12])

    def test_degenerate_noise_reproduces_tails(self):
        rng = np.random.default_rng(9)
        d = Dataset(rng.normal(size=(25, 2)), rng.normal(size=25))
        cs = self.controls(d, self.selection(d, 25), noise_scale=1e-12, seed=4)
        np.testing.assert_allclose(cs.x, d.x, atol=1e-10)

    def test_noise_moments_monte_carlo(self):
        rng = np.random.default_rng(10)
        d = Dataset(rng.normal(0, 3.0, size=(1000, 2)), rng.normal(size=1000))
        sel = self.selection(d, 1000)
        cs = self.controls(d, sel, noise_scale=0.1, seed=5)
        deltas = cs.x - d.x
        sigma = d.x.std(axis=0, ddof=1)
        np.testing.assert_allclose(
            deltas.std(axis=0, ddof=1), 0.1 * sigma, rtol=0.10
        )

    def test_seed_determinism_and_sensitivity(self):
        rng = np.random.default_rng(11)
        d = Dataset(rng.normal(size=(15, 2)), rng.normal(size=15))
        sel = self.selection(d, 15)
        a = self.controls(d, sel, 0.1, seed=6)
        b = self.controls(d, sel, 0.1, seed=6)
        c = self.controls(d, sel, 0.1, seed=7)
        np.testing.assert_array_equal(a.x, b.x)
        assert not np.array_equal(a.x, c.x)

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_each_control_draws_its_own_seed_sequence_stream(self, p):
        # every row's stream is seeded in one pass: its noise must be, bit
        # for bit, that of a generator made for its (seed, key) alone, at
        # seeds of one and two 32-bit words and keys of up to two
        rng = np.random.default_rng(15)
        seeds = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]
        seeds += rng.integers(0, 2**64, size=4, dtype=np.uint64).tolist()

        def streams(seed, keys):
            return np.array([
                np.random.default_rng(np.random.SeedSequence((seed, int(key)))).normal(size=p)
                for key in keys
            ])

        keys = np.array([0, 1, 7, 2**31 - 1, 2**32 - 1, 2**32, 2**40 + 3, 2**62 + 11])
        for seed in seeds:
            np.testing.assert_array_equal(_row_normals(seed, keys, p), streams(seed, keys))
        # a perturb control is keyed on its row index in d, a gaussian_mimic
        # control on its position in the selection
        d = Dataset(rng.normal(size=(12, p)), rng.normal(size=12))
        indices = np.array([11, 0, 7, 3])
        x_rel = d.x[indices]
        sigma = np.maximum(x_rel.std(axis=0, ddof=1), SIGMA_FLOOR)
        for seed in seeds:
            perturbed = simulate_controls(d, indices, 0.3, seed=seed)
            np.testing.assert_array_equal(
                perturbed.x, x_rel + streams(seed, indices) * (0.3 * sigma)
            )
            mimic = simulate_controls(d, indices, 0.3, mode="gaussian_mimic", seed=seed)
            np.testing.assert_array_equal(
                mimic.x, x_rel.mean(axis=0) + streams(seed, range(indices.size)) * sigma
            )

    @pytest.mark.parametrize("seed", [1.5, -1, 2**64])
    def test_seed_must_be_a_64_bit_unsigned_integer(self, seed):
        # 1.5 would be cut to stream 1; from 2^64 on, a seed's words and
        # its row key's would overflow the 4-word seed pool
        rng = np.random.default_rng(16)
        d = Dataset(rng.normal(size=(6, 2)), rng.normal(size=6))
        for mode in ControlMode:
            with pytest.raises(ConfigError, match="seed"):
                self.controls(d, self.selection(d, 6), noise_scale=0.1, mode=mode, seed=seed)

    def test_negative_sources_rejected(self):
        # a negative source row has no stream: it is refused, not wrapped
        d = Dataset(np.ones((2, 2)) + np.eye(2), np.zeros(2))
        with pytest.raises(DataError, match="out of range"):
            simulate_controls(d, [0, -1], noise_scale=0.1)

    def test_gaussian_mimic_heads_come_from_relevant_rows(self):
        rng = np.random.default_rng(12)
        d = Dataset(rng.normal(size=(40, 3)), rng.normal(size=40))
        sel = self.selection(d, 10)
        cs = self.controls(d, sel, 0.5, mode="gaussian_mimic", seed=8)
        assert cs.n == 10
        assert set(cs.y) <= set(d.y[:10])

    def test_gaussian_mimic_heads_equal_dense_nearest_neighbour(self, monkeypatch):
        # the relevant set spans 128 row blocks of 4 rows, the fewest a block
        # takes, and a joined one-row tail, and its integer lattice repeats
        # rows: a tie must still go to the first relevant index
        monkeypatch.setattr(regress, "_SMOOTH_ENTRIES", 1)
        rng = np.random.default_rng(13)
        n_r = 513
        x = rng.integers(0, 4, size=(n_r + 5, 2)).astype(float)
        d = Dataset(x, np.arange(n_r + 5.0))
        sel = self.selection(d, n_r)
        cs = self.controls(d, sel, 0.5, mode="gaussian_mimic", seed=9)
        x_rel = d.x[:n_r]
        assert len(np.unique(x_rel, axis=0)) < n_r
        mu, sigma = x_rel.mean(axis=0), np.maximum(x_rel.std(axis=0, ddof=1), SIGMA_FLOOR)
        z_rel, z_syn = (x_rel - mu) / sigma, (cs.x - mu) / sigma
        nearest = np.argmin(((z_syn[:, None] - z_rel[None]) ** 2).sum(-1), axis=1)
        np.testing.assert_array_equal(cs.y, d.y[nearest])

    def test_nonpositive_noise_rejected(self):
        # refused here, not later as a non-finite feature matrix
        d = Dataset(np.ones((5, 2)) + np.eye(5, 2), np.zeros(5))
        for noise_scale in (0.0, np.inf):
            with pytest.raises(ConfigError, match="noise_scale"):
                self.controls(d, self.selection(d, 5), noise_scale=noise_scale)

    def test_overflowing_jitter_rejected(self):
        # the controls are new rows, checked where they are built
        rng = np.random.default_rng(14)
        d = Dataset(rng.normal(size=(40, 2)) * 1e200, rng.normal(size=40))
        with np.errstate(all="ignore"), pytest.raises(DataError, match="non-finite"):
            self.controls(d, self.selection(d, 40), noise_scale=0.1, seed=10)

    def test_out_of_range_selection_rejected(self):
        # a selection made on a larger dataset fails where its rows are taken
        d = Dataset(np.ones((5, 2)) + np.eye(5, 2), np.zeros(5))
        sel = RelevanceSelection(np.array([9]), Similarity.COSINE, 1.0)
        for mode in ControlMode:
            with pytest.raises(DataError, match="range"):
                self.controls(d, sel, noise_scale=0.1, mode=mode)

    def test_non_integer_sources_rejected(self):
        # int(1.7) would key the control of row 1's stream
        d = Dataset(np.ones((2, 2)) + np.eye(2), np.zeros(2))
        for sources in ([0.0, 1.7], np.array([0.5, 1.0])):
            with pytest.raises(DataError, match="integer row indices"):
                simulate_controls(d, sources, noise_scale=0.1)


class TestRelevanceSelectionValidation:
    """A selection keeps its indices as given; both consumers refuse bad ones.

    The runner takes a selection's rows with ``d.subset`` (the relevant
    path) and ``simulate_controls`` (the simulated path, in either mode).
    """

    D = Dataset(np.arange(10.0).reshape(5, 2) ** 2, np.arange(5.0))

    def refused(self, indices, match):
        sel = RelevanceSelection(indices, Similarity.PERCENTILE, 1.0)
        with pytest.raises(DataError, match=match):
            self.D.subset(sel.indices)
        for mode in ControlMode:
            with pytest.raises(DataError, match=match):
                simulate_controls(self.D, sel.indices, noise_scale=0.1, mode=mode)

    def test_non_integer_indices_rejected(self):
        # truncated, [1.7, 2.2] would take rows [1, 2]; a mask, rows 1 and 0
        for indices in ([1.7, 2.2], np.array([1.0, 2.0]), [True, False]):
            self.refused(indices, "row indices")

    def test_empty_selection_rejected(self):
        for indices in (np.array([], dtype=int), []):
            self.refused(indices, "no rows")

    def test_indices_that_are_not_one_dimensional_rejected(self):
        # a (2, 2) array would take a (2, 2, p) block of rows
        self.refused(np.arange(4).reshape(2, 2), re.escape("got shape (2, 2)"))

    def test_indices_are_a_read_only_copy_checked_where_used(self):
        # kept as given, not cast to int64: a fractional index is refused
        # where its rows are taken, not truncated toward row 0
        given = np.array([1.7, 0.0])
        sel = RelevanceSelection(given, Similarity.PERCENTILE, 1.0)
        assert not sel.indices.flags.writeable and not np.shares_memory(sel.indices, given)
        d = Dataset(np.arange(6.0).reshape(3, 2), np.arange(3.0))
        with pytest.raises(DataError, match="integer row indices"):
            d.subset(sel.indices)
