"""Metric arithmetic, group means, and the 36-row summary layout."""

import numpy as np
import pytest

from relconf.core import (
    ConformalMethod,
    DataError,
    IntervalPath,
    PredictionInterval,
    Regressor,
)
from relconf.evaluate import (
    METHOD_LABELS,
    METRIC_FAMILIES,
    VARIANT_ORDER,
    Cell,
    MetricRow,
    aggregate,
    score,
    summary_table,
    variant_code,
)


def interval(point, lo, up):
    return PredictionInterval(point=point, lo=lo, up=up)


class TestScore:
    def test_hand_computed_metrics(self):
        # forecast 2.59 with bounds [1.36, 3.8] against realized 2.05:
        # distance 0.54, relative 0.54/2.05, length 2.44, ratio 0.54/2.44
        row = score(interval(2.59, 1.36, 3.8), y0=2.05)
        assert row.a_dist == pytest.approx(0.54, abs=1e-10)
        assert row.b_pct == pytest.approx(0.54 / 2.05, abs=1e-10)
        assert row.c_len == pytest.approx(2.44, abs=1e-10)
        assert row.d_norm == pytest.approx(0.54 / 2.44, abs=1e-10)
        assert row.covered

    def test_perfect_forecast(self):
        row = score(interval(0.96, 0.5, 1.5), y0=0.96)
        assert row.a_dist == 0.0
        assert row.d_norm == 0.0
        assert row.covered

    def test_interval_is_closed_at_both_ends(self):
        assert score(interval(2.0, 1.0, 3.0), y0=1.0).covered
        assert score(interval(2.0, 1.0, 3.0), y0=3.0).covered
        assert not score(interval(2.0, 1.0, 3.0), y0=3.0 + 1e-12).covered

    def test_relative_error_sign_follows_head(self):
        assert score(interval(1.0, 0.0, 2.0), y0=-2.0).b_pct == pytest.approx(-1.5)

    def test_zero_head_leaves_relative_error_undefined(self):
        row = score(interval(1.0, 0.0, 2.0), y0=0.0)
        assert row.b_pct is None
        assert row.a_dist == 1.0

    def test_zero_length_interval_leaves_ratio_undefined(self):
        row = score(interval(1.0, 1.0, 1.0), y0=2.0)
        assert row.d_norm is None
        assert row.c_len == 0.0
        assert not row.covered
        assert score(interval(1.0, 1.0, 1.0), y0=1.0).covered

    def test_non_finite_head_rejected(self):
        with pytest.raises(DataError):
            score(interval(1.0, 0.0, 2.0), y0=float("nan"))

    def test_cell_defaults_to_empty_cell(self):
        assert score(interval(1.0, 0.0, 2.0), y0=1.5).cell == Cell()

    def test_explicit_cell_wins(self):
        cell = Cell(query_id="q7", similarity="cosine")
        assert score(interval(1.0, 0.0, 2.0), 1.0, cell=cell).cell is cell


class TestAggregate:
    def test_single_row_is_its_own_mean(self):
        row = score(interval(2.59, 1.36, 3.8), y0=2.05)
        stats = aggregate([row], by=("method",))[("split",)]
        assert stats["a_dist"] == pytest.approx(row.a_dist)
        assert stats["c_len"] == pytest.approx(row.c_len)
        assert stats["coverage"] == 1.0
        assert stats["n"] == 1

    def test_mean_of_two_distances(self):
        rows = [
            score(interval(1.2, 0.0, 3.0), y0=1.0),  # distance 0.2
            score(interval(1.4, 0.0, 3.0), y0=1.0),  # distance 0.4
        ]
        stats = aggregate(rows, by=("method",))[("split",)]
        assert stats["a_dist"] == pytest.approx(0.3, abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        rows = [
            score(interval(p, p - 1, p + 1), y0=y)
            for p, y in rng.normal(5.0, 1.0, size=(40, 2))
        ]
        forward = aggregate(rows, by=("method",))[("split",)]
        backward = aggregate(rows[::-1], by=("method",))[("split",)]
        assert forward["n"] == backward["n"]
        for key in ("a_dist", "b_pct", "c_len", "d_norm", "coverage"):
            assert forward[key] == pytest.approx(backward[key], rel=1e-12)

    def test_undefined_entries_skipped_per_metric(self):
        rows = [
            score(interval(1.0, 0.0, 2.0), y0=0.0),  # b undefined
            score(interval(1.0, 0.0, 2.0), y0=2.0),  # b = 0.5
        ]
        stats = aggregate(rows, by=("method",))[("split",)]
        assert stats["b_pct"] == pytest.approx(0.5)
        assert stats["n"] == 2

    def test_coverage_fraction(self):
        rows = [
            score(interval(1.0, 0.0, 2.0), y0=1.0),
            score(interval(1.0, 0.0, 2.0), y0=5.0),
        ]
        stats = aggregate(rows, by=("method",))[("split",)]
        assert stats["coverage"] == 0.5

    def test_grouping_separates_cells(self):
        a = score(interval(1.0, 0.0, 2.0), 1.0, cell=Cell(method="split"))
        b = score(interval(9.0, 0.0, 2.0), 1.0, cell=Cell(method="full"))
        groups = aggregate([a, b], by=("method",))
        assert groups[("split",)]["a_dist"] == 0.0
        assert groups[("full",)]["a_dist"] == 8.0

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            aggregate([], by=("method",))


def synthetic_rows():
    """One defined row per (regressor, path, method) with a recoverable value."""
    rows = []
    values = {}
    for i, reg in enumerate(Regressor):
        for j, path in enumerate(IntervalPath):
            for k, method in enumerate(ConformalMethod):
                a = 1.0 + i + 10.0 * j + 100.0 * k
                y0 = 2.0
                # point chosen so |y0 - point| == a, interval length 2a
                iv = interval(y0 + a, y0 - a / 2, y0 + 3 * a / 2)
                cell = Cell(path=path.value, method=method.value, regressor=reg.value)
                rows.append(score(iv, y0=y0, cell=cell))
                values[(reg, path, method)] = a
    return rows, values


class TestSummaryTable:
    def test_layout_rows_and_order(self):
        assert VARIANT_ORDER == ("", "r", "rs", "l", "lr", "lrs", "k", "kr", "krs")
        rows, _ = synthetic_rows()
        table = summary_table(rows)
        labels = [label for label, _ in table]
        expected = [
            family + variant
            for family in METRIC_FAMILIES
            for variant in VARIANT_ORDER
        ]
        assert labels == expected
        assert len(labels) == 36
        for _, columns in table:
            assert set(columns) == {"General", "Conformal", "Split", "Jackknife"}

    def test_method_columns_match_their_cells(self):
        rows, values = synthetic_rows()
        table = dict(summary_table(rows))
        for reg in Regressor:
            for path in IntervalPath:
                label = "diffpred" + variant_code(reg, path)
                for method in ConformalMethod:
                    got = table[label][METHOD_LABELS[method]]
                    assert got == pytest.approx(values[(reg, path, method)])

    def test_general_is_mean_of_method_columns(self):
        rows, _ = synthetic_rows()
        for label, columns in summary_table(rows):
            methods = [columns["Conformal"], columns["Split"], columns["Jackknife"]]
            assert columns["General"] == pytest.approx(float(np.mean(methods)))

    def test_relative_error_scaled_to_percent(self):
        # single cell: |y0 - point| / y0 = 0.5/2.0 -> 25.0 after scaling
        row = score(interval(2.5, 1.0, 4.0), y0=2.0)
        table = dict(summary_table([row]))
        assert table["%pred"]["Split"] == pytest.approx(25.0)

    def test_missing_cells_reported_as_none(self):
        row = score(interval(2.5, 1.0, 4.0), y0=2.0)  # split/ols/standard only
        table = dict(summary_table([row]))
        assert table["diffpred"]["Split"] is not None
        assert table["diffpred"]["Conformal"] is None
        assert table["diffpredl"]["Split"] is None
        assert table["intkrs"]["General"] is None
        # General falls back to the mean of whichever methods exist
        assert table["diffpred"]["General"] == pytest.approx(0.5)

    def test_variant_codes(self):
        assert variant_code("ols", "standard") == ""
        assert variant_code("lasso", "relevant") == "lr"
        assert variant_code("kernel", "relevant_simulated") == "krs"
