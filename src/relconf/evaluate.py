"""Per-query comparison metrics and the aggregated summary layout.

For an interval with forecast ``point`` and bounds ``[lo, up]`` against
the realized head ``y0``:

* a_dist: |y0 - point|
* b_pct:  a_dist / y0, sign of y0 kept; undefined (None) when y0 = 0
* c_len:  up - lo
* d_norm: a_dist / c_len; undefined (None) for zero-length intervals
* covered: lo <= y0 <= up (closed interval)

Summaries are arithmetic means per (variant, method) cell, with a
General column averaging the three method columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .core import (
    ConformalMethod,
    DataError,
    IntervalPath,
    PredictionInterval,
    Regressor,
    _choice,
)

__all__ = [
    "Cell",
    "MetricRow",
    "score",
    "aggregate",
    "summary_table",
    "variant_code",
    "METHOD_LABELS",
    "METRIC_FAMILIES",
    "VARIANT_ORDER",
]

METHOD_LABELS = {
    ConformalMethod.FULL: "Conformal",
    ConformalMethod.SPLIT: "Split",
    ConformalMethod.JACKKNIFE: "Jackknife",
}

# row-label grammar of the output tables: family + variant, where the
# variant encodes regressor (l/k) and path (r = relevant only,
# rs = relevant + simulated)
METRIC_FAMILIES = ("diffpred", "%pred", "int", "ab")

_REG_CODE = {Regressor.OLS: "", Regressor.LASSO: "l", Regressor.KERNEL: "k"}
_PATH_CODE = {
    IntervalPath.STANDARD: "",
    IntervalPath.RELEVANT: "r",
    IntervalPath.RELEVANT_SIMULATED: "rs",
}


def variant_code(regressor, path) -> str:
    """Row-label suffix for a (regressor, path) cell, e.g. ('lasso','relevant') -> 'lr'."""
    return _REG_CODE[_choice(Regressor, regressor)] + _PATH_CODE[_choice(IntervalPath, path)]


VARIANT_ORDER = tuple(variant_code(r, p) for r, p in product(Regressor, IntervalPath))


@dataclass(frozen=True)
class Cell:
    """Identifies where one metric row came from."""

    path: str = IntervalPath.STANDARD.value
    method: str = ConformalMethod.SPLIT.value
    regressor: str = Regressor.OLS.value
    similarity: str = ""
    query_id: str = ""


@dataclass(frozen=True)
class MetricRow:
    a_dist: float
    b_pct: float | None
    c_len: float
    d_norm: float | None
    covered: bool
    cell: Cell = field(default_factory=Cell)


def score(interval: PredictionInterval, y0: float, cell: Cell | None = None) -> MetricRow:
    """Metrics of one interval against the realized head; ``cell`` (default
    ``Cell()``) records where the interval came from."""
    y0 = float(y0)
    if not np.isfinite(y0):
        raise DataError("cannot score against a non-finite head")
    a = abs(y0 - interval.point)
    b = a / y0 if y0 != 0.0 else None
    c = interval.up - interval.lo
    d = a / c if c > 0.0 else None
    covered = interval.lo <= y0 <= interval.up
    return MetricRow(a, b, c, d, covered, Cell() if cell is None else cell)


def _mean(values: list[float | None]) -> float | None:
    kept = [v for v in values if v is not None]
    return float(np.mean(kept)) if kept else None


def aggregate(rows: list[MetricRow], by: tuple[str, ...]) -> dict:
    """Arithmetic means per group of ``by`` cell fields.

    Undefined entries (b_pct at y0 = 0, d_norm at zero length) are
    dropped from their own mean only. Each group also reports its
    empirical coverage and row count.
    """
    if not rows:
        raise DataError("nothing to aggregate")
    groups: dict[tuple, list[MetricRow]] = {}
    for row in rows:
        key = tuple(getattr(row.cell, f) for f in by)
        groups.setdefault(key, []).append(row)
    out = {}
    for key, members in groups.items():
        out[key] = {
            "a_dist": _mean([m.a_dist for m in members]),
            "b_pct": _mean([m.b_pct for m in members]),
            "c_len": _mean([m.c_len for m in members]),
            "d_norm": _mean([m.d_norm for m in members]),
            "coverage": float(np.mean([m.covered for m in members])),
            "n": len(members),
        }
    return out


_FAMILY_FIELD = {"diffpred": "a_dist", "%pred": "b_pct", "int": "c_len", "ab": "d_norm"}


def summary_table(rows: list[MetricRow]) -> list[tuple[str, dict[str, float | None]]]:
    """The 36-row aggregated layout: 4 metric families x 9 variants.

    Returns (label, columns) pairs in output order, where columns map
    General/Conformal/Split/Jackknife to means (None when a cell never
    produced a defined value). %pred is scaled to percentage points.
    The General column is the mean of the three method columns.
    """
    cells = aggregate(rows, by=("regressor", "path", "method"))
    table = []
    for family in METRIC_FAMILIES:
        for reg, path in product(Regressor, IntervalPath):
            columns: dict[str, float | None] = {}
            for method, method_label in METHOD_LABELS.items():
                stats = cells.get((reg.value, path.value, method.value))
                value = stats[_FAMILY_FIELD[family]] if stats else None
                if value is not None and family == "%pred":
                    value *= 100.0
                columns[method_label] = value
            columns["General"] = _mean(list(columns.values()))
            table.append((family + variant_code(reg, path), columns))
    return table
