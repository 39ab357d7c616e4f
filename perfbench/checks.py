"""Output checks for one run_grid call.

Every call is checked for structure: each raw table has 19 rows, each
summary 36, plotdata one row per interval, and every interval has finite
``point``/``lo``/``up`` with ``lo <= up``. For seed 0 the intervals are also
compared with the reference values in ``reference/<workload>.json``,
recorded by ``record_reference.py``:

* ``point`` and the split and jackknife bounds: ``|a - b| <= REL_TOL * (1 + |b|)``.
* full-conformal bounds snap to the candidate grid of ``grid_points``
  heads spread over the heads' range widened by ``grid_expansion`` on each
  side, so a model drift of ~1e-8 can move them by one grid step. They may
  differ by one step of the widest grid (the one on the full training
  heads) plus ``REL_TOL * (1 + |b|)``.

A cell is one query x similarity x regressor x method; it fails when any
of its three intervals fails a check.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

RAW_ROWS = 19
SUMMARY_ROWS = 36
PATHS = ("standard", "relevant", "relevant_simulated")
REL_TOL = 1e-6
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[1:]  # drop the header


def csv_digests(written: dict[str, str]) -> dict[str, str]:
    """sha256 of every CSV the call wrote, by output name."""
    return {
        name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
        for name, path in sorted(written.items())
        if path.endswith(".csv")
    }


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan  # fails the finiteness check


def read_intervals(written: dict[str, str]) -> dict[str, list[float]]:
    """'similarity|query|regressor|method|path' -> [point, lo, up] from plotdata."""
    out = {}
    for r in _rows(Path(written["plotdata"])):
        sim, query, _label, path, method, reg = r[:6]
        out["|".join((sim, query, reg, method, path))] = [_number(v) for v in r[7:10]]
    return out


def cell_of(key: str) -> str:
    return key.rsplit("|", 1)[0]


def structure_ok(written: dict[str, str], similarities, cells: int) -> bool:
    tables = [f"{kind}_{sim}" for kind in ("raw", "summary") for sim in similarities]
    if not set(tables + ["plotdata"]) <= set(written):
        return False
    for sim in similarities:
        if len(_rows(Path(written[f"raw_{sim}"]))) != RAW_ROWS:
            return False
        if len(_rows(Path(written[f"summary_{sim}"]))) != SUMMARY_ROWS:
            return False
    return len(_rows(Path(written["plotdata"]))) == cells * len(PATHS)


def bad_cells(intervals: dict, reference: dict | None, step: float) -> set[str]:
    """Cells with a non-finite or inverted interval, or off the reference."""
    bad = set()
    for key, (point, lo, up) in intervals.items():
        if not all(math.isfinite(v) for v in (point, lo, up)) or lo > up:
            bad.add(cell_of(key))
    if reference is None:
        return bad
    if set(reference) != set(intervals):
        bad.update(cell_of(k) for k in set(reference) ^ set(intervals))
    for key in set(reference) & set(intervals):
        full = key.split("|")[3] == "full"
        for i, (got, want) in enumerate(zip(intervals[key], reference[key])):
            tol = REL_TOL * (1.0 + abs(want))
            if full and i > 0:
                tol += step
            if not abs(got - want) <= tol:
                bad.add(cell_of(key))
    return bad


def grid_step(y_range: float, points: int, expansion: float) -> float:
    """Candidate-grid step of full conformal on heads spanning ``y_range``."""
    return (1.0 + 2.0 * expansion) * y_range / (points - 1)


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())
