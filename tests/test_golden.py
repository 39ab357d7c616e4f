"""Behaviour oracle: `relconf run --suite small --seed 0` against a recorded plotdata.csv.

The golden file was written by the program before LASSO jackknife refits
were batched. Labels, heads, coverage and degeneracy flags must match
exactly; forecasts and bounds may drift by float rounding only. A
full-conformal bound snaps to its candidate grid, so a rounding drift in
the model can move it by one step of the widest grid, the one spread over
the training heads.
"""

import csv
from pathlib import Path

import pytest

from relconf.cli import main
from relconf.dgp import gen_small
from relconf.runner import RunManifest

GOLDEN = Path(__file__).parent / "golden" / "plotdata_small_seed0.csv"
EXACT = ("similarity", "query", "query_label", "path", "method", "regressor", "y0",
         "covered", "degenerate")
NUMERIC = ("point", "lo", "up", "residual")
ATOL = 1e-12


def read_plotdata(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return [dict(zip(rows[0], r)) for r in rows[1:]], rows[0]


def full_grid_step(seed: int) -> float:
    m = RunManifest(suite="small", seed=seed)
    y = gen_small(seed).dataset.y
    return (1.0 + 2.0 * m.grid_expansion) * float(y.max() - y.min()) / (m.grid_points - 1)


def test_small_seed0_plotdata_matches_golden(tmp_path):
    assert main(["run", "--suite", "small", "--seed", "0", "--out", str(tmp_path)]) == 0
    got, got_header = read_plotdata(tmp_path / "plotdata.csv")
    want, want_header = read_plotdata(GOLDEN)
    assert got_header == want_header
    assert len(got) == len(want) == 162
    step = full_grid_step(0)
    for g, w in zip(got, want):
        cell = "|".join(w[c] for c in EXACT[:6])
        for column in EXACT:
            assert g[column] == w[column], (cell, column)
        for column in NUMERIC:
            tol = ATOL
            if w["method"] == "full" and column in ("lo", "up"):
                tol += step
            assert float(g[column]) == pytest.approx(float(w[column]), rel=0, abs=tol), (
                cell, column,
            )
