"""Behaviour oracle: `relconf run --suite small|long --seed 0` against a recorded plotdata.csv.

`small` is also checked with `--control-mode gaussian_mimic`, whose
relevant + simulated path calibrates on controls drawn from a Gaussian
fitted to the relevant rows instead of jittered clones of them.

All three files were written by the program that solves every LASSO
problem exactly, on its homotopy path; `long` is the oracle of LASSO
cross-validation at p = 12. Labels, heads, coverage and degeneracy flags
must match exactly; forecasts and bounds may drift by float rounding only.
A full-conformal bound snaps to its candidate grid, so a rounding drift in
the model can move it by one step of the widest grid, the one spread over
the training heads.
"""

import csv
from pathlib import Path

import pytest

from relconf.cli import main
from relconf.dgp import SUITES
from relconf.runner import RunManifest

GOLDEN = Path(__file__).parent / "golden"
EXACT = ("similarity", "query", "query_label", "path", "method", "regressor", "y0",
         "covered", "degenerate")
NUMERIC = ("point", "lo", "up", "residual")
ATOL = 1e-12


def read_plotdata(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return [dict(zip(rows[0], r)) for r in rows[1:]], rows[0]


def full_grid_step(suite: str, seed: int) -> float:
    m = RunManifest(suite=suite, seed=seed)
    y = SUITES[suite](seed).dataset.y
    return (1.0 + 2.0 * m.grid_expansion) * float(y.max() - y.min()) / (m.grid_points - 1)


def check_against_golden(tmp_path, suite: str, rows: int, control_mode: str = "perturb"):
    args = ["run", "--suite", suite, "--seed", "0", "--out", str(tmp_path)]
    name = f"plotdata_{suite}_seed0.csv"
    if control_mode != "perturb":
        args += ["--control-mode", control_mode]
        name = f"plotdata_{suite}_{control_mode}_seed0.csv"
    assert main(args) == 0
    got, got_header = read_plotdata(tmp_path / "plotdata.csv")
    want, want_header = read_plotdata(GOLDEN / name)
    assert got_header == want_header
    assert len(got) == len(want) == rows
    step = full_grid_step(suite, 0)
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


def test_small_seed0_plotdata_matches_golden(tmp_path):
    check_against_golden(tmp_path, "small", 162)


def test_small_gaussian_mimic_seed0_plotdata_matches_golden(tmp_path):
    check_against_golden(tmp_path, "small", 162, control_mode="gaussian_mimic")


def test_long_seed0_plotdata_matches_golden(tmp_path):
    check_against_golden(tmp_path, "long", 810)
