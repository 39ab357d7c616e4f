"""Acceptance gate for the shipped artifact.

Ten criteria, one test each, asserted with the tolerances the package
commits to. Criteria 01-04 and 10 are the checks in ``relconf.oracles``,
which ``relconf selftest`` runs too. Every test prints a single
bracketed PASS/FAIL line with the measured quantities (visible with
``pytest -s`` or in the -rA summary via the test outcome).
"""

import itertools
import math
import time
from dataclasses import replace
from pathlib import Path
from statistics import median

import numpy as np

from relconf import oracles
from relconf.conformal import ConformalSpec, conformal_interval
from relconf.core import (
    ConformalMethod,
    Dataset,
    ExperimentConfig,
    Query,
    Regressor,
    Similarity,
)
from relconf.dgp import gen_setting
from relconf.evaluate import METRIC_FAMILIES, VARIANT_ORDER
from relconf.individualize import (
    select_cosine,
    select_percentile,
    simulate_controls,
)
from relconf.runner import RunManifest, run_algorithm1, run_grid


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {criterion:02d}] {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_split_coverage_setting_a():
    report(1, *oracles.split_coverage())


def test_criterion_02_full_conformal_matches_brute_force():
    report(2, *oracles.full_conformal_brute_force())


def test_criterion_03_jackknife_matches_naive_refits():
    report(3, *oracles.jackknife_leave_one_out())


def test_criterion_04_lasso_correctness():
    report(4, *oracles.lasso_correctness())


def test_criterion_05_relevant_intervals_adapt_to_low_noise_queries():
    """Heteroskedastic setting, split/OLS, alpha=0.1, percentile selection
    at the alpha fraction: for queries whose first tail coordinate falls
    below the training median, the relevant interval is shorter than the
    standard one on average over 200 replications, by more than two
    standard errors. min_relevant is set to 10 so the alpha fraction
    (25 of 250 rows), not the floor, governs the selection."""
    cfg = ExperimentConfig(
        alpha=0.1,
        regressor=Regressor.OLS,
        similarity=Similarity.PERCENTILE,
        method=ConformalMethod.SPLIT,
        min_relevant=10,
    )
    diffs = []
    for seed in itertools.count():
        d, q = gen_setting("C", seed=seed)
        if q.x0[0] >= np.median(d.x[:, 0]):
            continue
        standard, relevant, _ = run_algorithm1(d, q, replace(cfg, seed=seed))
        diffs.append(standard.length - relevant.length)
        if len(diffs) == 200:
            break
    diffs = np.asarray(diffs)
    mean = float(diffs.mean())
    se = float(diffs.std(ddof=1) / math.sqrt(len(diffs)))
    report(
        5,
        mean > 0 and mean / se > 2.0,
        f"mean length saving {mean:.3f}, SE {se:.3f}, t={mean / se:.2f} (need > 2)",
    )


def test_criterion_06_containment_and_monotonicity():
    """Over 100 seeded trials: the control set has exactly n_r rows and,
    in perturb mode, carries the relevant rows' heads in selection order;
    split and jackknife interval lengths are non-increasing in alpha over
    {0.05, 0.1, 0.2, 0.5} (full conformal checked on every tenth trial);
    cosine selection sizes are non-increasing in gamma over
    {0.5, 0.7, 0.9, 0.99} down to the min_relevant floor. Zero violations
    allowed."""
    alphas = (0.05, 0.1, 0.2, 0.5)
    gammas = (0.5, 0.7, 0.9, 0.99)
    violations = 0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        n = 60
        x = rng.normal(0.0, 1.0, size=(n, 2))
        y = x @ np.array([1.0, -0.5]) + rng.normal(0.0, 1.0, size=n)
        d = Dataset(x, y)
        x0 = rng.normal(0.0, 1.0, size=2)

        selection = select_percentile(d, x0, alpha=0.2, min_relevant=10)
        controls = simulate_controls(d, selection.indices, noise_scale=0.1, seed=trial)
        n_r = selection.n_relevant
        heads_ok = controls.n == n_r and np.array_equal(controls.y, d.y[selection.indices])
        violations += int(not heads_ok)

        for method in (ConformalMethod.SPLIT, ConformalMethod.JACKKNIFE):
            lengths = [
                conformal_interval(
                    d,
                    Regressor.OLS,
                    x0,
                    ConformalSpec(method=method, alpha=a),
                    seed=trial,
                ).length
                for a in alphas
            ]
            violations += sum(
                lengths[i + 1] > lengths[i] + 1e-12 for i in range(len(lengths) - 1)
            )
        if trial % 10 == 0:
            lengths = [
                conformal_interval(
                    d,
                    Regressor.OLS,
                    x0,
                    ConformalSpec(
                        method=ConformalMethod.FULL, alpha=a, grid_points=40
                    ),
                ).length
                for a in alphas
            ]
            violations += sum(
                lengths[i + 1] > lengths[i] + 1e-12 for i in range(len(lengths) - 1)
            )

        xp = rng.uniform(1.0, 2.0, size=(n, 2))
        dp = Dataset(xp, xp @ np.array([1.0, 0.5]) + rng.normal(0.0, 0.3, size=n))
        x0p = rng.uniform(1.0, 2.0, size=2)
        sizes = [
            select_cosine(dp, x0p, gamma=g, min_relevant=10).n_relevant
            for g in gammas
        ]
        violations += sum(
            sizes[i + 1] > sizes[i] for i in range(len(sizes) - 1)
        )
        violations += sum(s < 10 for s in sizes)
    report(6, violations == 0, f"{violations} violations across 100 trials (need 0)")


def test_criterion_07_three_paths_collapse_when_selection_is_degenerate():
    """gamma -> 0 (cosine selects every row) and noise_scale = 1e-12:
    standard, relevant, and relevant+simulated intervals agree to 1e-6
    for every conformal method on a shared seed."""
    rng = np.random.default_rng(707)
    n = 50
    x = rng.uniform(1.0, 2.0, size=(n, 2))  # positive orthant: cosines near 1
    y = x @ np.array([1.0, 0.5]) + rng.normal(0.0, 0.3, size=n)
    d = Dataset(x, y)
    q = Query(np.array([1.5, 1.5]))
    worst = 0.0
    for method in ConformalMethod:
        cfg = ExperimentConfig(
            similarity=Similarity.COSINE,
            gamma=1e-6,
            noise_scale=1e-12,
            min_relevant=4,
            method=method,
            regressor=Regressor.OLS,
            grid_points=60,
            seed=7,
        )
        standard, relevant, simulated = run_algorithm1(d, q, cfg)
        for iv in (relevant, simulated):
            for attr in ("point", "lo", "up"):
                worst = max(worst, abs(getattr(iv, attr) - getattr(standard, attr)))
    report(7, worst <= 1e-6, f"max path disagreement {worst:.2e} (need <= 1e-6)")


EXPECTED_RAW_LABELS = [
    "y0",
    "pred", "predr", "predrs", "predl", "predlr", "predlrs",
    "lo", "lor", "lors", "lol", "lolr", "lolrs",
    "up", "upr", "uprs", "upl", "uplr", "uplrs",
]


def test_criterion_08_structural_golden_files(tmp_path):
    """Small-suite run emits raw tables with exactly the 19 pinned row
    labels and summaries with the 36 pinned rows, byte-stable across
    re-runs of the same manifest."""
    manifest = RunManifest(suite="small", output_dir=str(tmp_path / "a"), seed=0)
    first = run_grid(manifest)
    second = run_grid(replace(manifest, output_dir=str(tmp_path / "b")))

    problems = []
    for sim in ("percentile", "cosine"):
        raw_lines = Path(first[f"raw_{sim}"]).read_text().splitlines()
        body = [l for l in raw_lines if not l.startswith("#")]
        labels = [l.split(",")[0] for l in body[1:]]
        if labels != EXPECTED_RAW_LABELS:
            problems.append(f"raw_{sim} labels {labels}")
        summary_lines = Path(first[f"summary_{sim}"]).read_text().splitlines()
        body = [l for l in summary_lines if not l.startswith("#")]
        expected = [f + v for f in METRIC_FAMILIES for v in VARIANT_ORDER]
        if [l.split(",")[0] for l in body[1:]] != expected:
            problems.append(f"summary_{sim} labels")
    for name in sorted(first):
        if name == "manifest":
            continue  # records output_dir, which differs by design
        if Path(first[name]).read_bytes() != Path(second[name]).read_bytes():
            problems.append(f"{name} not byte-stable")
    report(8, not problems, "; ".join(problems) or "19+36 row labels exact, re-run byte-identical")


def test_criterion_09_cost_ordering():
    """Wall time split < jackknife < full on n=250, p=2, OLS, same query,
    with at least 2x separation between split and full."""
    rng = np.random.default_rng(909)
    x = rng.normal(0.0, 1.0, size=(250, 2))
    y = x @ np.array([1.0, -1.0]) + rng.normal(0.0, 1.0, size=250)
    d = Dataset(x, y)
    x0 = np.array([0.3, -0.1])

    # interleaved rounds so clock-speed drift hits all methods equally
    methods = (ConformalMethod.SPLIT, ConformalMethod.JACKKNIFE, ConformalMethod.FULL)
    samples = {m: [] for m in methods}
    for _ in range(60):
        for m in methods:
            spec = ConformalSpec(method=m, alpha=0.1)
            start = time.perf_counter()
            conformal_interval(d, Regressor.OLS, x0, spec, seed=1)
            samples[m].append(time.perf_counter() - start)
    t_split, t_jack, t_full = (median(samples[m]) for m in methods)
    ok = t_split < t_jack < t_full and t_full >= 2.0 * t_split
    report(
        9,
        ok,
        f"split {t_split * 1e3:.2f}ms < jackknife {t_jack * 1e3:.2f}ms < "
        f"full {t_full * 1e3:.2f}ms, full/split = {t_full / t_split:.1f}x (need >= 2x)",
    )


def test_criterion_10_metric_arithmetic():
    report(10, *oracles.metric_arithmetic())
