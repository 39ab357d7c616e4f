"""Workload definitions for the run_grid benchmark.

A workload is an endless, seed-determined sequence of instances; one
instance is the input of one ``relconf.runner.run_grid`` call. Instance
``j`` of seed ``s`` uses the sub-seed ``s * 1000 + j``, so two seeds never
share an instance and instance 0 of seed 0 is the program's default seed.
A run measures as many instances as fit in its time budget: the mean over
many independent instances is what keeps a run's figures steady from one
seed to the next, because the cost of a single instance depends on its data.

This module imports nothing heavy at module level: the set-up probe uses
``manifest_kwargs`` to time only the program's own import and manifest.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

SEED_STRIDE = 1000

# Relative names: the worker runs inside its work directory, so the paths
# (which enter the program's config hash and CSV headers) are the same in
# every checkout and the output digests can be compared across runs.
TRAIN_CSV = "train.csv"
QUERIES_CSV = "queries.csv"
OUTPUT_DIR = "out"

# small_grid: the built-in `small` suite with every regressor, method and
# similarity; the suite is generated inside run_grid from the manifest seed.
# lasso_cv_block: one 100-row, p = 12 block of the `long` suite and its first
# query, LASSO split conformal only. min_relevant = 60 gives relevant and
# simulated sets of 60 rows, so the CV folds hold 24 rows with p = 12; at the
# default of 30 the folds hold 12 rows and one cell takes 3-25 s depending on
# the draw, too uneven to measure steadily in one run.
# kernel_pooled: four `small` draws pooled into 3 000 rows, p = 2, one query,
# OLS and kernel under every method. The kernel's (n, n, p) float64
# temporaries (144 MB) exceed the last-level cache. Percentile selection
# keeps every path's size fixed (3 000 / 300 / 300 rows); cosine selection
# sizes follow the query direction and are measured on small_grid.
WORKLOADS = {
    "small_grid": dict(
        cells=3 * 2 * 3 * 3,
        similarities=("percentile", "cosine"),
        trace_instances=1,
        reference_instances=12,
    ),
    "lasso_cv_block": dict(
        cells=1,
        similarities=("percentile",),
        trace_instances=6,
        reference_instances=48,
    ),
    "kernel_pooled": dict(
        cells=1 * 1 * 2 * 3,
        similarities=("percentile",),
        trace_instances=2,
        reference_instances=16,
    ),
}

KERNEL_POOL_DRAWS = 4


def subseed(seed: int, index: int) -> int:
    return int(seed) * SEED_STRIDE + int(index)


def manifest_kwargs(workload: str, seed: int, index: int) -> dict:
    """RunManifest arguments of one instance (plain values, JSON-safe)."""
    sub = subseed(seed, index)
    if workload == "small_grid":
        return dict(suite="small", seed=sub, output_dir=OUTPUT_DIR)
    common = dict(
        suite="external-csv",
        train_csv=TRAIN_CSV,
        queries_csv=QUERIES_CSV,
        seed=sub,
        output_dir=OUTPUT_DIR,
    )
    if workload == "lasso_cv_block":
        return dict(
            common,
            regressors=["lasso"],
            methods=["split"],
            similarities=["percentile"],
            min_relevant=60,
        )
    if workload == "kernel_pooled":
        return dict(common, regressors=["ols", "kernel"], similarities=["percentile"])
    raise KeyError(workload)


@dataclass(frozen=True)
class Instance:
    """One run_grid input: its manifest arguments plus what the checks need."""

    workload: str
    index: int
    kwargs: dict
    cells: int
    y_range: float  # spread of the training heads; bounds every path's grid step


def prepare(workload: str, seed: int, index: int, workdir: Path) -> Instance:
    """Generate the instance's inputs from relconf.dgp and write its CSVs."""
    import numpy as np

    from relconf import dgp
    from relconf.core import Dataset, save_csv

    sub = subseed(seed, index)
    if workload == "small_grid":
        y = dgp.gen_small(sub).dataset.y
    else:
        if workload == "lasso_cv_block":
            suite = dgp.gen_long(sub)
            labels = np.asarray(suite.setting_labels)
            train = suite.dataset.subset(np.flatnonzero(labels == "DGP_1"))
            query = suite.queries[suite.query_labels.index("DGP_1")]
        else:
            draws = [dgp.gen_small(KERNEL_POOL_DRAWS * sub + i) for i in range(KERNEL_POOL_DRAWS)]
            train = Dataset(
                np.vstack([s.dataset.x for s in draws]),
                np.concatenate([s.dataset.y for s in draws]),
            )
            query = draws[0].queries[index % len(draws[0].queries)]
        save_csv(train, workdir / TRAIN_CSV)
        save_csv(
            Dataset(query.x0[None, :], [query.y0], train.feature_names, "y0"),
            workdir / QUERIES_CSV,
        )
        y = train.y
    return Instance(
        workload=workload,
        index=index,
        kwargs=manifest_kwargs(workload, seed, index),
        cells=WORKLOADS[workload]["cells"],
        y_range=float(y.max() - y.min()),
    )
