"""End-to-end experiment driver.

One query passes through three stages: cell setup (query check,
conformal spec, selection floor), its neighbourhood (the
similarity-selected rows and the synthetic controls built from them),
and one conformal interval per path: standard on the full dataset,
relevant on the selected rows, relevant+simulated on the controls. All
three paths share one conformal seed per query, so they differ only
through the data they see.

``run_algorithm1`` composes the stages for one configuration.
``run_grid`` sweeps {full, split, jackknife} x {ols, lasso, kernel} x
{percentile, cosine} x all queries of a suite through the same stages,
computing a query's standard interval once per (regressor, method) and
its neighbourhood once per (similarity, selection floor). It writes
deterministic CSV outputs: per-query raw tables, aggregated summary
tables scored from the rows of a flat plot-data file (as ``relconf
score`` scores a saved one), and that file. Every CSV carries version, seed, and
config hash in ``#`` comment lines; no timestamps, so re-runs are
byte-identical.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from itertools import product
from pathlib import Path

import numpy as np

from .conformal import ConformalSpec, _min_rows, conformal_interval
from .core import (
    ARTIFACT_VERSION,
    ConfigError,
    ConformalMethod,
    DataError,
    Dataset,
    ExperimentConfig,
    IntervalPath,
    PredictionInterval,
    Query,
    Regressor,
    Similarity,
    check_knobs,
    load_csv,
    subseed,
    write_csv,
)
from .dgp import SUITES
from .evaluate import METHOD_LABELS, Cell, MetricRow, score, summary_table, variant_code
from .individualize import ControlMode, select, simulate_controls

__all__ = [
    "RunManifest",
    "run_algorithm1",
    "run_grid",
    "score_plot_rows",
    "write_summary_csv",
    "SUITE_NAMES",
]

SUITE_NAMES = ("small", "long", "external-csv")

_METHOD_ORDER = (ConformalMethod.FULL, ConformalMethod.SPLIT, ConformalMethod.JACKKNIFE)

# raw-table rows cover the linear engines only; kernel cells appear in the
# summary tables and plot data
_RAW_VARIANTS = tuple(
    (variant_code(reg, path), reg, path)
    for reg, path in product((Regressor.OLS, Regressor.LASSO), IntervalPath)
)


_SPEC_KNOBS = tuple(f.name for f in fields(ConformalSpec) if f.name != "method")


def _setup(d: Dataset, q: Query, cfg: ExperimentConfig):
    """Check one cell's inputs; return (x0, conformal spec, selection floor).

    The floor is ``min_relevant`` raised to the smallest dataset the
    conformal method and regressor can run on, and capped at ``d.n``.
    """
    x0 = np.asarray(q.x0, dtype=float).ravel()
    if x0.size != d.p:
        raise DataError(f"query has {x0.size} features, dataset has {d.p}")
    spec = ConformalSpec(
        cfg.conformal_method, **{name: getattr(cfg, name) for name in _SPEC_KNOBS}
    )
    needed = _min_rows(spec, cfg.regressor)
    if d.n < needed:
        raise DataError(
            f"{cfg.conformal_method.value} conformal with {cfg.regressor.value} "
            f"needs n >= {needed}, got n={d.n}"
        )
    return x0, spec, min(max(int(cfg.min_relevant), needed), d.n)


def _neighbourhood(d, x0, cfg, floor: int, query_index: int, control_mode):
    """The query's relevant rows and the synthetic controls cloned from them."""
    selection = select(d, x0, cfg.similarity, cfg.alpha, cfg.gamma, min_relevant=floor)
    seed = subseed(cfg.seed, "controls", query_index)
    controls = simulate_controls(d, selection, cfg.noise_scale, mode=control_mode, seed=seed)
    return d.subset(selection.indices), controls.simulated


def _interval(d, x0, cfg, spec, query_index: int, path) -> PredictionInterval:
    """One path's interval, on the query's shared conformal seed."""
    iv = conformal_interval(
        d, cfg.regressor, x0, spec, seed=subseed(cfg.seed, "conformal", query_index)
    )
    return replace(iv, path=path)


def run_algorithm1(
    d: Dataset,
    q: Query,
    cfg: ExperimentConfig,
    query_index: int = 0,
    control_mode=ControlMode.PERTURB,
) -> tuple[PredictionInterval, PredictionInterval, PredictionInterval]:
    """The three-path pipeline for one query.

    Returns (standard, relevant, relevant_simulated) intervals. The
    relevance selection is computed once and shared by paths 2 and 3;
    path 3 calibrates on the synthetic control rows cloned from it. The
    conformal stage of every path uses the same derived seed, so with a
    degenerate selection and vanishing noise the paths coincide.

    If the selection would be smaller than the conformal method's
    minimum sample size for the regressor, the ``min_relevant`` floor is
    raised to that minimum; only a dataset below the minimum is a hard
    error.
    """
    x0, spec, floor = _setup(d, q, cfg)
    neighbourhood = _neighbourhood(d, x0, cfg, floor, query_index, control_mode)
    return tuple(
        _interval(rows, x0, cfg, spec, query_index, path)
        for rows, path in zip((d, *neighbourhood), IntervalPath)
    )


@dataclass(frozen=True)
class RunManifest:
    """Everything one grid run needs, hashable for exact re-runs.

    ``created`` is informational only: it is excluded from the config
    hash and never written into CSV outputs, so re-running the same
    manifest reproduces them byte for byte.
    """

    suite: str = "small"
    output_dir: str = "out"
    train_csv: str | None = None
    queries_csv: str | None = None
    alpha: float = 0.1
    gamma: float = 0.9
    rho: float = 0.5
    noise_scale: float = 0.1
    min_relevant: int = 30
    seed: int = 0
    grid_points: int = 100
    grid_expansion: float = 0.25
    regressors: tuple = (Regressor.OLS, Regressor.LASSO, Regressor.KERNEL)
    methods: tuple = _METHOD_ORDER
    similarities: tuple = (Similarity.PERCENTILE, Similarity.COSINE)
    control_mode: ControlMode = ControlMode.PERTURB
    created: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat(timespec="seconds"),
        compare=False,
    )

    def __post_init__(self):
        if self.suite not in SUITE_NAMES:
            raise ConfigError(f"unknown suite {self.suite!r}; expected one of {SUITE_NAMES}")
        if self.suite == "external-csv" and not (self.train_csv and self.queries_csv):
            raise ConfigError("external-csv suite needs train_csv and queries_csv paths")
        try:
            object.__setattr__(
                self, "regressors", tuple(Regressor(r) for r in self.regressors)
            )
            object.__setattr__(
                self, "methods", tuple(ConformalMethod(m) for m in self.methods)
            )
            object.__setattr__(
                self, "similarities", tuple(Similarity(s) for s in self.similarities)
            )
            object.__setattr__(self, "control_mode", ControlMode(self.control_mode))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not self.regressors or not self.methods or not self.similarities:
            raise ConfigError("regressors, methods, and similarities must be non-empty")
        check_knobs(self)

    def _semantic_items(self) -> list[tuple[str, str]]:
        """(field, text) for every field a run's outputs depend on."""
        return [
            (f.name, _text(getattr(self, f.name)))
            for f in fields(self)
            if f.name not in _UNHASHED
        ]

    def config_hash(self) -> str:
        blob = ";".join(f"{k}={v}" for k, v in self._semantic_items())
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def base_config(self, regressor, similarity, method) -> ExperimentConfig:
        """One grid cell's config: the given choices plus this run's knobs."""
        shared = {
            f.name: getattr(self, f.name)
            for f in fields(ExperimentConfig)
            if hasattr(self, f.name)
        }
        return ExperimentConfig(
            regressor=regressor, similarity=similarity, conformal_method=method, **shared
        )


# where the outputs go and when the run started change no output byte
_UNHASHED = ("output_dir", "created")


def _text(value) -> str:
    """A manifest value as written into manifest.txt and the config hash."""
    if isinstance(value, tuple):
        return "+".join(v.value for v in value)
    return "" if value is None else str(getattr(value, "value", value))


def _load_grid_data(manifest: RunManifest):
    """Per-query training sets, queries, and display labels.

    The small suite pools all rows for every query (relevance selection
    is what separates the regimes); the long suite trains each query on
    its own generating block; external CSVs pool like the small suite.
    """
    if manifest.suite in SUITES:
        out = SUITES[manifest.suite](manifest.seed)
        if manifest.suite == "small":
            datasets = [out.dataset] * len(out.queries)
        else:
            labels = np.asarray(out.setting_labels)
            blocks = {
                lab: out.dataset.subset(np.flatnonzero(labels == lab))
                for lab in dict.fromkeys(out.setting_labels)
            }
            datasets = [blocks[lab] for lab in out.query_labels]
        return datasets, list(out.queries), list(out.query_labels)
    train = load_csv(manifest.train_csv, head_column="y")
    qd = load_csv(manifest.queries_csv, head_column="y0")
    if qd.p != train.p or qd.feature_names != train.feature_names:
        raise DataError(
            f"query features {qd.feature_names} do not match training features "
            f"{train.feature_names}"
        )
    queries = [Query(qd.x[i], float(qd.y[i])) for i in range(qd.n)]
    return [train] * qd.n, queries, [str(i + 1) for i in range(qd.n)]


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _raw_table(results: dict, sim: Similarity, y0s: list, n_queries: int):
    header = ["variable"] + [
        f"{METHOD_LABELS[m]}_q{k + 1}" for m in _METHOD_ORDER for k in range(n_queries)
    ]
    rows = [
        ["y0"] + [_fmt(y0s[k]) for _ in _METHOD_ORDER for k in range(n_queries)]
    ]
    for attr, prefix in (("point", "pred"), ("lo", "lo"), ("up", "up")):
        for code, reg, path in _RAW_VARIANTS:
            cells = []
            for m in _METHOD_ORDER:
                for k in range(n_queries):
                    iv = results.get((sim.value, k, reg.value, m.value, path.value))
                    cells.append(_fmt(getattr(iv, attr)) if iv is not None else "")
            rows.append([prefix + code] + cells)
    return header, rows


def write_summary_csv(path: Path, comments: list[str], metric_rows: list) -> None:
    """The 36-row aggregated table as label,General,Conformal,Split,Jackknife."""
    header = ["label", "General", "Conformal", "Split", "Jackknife"]
    rows = [
        [label] + [_fmt(columns[c]) for c in header[1:]]
        for label, columns in summary_table(metric_rows)
    ]
    write_csv(path, header, rows, comments)


_PLOT_HEADER = (
    "similarity", "query", "query_label", "path", "method", "regressor",
    "y0", "point", "lo", "up", "residual", "covered", "degenerate",
)


def score_plot_rows(rows: Iterable[Mapping[str, str]]) -> dict[str, list[MetricRow]]:
    """Each similarity's metric rows from plotdata rows (column -> text).

    Rows without a realized head are skipped. ``run_grid`` and ``relconf
    score`` both summarise through this, so their summaries agree.
    """
    by_similarity: dict[str, list[MetricRow]] = {}
    for row in rows:
        if row["y0"] == "":
            continue
        iv = PredictionInterval(float(row["point"]), float(row["lo"]), float(row["up"]))
        cell = Cell(row["path"], row["method"], row["regressor"], row["similarity"], row["query"])
        by_similarity.setdefault(row["similarity"], []).append(
            score(iv, float(row["y0"]), cell)
        )
    return by_similarity


def run_grid(manifest: RunManifest) -> dict[str, str]:
    """Execute the full grid and write output files; returns name -> path."""
    out_dir = Path(manifest.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    datasets, queries, qlabels = _load_grid_data(manifest)

    results: dict[tuple, PredictionInterval] = {}
    for qidx, (d, q) in enumerate(zip(datasets, queries)):
        # work shared by this query's cells; the manifest fixes every other
        # input, so these keys are complete
        standard = {}  # (regressor, method) -> standard interval
        neighbourhoods = {}  # (similarity, floor) -> (relevant, simulated) rows
        for sim in manifest.similarities:
            for reg in manifest.regressors:
                for method in manifest.methods:
                    cfg = manifest.base_config(reg, sim, method)
                    x0, spec, floor = _setup(d, q, cfg)
                    if (reg, method) not in standard:
                        standard[reg, method] = _interval(
                            d, x0, cfg, spec, qidx, IntervalPath.STANDARD
                        )
                    if (sim, floor) not in neighbourhoods:
                        neighbourhoods[sim, floor] = _neighbourhood(
                            d, x0, cfg, floor, qidx, manifest.control_mode
                        )
                    relevant, simulated = neighbourhoods[sim, floor]
                    triple = (
                        standard[reg, method],
                        _interval(relevant, x0, cfg, spec, qidx, IntervalPath.RELEVANT),
                        _interval(simulated, x0, cfg, spec, qidx, IntervalPath.RELEVANT_SIMULATED),
                    )
                    for iv in triple:
                        results[sim.value, qidx, reg.value, method.value, iv.path.value] = iv

    plot_rows = []
    for sim in manifest.similarities:
        for qidx, (q, qlabel) in enumerate(zip(queries, qlabels)):
            for reg in manifest.regressors:
                for method in manifest.methods:
                    for path_tag in IntervalPath:
                        iv = results[
                            (sim.value, qidx, reg.value, method.value, path_tag.value)
                        ]
                        has_y0 = q.y0 is not None
                        plot_rows.append([
                            sim.value,
                            str(qidx + 1),
                            qlabel,
                            path_tag.value,
                            method.value,
                            reg.value,
                            _fmt(q.y0) if has_y0 else "",
                            _fmt(iv.point),
                            _fmt(iv.lo),
                            _fmt(iv.up),
                            _fmt(q.y0 - iv.point) if has_y0 else "",
                            str(int(iv.lo <= q.y0 <= iv.up)) if has_y0 else "",
                            str(int(iv.degenerate)),
                        ])
    metric_rows = score_plot_rows(dict(zip(_PLOT_HEADER, row)) for row in plot_rows)

    comments = [
        f"version={ARTIFACT_VERSION}",
        f"seed={manifest.seed}",
        f"config_hash={manifest.config_hash()}",
    ]
    written: dict[str, str] = {}
    y0s = [q.y0 for q in queries]
    for sim in manifest.similarities:
        raw_path = out_dir / f"raw_{sim.value}.csv"
        header, rows = _raw_table(results, sim, y0s, len(queries))
        write_csv(raw_path, header, rows, comments)
        written[f"raw_{sim.value}"] = str(raw_path)

        summary_path = out_dir / f"summary_{sim.value}.csv"
        write_summary_csv(summary_path, comments, metric_rows.get(sim.value, []))
        written[f"summary_{sim.value}"] = str(summary_path)

    plot_path = out_dir / "plotdata.csv"
    write_csv(plot_path, _PLOT_HEADER, plot_rows, comments)
    written["plotdata"] = str(plot_path)

    manifest_path = out_dir / "manifest.txt"
    manifest_lines = [f"version={ARTIFACT_VERSION}", f"created={manifest.created}"]
    manifest_lines += [f"{k}={v}" for k, v in manifest._semantic_items()]
    manifest_lines += [
        f"output_dir={manifest.output_dir}",
        f"config_hash={manifest.config_hash()}",
    ]
    manifest_path.write_text("\n".join(manifest_lines) + "\n")
    written["manifest"] = str(manifest_path)
    return written
