"""End-to-end experiment driver.

One query passes through three stages: cell setup (query check and
selection floor), its neighbourhood (the similarity-selected rows and
the synthetic controls built from them), and one conformal interval per
path: standard on the full dataset, relevant on the selected rows,
relevant+simulated on the controls. Each cell's config is its own
conformal spec. All three paths share one conformal seed per query, so
they differ only through the data they see.

One loop per training set composes the stages for its queries'
configurations, computing a query's standard interval once per
(regressor, method) and its neighbourhood once per (similarity,
selection floor). ``run_algorithm1`` runs it on one query and config;
``run_grid`` on {full, split, jackknife} x {ols, lasso, kernel} x
{percentile, cosine} for every training set of a suite, turning each
interval into its plot-data row as it comes. From those rows it writes
deterministic CSV outputs: per-query raw tables, summary tables scored
from the rows (as ``relconf score`` scores a saved file), and the
plot-data file. Every CSV carries version, seed, and config hash in
``#`` comment lines; no timestamps, so re-runs are byte-identical.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from itertools import count, groupby, product
from pathlib import Path

import numpy as np

from .conformal import _check_rows, conformal_interval
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
    _choice,
    _parse_cell,
    _query_tail,
    check_knobs,
    load_csv,
    subseed,
    write_csv,
)
from .dgp import SUITES
from .evaluate import METHOD_LABELS, Cell, MetricRow, score, summary_table, variant_code
from .individualize import ControlMode, select, simulate_controls
from .regress import fit, loo_residuals

__all__ = [
    "RunManifest",
    "run_algorithm1",
    "run_grid",
    "score_plot_rows",
    "write_summary_csv",
    "SUITE_NAMES",
]

SUITE_NAMES = ("small", "long", "external-csv")

_METHOD_ORDER = tuple(METHOD_LABELS)

# raw-table rows cover the linear engines only; kernel cells appear in the
# summary tables and plot data
_RAW_VARIANTS = tuple(
    (reg.value, path.value)
    for reg, path in product((Regressor.OLS, Regressor.LASSO), IntervalPath)
)


def _setup(d: Dataset, q: Query, cfg: ExperimentConfig):
    """Check one cell's inputs; return (x0, selection floor).

    The floor is ``min_relevant`` raised to the smallest dataset the
    conformal method and regressor can run on, and capped at ``d.n``.
    """
    x0 = _query_tail(d, q.x0)
    # refused here, before the loop's own fits, by conformal_interval's rule
    needed = _check_rows(d, cfg, cfg.regressor)
    return x0, min(max(int(cfg.min_relevant), needed), d.n)


def _query_intervals(d, queries, configs, control_mode):
    """Yield (query, cfg, (standard, relevant, relevant_simulated)) for
    each query of training set ``d``, an (index, Query, label) triple, and
    each config.

    The configs differ only in regressor, similarity and method, so a
    query has one conformal and one controls seed, and the keys that
    share the standard interval, the neighbourhood and the base fit are
    complete. Full conformal and the jackknife on one path's rows share a
    base fit, made on first use. OLS and the kernel read no seed, and the
    jackknife's scores (the absolute leave-one-out residuals) depend only
    on the rows and the fit, so those engines' standard-path fits and
    scores serve every query of ``d``; every other fit serves one query.
    """
    # (path, regressor) -> (base fit, jackknife scores or None)
    trained = {}
    for query in queries:
        query_index, q, _ = query
        seed = subseed(configs[0].seed, "conformal", query_index)
        controls_seed = subseed(configs[0].seed, "controls", query_index)
        standard, neighbourhoods, bases = {}, {}, {}

        def interval(rows, path, cfg, x0) -> PredictionInterval:
            if cfg.method is ConformalMethod.SPLIT:
                return conformal_interval(rows, cfg.regressor, x0, cfg, seed=seed)
            shared = path is IntervalPath.STANDARD and cfg.regressor is not Regressor.LASSO
            table = trained if shared else bases
            key = path, cfg.regressor
            base, scores = table.get(key) or (fit(rows, cfg.regressor, seed=seed), None)
            if shared and scores is None and cfg.method is ConformalMethod.JACKKNIFE:
                # a query's own scores serve one jackknife, which makes them itself
                scores = np.abs(loo_residuals(rows.x, rows.y, base))
            table[key] = base, scores
            return conformal_interval(
                rows, cfg.regressor, x0, cfg, seed=seed, base=base, scores=scores
            )

        for cfg in configs:
            x0, floor = _setup(d, q, cfg)
            cell = (cfg.regressor, cfg.method)
            if cell not in standard:
                standard[cell] = interval(d, IntervalPath.STANDARD, cfg, x0)
            hood = (cfg.similarity, floor)
            if hood not in neighbourhoods:
                # the relevant rows and the synthetic controls cloned from them
                rel = select(d, x0, cfg.similarity, cfg.alpha, cfg.gamma, min_relevant=floor)
                neighbourhoods[hood] = d.subset(rel.indices), simulate_controls(
                    d, rel.indices, cfg.noise_scale, mode=control_mode, seed=controls_seed
                )
            relevant, simulated = neighbourhoods[hood]
            yield query, cfg, (
                standard[cell],
                interval(relevant, (IntervalPath.RELEVANT, hood), cfg, x0),
                interval(simulated, (IntervalPath.RELEVANT_SIMULATED, hood), cfg, x0),
            )


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
    path 3 calibrates on the n_r synthetic controls built from it alone,
    without the relevant rows themselves. The conformal stage of every
    path uses the same derived seed, so with a degenerate selection and
    vanishing noise the paths coincide.

    If the selection would be smaller than the conformal method's
    minimum sample size for the regressor, the ``min_relevant`` floor is
    raised to that minimum; only a dataset below the minimum is a hard
    error.
    """
    ((_, _, triple),) = _query_intervals(d, [(query_index, q, None)], (cfg,), control_mode)
    return triple


# the grid's choice lists and the enum of their entries
_CHOICE_FIELDS = {"regressors": Regressor, "methods": ConformalMethod, "similarities": Similarity}


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
        for name, kind in _CHOICE_FIELDS.items():
            values = getattr(self, name)
            # the enums are str: a bare name is one choice, not its characters
            values = (values,) if isinstance(values, str) else values
            object.__setattr__(self, name, tuple(_choice(kind, v) for v in values))
        object.__setattr__(self, "control_mode", _choice(ControlMode, self.control_mode))
        for name in _CHOICE_FIELDS:
            values = getattr(self, name)
            if not values:
                raise ConfigError(f"{name} must be non-empty")
            # a repeated choice would run, write and average its cells twice
            repeated = [v.value for v in values if values.count(v) > 1]
            if repeated:
                raise ConfigError(f"{name} lists {repeated[0]!r} more than once")
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
        return ExperimentConfig(regressor=regressor, similarity=similarity, method=method, **shared)


# where the outputs go and when the run started change no output byte
_UNHASHED = ("output_dir", "created")


def _text(value) -> str:
    """A manifest value as written into manifest.txt and the config hash."""
    if isinstance(value, tuple):
        return "+".join(v.value for v in value)
    return "" if value is None else str(getattr(value, "value", value))


def _load_grid_data(manifest: RunManifest):
    """Each training set with its queries, as (index, Query, label)
    triples, in query order.

    The small suite pools all rows for every query (relevance selection
    is what separates the regimes); the long suite trains each query on
    its own generating block, whose queries ``dgp._pool`` lists together;
    external CSVs pool like the small suite.
    """
    if manifest.suite in SUITES:
        out = SUITES[manifest.suite](manifest.seed)
        queries = list(zip(count(), out.queries, out.query_labels))
        if manifest.suite == "small":
            return [(out.dataset, queries)]
        labels = np.asarray(out.setting_labels)
        return [
            (out.dataset.subset(np.flatnonzero(labels == lab)), list(block))
            for lab, block in groupby(queries, key=lambda query: query[2])
        ]
    train = load_csv(manifest.train_csv, head_column="y")
    qd = load_csv(manifest.queries_csv, head_column="y0")
    if qd.p != train.p or qd.feature_names != train.feature_names:
        raise DataError(
            f"query features {qd.feature_names} do not match training features "
            f"{train.feature_names}"
        )
    return [(train, [(i, Query(qd.x[i], float(qd.y[i])), str(i + 1)) for i in range(qd.n)])]


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _raw_table(rows: list[dict], y0s: list):
    """One similarity's raw table, pivoted from its plotdata rows; a cell
    that no row fills (a method or linear engine left out) stays blank."""
    n_queries = len(y0s)
    header = ["variable"] + [
        f"{METHOD_LABELS[m]}_q{k + 1}" for m in _METHOD_ORDER for k in range(n_queries)
    ]
    table = [["y0"] + [_fmt(y0) for _ in _METHOD_ORDER for y0 in y0s]]
    table += [
        [prefix + variant_code(*variant)] + [""] * (len(_METHOD_ORDER) * n_queries)
        for prefix in ("pred", "lo", "up")
        for variant in _RAW_VARIANTS
    ]
    for row in rows:
        variant = (row["regressor"], row["path"])
        if variant not in _RAW_VARIANTS:
            continue
        method = _METHOD_ORDER.index(ConformalMethod(row["method"]))
        column = 1 + method * n_queries + int(row["query"]) - 1
        for i, attr in enumerate(("point", "lo", "up")):
            table[1 + i * len(_RAW_VARIANTS) + _RAW_VARIANTS.index(variant)][column] = row[attr]
    return header, table


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


def _plot_row(cfg, query_index: int, label: str, q: Query, path, iv) -> dict[str, str]:
    """One plotdata row (column -> text), scored against the query's
    realized head, which every query of a run has."""
    return dict(zip(_PLOT_HEADER, (
        cfg.similarity.value, str(query_index + 1), label, path.value,
        cfg.method.value, cfg.regressor.value,
        _fmt(q.y0), _fmt(iv.point), _fmt(iv.lo), _fmt(iv.up),
        _fmt(q.y0 - iv.point), str(int(iv.lo <= q.y0 <= iv.up)),
        str(int(iv.degenerate)),
    )))


# the plotdata columns that scoring reads, and the names each cell column may hold
_SCORED_COLUMNS = ("similarity", "query", "path", "method", "regressor", "y0", "point", "lo", "up")
_CELL_NAMES = {
    column: {member.value for member in kind}
    for column, kind in (
        ("similarity", Similarity), ("path", IntervalPath),
        ("method", ConformalMethod), ("regressor", Regressor),
    )
}


def score_plot_rows(rows: Iterable[Mapping[str, str]]) -> dict[str, list[MetricRow]]:
    """Each similarity's metric rows from plotdata rows (column -> text).

    Every row is scored: a missing column, a similarity, path, method or
    regressor cell that names no member of its kind, or a number (``y0``
    included) that is not a finite real, is a DataError naming it, as is
    a row of a (similarity, query, path, method, regressor) cell that an
    earlier row holds, which would be averaged in twice. ``run_grid`` and
    ``relconf score`` both summarise through this, so their summaries agree.
    """
    by_similarity: dict[str, list[MetricRow]] = {}
    seen = set()
    for i, row in enumerate(rows, 1):
        missing = [c for c in _SCORED_COLUMNS if c not in row]
        if missing:
            raise DataError(f"plotdata has no column {', '.join(map(repr, missing))}")
        for column, names in _CELL_NAMES.items():
            if row[column] not in names:
                raise DataError(f"unknown name {row[column]!r} at data row {i}, column {column!r}")
        y0, point, lo, up = (_parse_cell(row[c], i, c) for c in ("y0", "point", "lo", "up"))
        cell = Cell(row["path"], row["method"], row["regressor"], row["similarity"], row["query"])
        if cell in seen:
            raise DataError(f"repeated cell at data row {i}: {cell}")
        seen.add(cell)
        by_similarity.setdefault(row["similarity"], []).append(
            score(PredictionInterval(point, lo, up), y0, cell)
        )
    return by_similarity


def run_grid(manifest: RunManifest) -> dict[str, str]:
    """Execute the full grid and write output files; returns name -> path."""
    out_dir = Path(manifest.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    groups = _load_grid_data(manifest)
    cells = product(manifest.similarities, manifest.regressors, manifest.methods)
    configs = [manifest.base_config(reg, sim, method) for sim, reg, method in cells]
    # plotdata runs similarity -> query -> regressor -> method -> path
    rows_by_similarity = {sim: [] for sim in manifest.similarities}
    for d, queries in groups:
        intervals = _query_intervals(d, queries, configs, manifest.control_mode)
        for (qidx, q, qlabel), cfg, triple in intervals:
            # a triple runs in IntervalPath order, so its position names the path
            rows_by_similarity[cfg.similarity] += (
                _plot_row(cfg, qidx, qlabel, q, path, iv)
                for path, iv in zip(IntervalPath, triple)
            )
    plot_rows = [row for rows in rows_by_similarity.values() for row in rows]
    metric_rows = score_plot_rows(plot_rows)

    comments = [
        f"version={ARTIFACT_VERSION}",
        f"seed={manifest.seed}",
        f"config_hash={manifest.config_hash()}",
    ]
    written: dict[str, str] = {}
    y0s = [q.y0 for _, queries in groups for _, q, _ in queries]
    for sim, rows in rows_by_similarity.items():
        raw_path = out_dir / f"raw_{sim.value}.csv"
        write_csv(raw_path, *_raw_table(rows, y0s), comments)
        written[f"raw_{sim.value}"] = str(raw_path)

        summary_path = out_dir / f"summary_{sim.value}.csv"
        write_summary_csv(summary_path, comments, metric_rows.get(sim.value, []))
        written[f"summary_{sim.value}"] = str(summary_path)

    plot_path = out_dir / "plotdata.csv"
    write_csv(plot_path, _PLOT_HEADER, (row.values() for row in plot_rows), comments)
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
