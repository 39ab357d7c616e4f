"""Shared domain types, feature standardization, and CSV input and output.

Everything downstream (regressors, interval constructors, relevance
selection, the experiment runner) works with the immutable containers
defined here: a labeled ``Dataset`` (tail matrix + head vector), a
``Query`` (an unlabeled tail), and the ``PredictionInterval`` record the
pipeline emits.
"""

from __future__ import annotations

import csv
import enum
import hashlib
import math
from dataclasses import dataclass, fields

import numpy as np

ARTIFACT_VERSION = "0.1.0"

__all__ = [
    "ARTIFACT_VERSION",
    "DataError",
    "ConfigError",
    "Regressor",
    "Similarity",
    "ConformalMethod",
    "IntervalPath",
    "Dataset",
    "Query",
    "PredictionInterval",
    "ConformalSpec",
    "ExperimentConfig",
    "check_knob",
    "check_knobs",
    "load_csv",
    "read_csv",
    "save_csv",
    "write_csv",
    "transform_features",
    "subseed",
]


class DataError(ValueError):
    """Raised for malformed input data (bad files, bad shapes, non-finite cells)."""


class ConfigError(ValueError):
    """Raised for invalid configuration values or unknown config keys."""


class Regressor(str, enum.Enum):
    OLS = "ols"
    LASSO = "lasso"
    KERNEL = "kernel"


class Similarity(str, enum.Enum):
    PERCENTILE = "percentile"
    COSINE = "cosine"


class ConformalMethod(str, enum.Enum):
    FULL = "full"
    SPLIT = "split"
    JACKKNIFE = "jackknife"


class IntervalPath(str, enum.Enum):
    STANDARD = "standard"
    RELEVANT = "relevant"
    RELEVANT_SIMULATED = "relevant_simulated"


def _readonly(a, dtype=np.float64) -> np.ndarray:
    """Return a copy flagged read-only (containers are immutable)."""
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


def _tail_rows(x, p: int | None = None, owner: str = "dataset has", one: bool = False):
    """The query-tail rule: ``x`` as a 2-D float array of query rows.

    One tail may be 1-D or a single row; with ``one``, any other number
    of rows is refused. DataError for a tail with no features, other than
    ``p`` features (``owner`` names who expects them) and a non-finite
    entry. ``Query``, ``_query_tail``, ``regress.predict``,
    ``regress.predict_many`` and ``regress.kernel_weights`` read every tail
    through this; a batch of zero rows passes.
    """
    rows = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if rows.ndim != 2:
        raise DataError(f"query tails must be 1-D or 2-D, got ndim={rows.ndim}")
    if one and rows.shape[0] != 1:
        raise DataError(f"one query tail expected, got {rows.shape[0]} rows")
    if rows.shape[1] == 0:
        raise DataError("query tail is empty")
    if p is not None and rows.shape[1] != p:
        raise DataError(f"query has {rows.shape[1]} features, {owner} {p}")
    if not np.all(np.isfinite(rows)):
        raise DataError("non-finite entry in query tail")
    return rows


def _query_tail(d: Dataset, x0) -> np.ndarray:
    """Query tail ``x0`` as a flat float array, by ``_tail_rows`` with
    dataset ``d``'s p features (selection, the conformal constructors and
    the runner call this)."""
    return _tail_rows(x0, d.p, one=True)[0]


def _sq_dists(a: np.ndarray, b: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """Squared Euclidean distance from each row of ``a`` to each row of ``b``.

    Sums one column at a time into the (n, m) result, so no (n, m, p)
    difference cube is built. Columns are added left to right, which is
    numpy's own order for p < 8; from p = 8 on numpy sums pairwise, so an
    entry may differ from ``((a[:, None] - b[None]) ** 2).sum(-1)`` by a few
    ulp. ``out`` and ``tmp``, (n, m) buffers for the result and one column's
    squares, are allocated when not given.

    A result of at least 2^12 entries is formed with a 16-entry ufunc
    buffer. numpy 2.4's iterator copies both broadcast columns through its
    8 192-entry buffer when m is below about a third of it, which made a
    64 x 749 block 2x slower; a 16-entry buffer never does, and elementwise
    differences have the same bits either way. Below 2^12 entries the
    copies cost less than switching the buffer.
    """
    bufsize = np.setbufsize(16) if a.shape[0] * b.shape[0] >= 2**12 else None
    try:
        out = np.subtract.outer(a[:, 0], b[:, 0], out=out)
        out *= out
        if tmp is None and a.shape[1] > 1:
            tmp = np.empty_like(out)
        for j in range(1, a.shape[1]):
            np.subtract.outer(a[:, j], b[:, j], out=tmp)
            tmp *= tmp
            out += tmp
        return out
    finally:
        if bufsize is not None:
            np.setbufsize(bufsize)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Labeled observations: an n x p tail matrix ``x`` and head vector ``y``.

    Parameters
    ----------
    x : ndarray of shape (n, p)
        Feature (tail) matrix.
    y : ndarray of shape (n,)
        Response (head) vector.
    feature_names : list of str
        One identifier per column of ``x``.
    head_name : str
        Identifier of the response.
    """

    x: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...] = ()
    head_name: str = "y"

    def __post_init__(self):
        x = _readonly(np.atleast_2d(self.x))
        y = _readonly(np.asarray(self.y, dtype=np.float64).ravel())
        if x.ndim != 2:
            raise DataError(f"x must be 2-D, got ndim={x.ndim}")
        n, p = x.shape
        if n < 1 or p < 1:
            raise DataError(f"dataset needs n >= 1 and p >= 1, got shape {x.shape}")
        if y.shape[0] != n:
            raise DataError(f"row mismatch: x has {n} rows, y has {y.shape[0]}")
        if not np.all(np.isfinite(x)):
            raise DataError("non-finite entry in feature matrix")
        if not np.all(np.isfinite(y)):
            raise DataError("non-finite entry in head vector")
        names = tuple(self.feature_names) or tuple(f"x{j + 1}" for j in range(p))
        if len(names) != p:
            raise DataError(f"{len(names)} feature names for {p} columns")
        if len(set(names)) < p:
            repeated = next(name for name in names if names.count(name) > 1)
            raise DataError(f"feature name {repeated!r} appears more than once")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "feature_names", names)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def subset(self, indices) -> "Dataset":
        """Dataset restricted to the given row indices (order preserved).

        Each index must be an integer in [0, n): a boolean mask, a
        fractional index, a negative index and one past the end are
        refused, not read as 0/1, truncated, wrapped or left to numpy. The
        rows were checked when this Dataset was built, so the copy skips
        ``__post_init__``, and indexing's own copy is flagged read-only,
        not copied again.
        """
        idx = np.asarray(indices)
        if idx.ndim != 1:
            raise DataError(f"subset takes a 1-D array of row indices, got shape {idx.shape}")
        if idx.size == 0:
            # np.asarray([]) is a float array: no rows, not a fractional index
            raise DataError("subset selects no rows")
        if idx.dtype == bool:
            raise DataError("subset takes row indices, not a boolean mask")
        if not np.issubdtype(idx.dtype, np.integer):
            raise DataError(f"subset takes integer row indices, got {idx.dtype}")
        if idx.min() < 0 or idx.max() >= self.n:
            raise DataError(f"row index out of range for {self.n} rows")
        out = object.__new__(Dataset)
        for name in ("x", "y"):
            rows = getattr(self, name)[idx]
            rows.flags.writeable = False
            object.__setattr__(out, name, rows)
        object.__setattr__(out, "feature_names", self.feature_names)
        object.__setattr__(out, "head_name", self.head_name)
        return out


@dataclass(frozen=True, eq=False)
class Query:
    """An unlabeled tail ``x0``; ``y0`` is held-out truth for evaluation only.

    No interval-producing operation may consult ``y0``.
    """

    x0: np.ndarray
    y0: float | None = None

    def __post_init__(self):
        x0 = _readonly(_tail_rows(self.x0, one=True)[0])
        if self.y0 is not None and not math.isfinite(float(self.y0)):
            raise DataError("query head must be finite when present")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "y0", None if self.y0 is None else float(self.y0))

    @property
    def p(self) -> int:
        return self.x0.shape[0]


@dataclass(frozen=True)
class PredictionInterval:
    """A point forecast with lower/upper bounds; the cell and path that made
    it are its caller's to record."""

    point: float
    lo: float
    up: float
    degenerate: bool = False  # full conformal only: empty acceptance region

    def __post_init__(self):
        for name in ("point", "lo", "up"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise DataError(f"interval field {name} is not finite")
            object.__setattr__(self, name, v)
        if self.lo > self.up:
            raise DataError(f"interval bounds inverted: lo={self.lo} > up={self.up}")

    @property
    def length(self) -> float:
        return self.up - self.lo


_UNIT = (float, "lie strictly inside (0, 1)", lambda v: 0.0 < v < 1.0)

# every numeric knob: its type and the rule it must meet (comparisons with
# NaN are false, so NaN fails every rule; so does infinity)
_KNOB_RULES = {
    "alpha": _UNIT,
    "gamma": _UNIT,
    "rho": _UNIT,
    "noise_scale": (float, "be finite and > 0", lambda v: 0.0 < v < math.inf),
    "min_relevant": (int, "be >= 2", lambda v: v >= 2),
    "seed": (int, "be a 64-bit unsigned integer", lambda v: 0 <= v < 2**64),
    "grid_points": (int, "be >= 10", lambda v: v >= 10),
    "grid_expansion": (float, "be finite and >= 0", lambda v: 0.0 <= v < math.inf),
}


def check_knob(name: str, raw):
    """``raw`` as knob ``name``'s type; ConfigError if the type cannot
    convert it, the conversion would change it or it breaks the knob's rule
    (``check_knobs``, selection, controls, ``conformal_interval``, the LASSO
    fit and ``relconf gen`` call this)."""
    kind, rule, holds = _KNOB_RULES[name]
    try:
        value = kind(raw)
        # refuse what the conversion would change (30.9, "31"); NaN fails its rule
        converts = value == raw or value != value
    except (TypeError, ValueError, OverflowError):  # None, "abc", [0.1], 1+2j, inf as int
        converts = False
    if not converts:
        raise ConfigError(f"{name} must be of type {kind.__name__}, got {raw!r}")
    if not holds(value):
        raise ConfigError(f"{name} must {rule}, got {value}")
    return value


def _choice(kind, raw):
    """``raw`` as a member of the enum ``kind``; ConfigError if it names
    none (every function and record that takes an engine, similarity,
    control-mode or path name coerces it through this)."""
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def check_knobs(obj) -> None:
    """Coerce and check every numeric knob field of the frozen dataclass ``obj``.

    ``ConformalSpec`` (and through it ``ExperimentConfig``) and
    ``RunManifest`` call this, so each knob is checked by one rule wherever
    it is set.
    """
    for f in fields(obj):
        if f.name in _KNOB_RULES:
            object.__setattr__(obj, f.name, check_knob(f.name, getattr(obj, f.name)))


@dataclass(frozen=True)
class ConformalSpec:
    """Method choice plus the knobs it needs.

    ``rho`` only matters for split; ``grid_points``/``grid_expansion``
    only for full.
    """

    method: ConformalMethod
    alpha: float = 0.1
    rho: float = 0.5
    grid_points: int = 100
    grid_expansion: float = 0.25

    def __post_init__(self):
        object.__setattr__(self, "method", _choice(ConformalMethod, self.method))
        check_knobs(self)


@dataclass(frozen=True)
class ExperimentConfig(ConformalSpec):
    """One cell of the experiment grid: its conformal spec, with the method
    split by default, plus the engine, the similarity and their knobs.

    ``alpha`` is the miscoverage level (also the selection fraction for
    percentile relevance), ``gamma`` the cosine-similarity threshold,
    ``noise_scale`` the control perturbation as a fraction of per-feature
    spread.
    """

    method: ConformalMethod = ConformalMethod.SPLIT
    gamma: float = 0.9
    regressor: Regressor = Regressor.OLS
    similarity: Similarity = Similarity.PERCENTILE
    noise_scale: float = 0.1
    min_relevant: int = 30
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "regressor", _choice(Regressor, self.regressor))
        object.__setattr__(self, "similarity", _choice(Similarity, self.similarity))
        super().__post_init__()


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def _parse_cell(text: str, row: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(
            f"non-numeric cell {text!r} at data row {row}, column {column!r}"
        ) from None
    if not math.isfinite(value):
        raise DataError(f"non-finite cell {text!r} at data row {row}, column {column!r}")
    return value


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """(comments, rows) of a UTF-8 CSV file, with or without a leading byte
    order mark: lines starting with ``#`` are comments, kept without the
    marker and outer blanks; blank lines are skipped; the first row is the
    header, and every data row must have as many cells as it."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            lines = list(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    comments = [line[1:].strip() for line in lines if line.startswith("#")]
    rows = [r for r in csv.reader(line for line in lines if not line.startswith("#")) if r]
    for i, row in enumerate(rows[1:], 1):
        if len(row) != len(rows[0]):
            raise DataError(f"{path}: data row {i} has {len(row)} cells, expected {len(rows[0])}")
    return comments, rows


def load_csv(path, head_column: str) -> Dataset:
    """Read a UTF-8 comma-separated file into a :class:`Dataset`.

    The file must have one header row; lines starting with ``#`` are
    comments and skipped. ``head_column`` becomes ``y``; all remaining
    columns become ``x`` in header order. Every cell must parse as a
    finite real; missing values are a hard error.

    The cells are parsed in one conversion, which reads a cell as
    ``float`` does; only when it fails or meets a non-finite value are
    they parsed one at a time, to name the first bad cell.
    """
    rows = read_csv(path)[1]
    if not rows:
        raise DataError(f"{path}: no header row")
    header = [h.strip() for h in rows[0]]
    if header.count(head_column) == 0:
        raise DataError(f"{path}: head column {head_column!r} not found in header")
    if header.count(head_column) > 1:
        raise DataError(f"{path}: head column {head_column!r} appears more than once")
    head_idx = header.index(head_column)
    feature_names = [h for i, h in enumerate(header) if i != head_idx]
    if not feature_names:
        raise DataError(f"{path}: no feature columns besides {head_column!r}")
    data = rows[1:]
    if not data:
        raise DataError(f"{path}: no data rows")
    try:
        cells = np.array(data, dtype=np.float64)
    except ValueError:
        cells = None
    if cells is None or not np.isfinite(cells).all():
        cells = np.empty((len(data), len(header)))
        for i, row in enumerate(data):
            for j, cell in enumerate(row):
                cells[i, j] = _parse_cell(cell.strip(), i + 1, header[j])
    x = np.delete(cells, head_idx, axis=1)
    return Dataset(x, cells[:, head_idx], tuple(feature_names), head_column)


def write_csv(path, header, rows, comments=None) -> None:
    """Write ``# comment`` lines, then ``header`` and ``rows``, as UTF-8 CSV
    with bare newline line ends; only fields with a comma, quote or newline
    are quoted."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for line in comments or ():
            fh.write(f"# {line}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def save_csv(d: Dataset, path, comments: list[str] | None = None) -> None:
    """Write a Dataset as CSV (head column first), exactly round-trippable.

    Floats are written with ``repr`` so ``load_csv(save_csv(d)) == d``
    bit for bit. ``comments`` lines, if given, are emitted first with a
    leading ``#``.
    """
    rows = ([repr(float(y)), *(repr(float(v)) for v in x)] for y, x in zip(d.y, d.x))
    write_csv(path, [d.head_name, *d.feature_names], rows, comments)


# ---------------------------------------------------------------------------
# Standardization
# ---------------------------------------------------------------------------

def _active_columns(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """Which of n-row columns with these minima and maxima vary beyond
    rounding: max - min > n * eps * max(|max|, |min|), the bound on the
    rounding error of the column's float mean."""
    return hi - lo > n * np.finfo(np.float64).eps * np.maximum(np.abs(hi), np.abs(lo))


def _standardize_columns(x: np.ndarray, ddof: int = 1):
    """(z, centers, scales, active): columns centered and scaled to std 1
    with denominator n - ddof. Only active columns (``_active_columns``)
    are scaled; constant ones get scale 1 and standardize to exact zeros,
    so the rounding dust of a float mean or std (thirty copies of 0.1
    have a sample std of 4e-17) never scales up into a feature. A finite
    column whose mean or spread overflows (or whose spread underflows to
    0) is a DataError naming it, not a column of NaN or zeros."""
    with np.errstate(over="ignore", invalid="ignore"):
        centers = x.mean(axis=0)
        active = _active_columns(x.min(axis=0), x.max(axis=0), x.shape[0])
        dev = x - centers
        scales = np.where(active, np.sqrt((dev**2).sum(axis=0) / (x.shape[0] - ddof)), 1.0)
    bad = np.flatnonzero(~(np.isfinite(centers) & np.isfinite(scales) & (scales > 0.0)))
    if bad.size:
        raise DataError(
            f"feature column {bad[0] + 1} cannot be standardized: "
            f"center {float(centers[bad[0]])}, scale {float(scales[bad[0]])}"
        )
    return np.where(active, dev / scales, 0.0), centers, scales, active


def transform_features(x, centers: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Apply a stored standardization to new rows or a single tail."""
    return (np.asarray(x, dtype=np.float64) - centers) / scales


# ---------------------------------------------------------------------------
# Seed derivation
# ---------------------------------------------------------------------------

def subseed(master: int, label: str, index: int = 0) -> int:
    """Derive a stable child seed from (master, label, index).

    Hash-based so that the runner's two streams per query, "conformal"
    and "controls", and different query indices never collide or depend
    on evaluation order. The "conformal" seed draws split conformal's row
    order and LASSO's cross-validation folds.
    """
    msg = f"{int(master)}:{label}:{int(index)}".encode()
    digest = hashlib.sha256(msg).digest()
    return int.from_bytes(digest[:8], "big") >> 1  # 63-bit, fits any RNG API
