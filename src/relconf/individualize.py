"""Relevance selection and simulated controls.

Two selection rules identify the observations that matter for a query:
``select_percentile`` keeps the closest alpha-fraction in standardized
Euclidean distance, ``select_cosine`` keeps rows whose raw-tail cosine
with the query clears a threshold. ``simulate_controls`` then builds one
synthetic row per selected row, a ``Dataset`` of its own, on which the
relevant + simulated interval is calibrated.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .conformal import ceil_guarded
from .core import (
    DataError,
    Dataset,
    Similarity,
    _query_tail,
    _readonly,
    _row_indices,
    _sq_dists,
    _standardize_columns,
    check_knob,
    transform_features,
)
from .regress import _row_blocks

__all__ = [
    "ControlMode",
    "RelevanceSelection",
    "select_percentile",
    "select_cosine",
    "select",
    "simulate_controls",
]

SIGMA_FLOOR = 1e-8


class ControlMode(str, enum.Enum):
    PERTURB = "perturb"
    GAUSSIAN_MIMIC = "gaussian_mimic"


@dataclass(frozen=True)
class RelevanceSelection:
    """Row indices judged relevant to one query.

    ``threshold_used`` is the cut the rule applied: a distance for the
    percentile rule, a cosine for the cosine rule; ``fallback`` records that
    the rule alone gave fewer than ``min_relevant`` rows and the floor
    took over. The indices must be integers; whether they fit a dataset
    is checked where they are used, by ``Dataset.subset``.
    """

    indices: np.ndarray
    method: Similarity
    threshold_used: float
    fallback: bool = False

    def __post_init__(self):
        idx = _readonly(_row_indices(self.indices, "RelevanceSelection"), dtype=np.int64)
        if idx.size == 0:
            raise DataError("relevance selection is empty")
        if len(np.unique(idx)) != idx.size:
            raise DataError("relevance selection has duplicate indices")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "method", Similarity(self.method))

    @property
    def n_relevant(self) -> int:
        return self.indices.size


# ---------------------------------------------------------------------------
# Selection rules
# ---------------------------------------------------------------------------

def select_percentile(
    d: Dataset, x0, alpha: float, min_relevant: int = 30
) -> RelevanceSelection:
    """Rows within the alpha-quantile of standardized distance to the query.

    The quantile is nearest-rank: the k-th smallest distance with
    k = ceil(alpha * n). Ties at the threshold are all included. When the
    quantile admits fewer than ``min_relevant`` rows, the threshold grows
    to the min_relevant-th smallest distance and the fallback is flagged.
    """
    alpha = check_knob("alpha", alpha)
    min_relevant = check_knob("min_relevant", min_relevant)
    if d.n < min_relevant:
        raise DataError(f"need n >= min_relevant, got n={d.n}, min_relevant={min_relevant}")
    x0 = _query_tail(d, x0)
    # d's rows were checked when it was built: no second Dataset to re-check
    z, centers, scales, _ = _standardize_columns(d.x)
    z0 = transform_features(x0, centers, scales)
    dist = np.sqrt(((z - z0) ** 2).sum(axis=1))
    k = max(ceil_guarded(alpha * d.n), 1)
    fallback = k < min_relevant
    k = max(k, min_relevant)
    threshold = float(np.partition(dist, k - 1)[k - 1])
    indices = np.flatnonzero(dist <= threshold)
    return RelevanceSelection(indices, Similarity.PERCENTILE, threshold, fallback)


def select_cosine(
    d: Dataset, x0, gamma: float, min_relevant: int = 30
) -> RelevanceSelection:
    """Rows whose raw-tail cosine with the query reaches ``gamma``.

    Every finite tail has one: each row and the query are first scaled,
    exactly, by the power of two that puts their largest |entry| in
    [0.5, 1), so no square overflows. Zero-norm rows score -inf; only a
    zero-norm query is a DataError. If fewer than ``min_relevant`` rows
    clear gamma, the threshold falls to the min_relevant-th highest score
    and every row at or above it is kept, flagged as a fallback: ties at
    the cut are all kept, as in ``select_percentile``, whatever the row
    order. Zero-norm rows stay out unless fewer than ``min_relevant`` rows
    have a cosine; then the threshold is -inf and every row is kept.
    """
    gamma = check_knob("gamma", gamma)
    min_relevant = check_knob("min_relevant", min_relevant)
    if d.n < min_relevant:
        raise DataError(f"need n >= min_relevant, got n={d.n}, min_relevant={min_relevant}")
    x0 = _query_tail(d, x0)
    x, x0 = (np.ldexp(a, -np.frexp(np.abs(a).max(axis=-1, keepdims=True))[1]) for a in (d.x, x0))
    q_norm = np.linalg.norm(x0)
    if q_norm == 0.0:
        raise DataError("cosine similarity undefined for a zero-norm query tail")
    row_norms = np.linalg.norm(x, axis=1)
    scores = np.full(d.n, -np.inf)
    np.divide(x @ x0, row_norms * q_norm, out=scores, where=row_norms > 0.0)
    indices = np.flatnonzero(scores >= gamma)
    if indices.size >= min_relevant:
        return RelevanceSelection(indices, Similarity.COSINE, float(gamma))
    # negated, so that the partition picks the min_relevant-th highest score
    threshold = -float(np.partition(-scores, min_relevant - 1)[min_relevant - 1])
    indices = np.flatnonzero(scores >= threshold)
    return RelevanceSelection(indices, Similarity.COSINE, threshold, fallback=True)


def select(d: Dataset, x0, method, alpha: float, gamma: float, min_relevant: int = 30):
    """Dispatch on the similarity enum; percentile reuses alpha as its fraction."""
    method = Similarity(method)
    if method is Similarity.PERCENTILE:
        return select_percentile(d, x0, alpha, min_relevant)
    return select_cosine(d, x0, gamma, min_relevant)


# ---------------------------------------------------------------------------
# Simulated controls
# ---------------------------------------------------------------------------

def _row_rng(seed: int, counter: int) -> np.random.Generator:
    """Counter-based stream: draws for one synthetic row never depend on
    how many other rows exist or the order they are generated in."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(counter))))


def simulate_controls(
    relevant: Dataset,
    sources,
    noise_scale: float,
    mode=ControlMode.PERTURB,
    seed: int = 0,
) -> Dataset:
    """One synthetic control per relevant row: n_r rows, in selection order.

    ``relevant`` holds the selected rows, ``d.subset(rel.indices)``, and
    ``sources`` their row indices in the full dataset, ``rel.indices``.
    Each control draws one standard normal row eps from a stream keyed on
    its source row (perturb: a control does not depend on which other rows
    were selected) or on its position (gaussian_mimic). sigma_j is the
    sample std of feature j within the relevant subset, floored at 1e-8.

    perturb (default): x + eps * noise_scale * sigma for each relevant row
    x, keeping its head. gaussian_mimic: mu + eps * sigma, a draw from the
    per-feature Gaussian fitted to the relevant tails, given the head of
    its nearest relevant neighbor in standardized distance.
    """
    noise_scale = check_knob("noise_scale", noise_scale)
    mode = ControlMode(mode)
    sources = np.asarray(sources)
    if sources.shape != (relevant.n,):
        raise DataError(f"source indices of shape {sources.shape} for {relevant.n} relevant rows")
    sources = _row_indices(sources, "simulate_controls")
    x_rel, y_rel = relevant.x, relevant.y
    n_r, p = x_rel.shape
    sigma = np.maximum(x_rel.std(axis=0, ddof=min(n_r - 1, 1)), SIGMA_FLOOR)

    keys = sources if mode is ControlMode.PERTURB else range(n_r)
    eps = np.array([_row_rng(seed, key).normal(size=p) for key in keys])
    if mode is ControlMode.PERTURB:
        x_syn = x_rel + eps * (noise_scale * sigma)
        y_syn = y_rel
    else:
        mu = x_rel.mean(axis=0)
        x_syn = mu + eps * sigma
        z_rel = (x_rel - mu) / sigma
        z_syn = (x_syn - mu) / sigma
        # nearest relevant row of each synthetic row, a block of rows at a
        # time so that no n_r x n_r distance matrix is held
        nearest = np.empty(n_r, dtype=np.intp)
        for rows in _row_blocks(n_r, n_r):
            nearest[rows] = np.argmin(_sq_dists(z_syn[rows], z_rel), axis=1)
        y_syn = y_rel[nearest]

    # checked on purpose: the jitter of a huge-valued design can overflow
    return Dataset(x_syn, y_syn, relevant.feature_names, relevant.head_name)
