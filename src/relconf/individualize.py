"""Relevance selection and simulated-control augmentation.

Two selection rules identify the observations that matter for a query:
``select_percentile`` keeps the closest alpha-fraction in standardized
Euclidean distance, ``select_cosine`` keeps rows whose raw-tail cosine
with the query clears a threshold. ``simulate_controls`` then enlarges
the selection with synthetic rows so the conformal stage sees more
residual diversity near the query.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    DataError,
    Dataset,
    Similarity,
    _dataset_rows,
    _readonly,
    _sq_dists,
    check_knob,
    standardize,
    transform_features,
    write_csv,
)

__all__ = [
    "Origin",
    "ControlMode",
    "RelevanceSelection",
    "ControlSet",
    "select_percentile",
    "select_cosine",
    "select",
    "simulate_controls",
    "save_controls_csv",
]

SIGMA_FLOOR = 1e-8


class Origin(str, enum.Enum):
    RELEVANT_ORIGINAL = "relevant_original"
    PERTURBED_CLONE = "perturbed_clone"
    GAUSSIAN_MIMIC = "gaussian_mimic"


class ControlMode(str, enum.Enum):
    PERTURB = "perturb"
    GAUSSIAN_MIMIC = "gaussian_mimic"


@dataclass(frozen=True)
class RelevanceSelection:
    """Row indices judged relevant to one query, with their evidence.

    ``scores`` has one entry per source row: distances (>= 0) for the
    percentile rule, cosines (in [-1, 1], or -inf for zero-norm rows)
    for the cosine rule. ``fallback`` records that the rule alone gave
    fewer than ``min_relevant`` rows and the floor took over.
    """

    indices: np.ndarray
    scores: np.ndarray
    method: Similarity
    threshold_used: float
    fallback: bool = False

    def __post_init__(self):
        idx = _readonly(self.indices, dtype=np.int64)
        if idx.size == 0:
            raise DataError("relevance selection is empty")
        if len(np.unique(idx)) != idx.size:
            raise DataError("relevance selection has duplicate indices")
        if idx.min() < 0 or idx.max() >= len(self.scores):
            raise DataError("relevance index out of range")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "scores", _readonly(self.scores))
        object.__setattr__(self, "method", Similarity(self.method))

    @property
    def n_relevant(self) -> int:
        return self.indices.size


@dataclass(frozen=True)
class ControlSet:
    """The augmented neighborhood: every relevant original plus one
    synthetic row per original, origin-tagged."""

    dataset: Dataset
    origin: tuple[Origin, ...]
    noise_scale_used: float

    def __post_init__(self):
        if len(self.origin) != self.dataset.n:
            raise DataError("one origin tag required per control row")
        object.__setattr__(self, "origin", tuple(Origin(o) for o in self.origin))

    @property
    def originals(self) -> Dataset:
        keep = [i for i, o in enumerate(self.origin) if o is Origin.RELEVANT_ORIGINAL]
        return self.dataset.subset(keep)

    @property
    def simulated(self) -> Dataset:
        keep = [i for i, o in enumerate(self.origin) if o is not Origin.RELEVANT_ORIGINAL]
        return self.dataset.subset(keep)


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
    z, centers, scales = standardize(d)
    z0 = transform_features(np.asarray(x0, dtype=float).ravel(), centers, scales)
    dist = np.sqrt(((z.x - z0) ** 2).sum(axis=1))
    k = max(int(np.ceil(alpha * d.n - 1e-9)), 1)
    fallback = k < min_relevant
    k = max(k, min_relevant)
    threshold = float(np.partition(dist, k - 1)[k - 1])
    indices = np.flatnonzero(dist <= threshold)
    return RelevanceSelection(indices, dist, Similarity.PERCENTILE, threshold, fallback)


def select_cosine(
    d: Dataset, x0, gamma: float, min_relevant: int = 30
) -> RelevanceSelection:
    """Rows whose raw-tail cosine with the query reaches ``gamma``.

    Zero-norm rows score -inf (cosine undefined, never selected); a
    zero-norm query is a hard error. If fewer than ``min_relevant`` rows
    clear gamma, the selection is exactly the top-min_relevant rows by
    score, flagged as a fallback.
    """
    gamma = check_knob("gamma", gamma)
    min_relevant = check_knob("min_relevant", min_relevant)
    if d.n < min_relevant:
        raise DataError(f"need n >= min_relevant, got n={d.n}, min_relevant={min_relevant}")
    x0 = np.asarray(x0, dtype=float).ravel()
    q_norm = float(np.linalg.norm(x0))
    if q_norm == 0.0:
        raise DataError("cosine similarity undefined for a zero-norm query tail")
    row_norms = np.linalg.norm(d.x, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.where(row_norms > 0.0, d.x @ x0 / (row_norms * q_norm), -np.inf)
    indices = np.flatnonzero(scores >= gamma)
    if indices.size >= min_relevant:
        return RelevanceSelection(indices, scores, Similarity.COSINE, float(gamma))
    order = np.argsort(-scores, kind="stable")[:min_relevant]
    indices = np.sort(order)
    threshold = float(scores[order[-1]])
    return RelevanceSelection(indices, scores, Similarity.COSINE, threshold, fallback=True)


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
    d: Dataset,
    rel: RelevanceSelection,
    noise_scale: float,
    mode=ControlMode.PERTURB,
    seed: int = 0,
) -> ControlSet:
    """Augment the relevant rows with one synthetic control each (2 n_r total).

    perturb (default): clone each relevant row, jittering feature j by
    Normal(0, (noise_scale * sigma_j)^2) where sigma_j is the sample std
    of feature j within the relevant subset (floored at 1e-8); the clone
    keeps its source head. gaussian_mimic: draw n_r tails from the
    per-feature Gaussian fitted to the relevant tails and give each the
    head of its nearest relevant neighbor in standardized distance.
    """
    noise_scale = check_knob("noise_scale", noise_scale)
    mode = ControlMode(mode)
    idx = rel.indices
    n_r = idx.size
    x_rel, y_rel = d.x[idx], d.y[idx]
    if n_r >= 2:
        sigma = x_rel.std(axis=0, ddof=1)
    else:
        sigma = np.zeros(d.p)
    sigma = np.maximum(sigma, SIGMA_FLOOR)

    if mode is ControlMode.PERTURB:
        eps = np.empty((n_r, d.p))
        for row, source in enumerate(idx):
            eps[row] = _row_rng(seed, int(source)).normal(size=d.p)
        x_syn = x_rel + eps * (noise_scale * sigma)
        y_syn = y_rel.copy()
        tag = Origin.PERTURBED_CLONE
    else:
        mu = x_rel.mean(axis=0)
        x_syn = np.empty((n_r, d.p))
        for row in range(n_r):
            x_syn[row] = mu + _row_rng(seed, row).normal(size=d.p) * sigma
        z_rel = (x_rel - mu) / sigma
        z_syn = (x_syn - mu) / sigma
        y_syn = y_rel[np.argmin(_sq_dists(z_syn, z_rel), axis=1)]
        tag = Origin.GAUSSIAN_MIMIC

    stacked = Dataset(
        np.vstack([x_rel, x_syn]),
        np.concatenate([y_rel, y_syn]),
        d.feature_names,
        d.head_name,
    )
    origin = (Origin.RELEVANT_ORIGINAL,) * n_r + (tag,) * n_r
    return ControlSet(stacked, origin, noise_scale)


def save_controls_csv(cs: ControlSet, path, comments: list[str] | None = None) -> None:
    """Dataset CSV layout plus a trailing ``origin`` column."""
    d = cs.dataset
    rows = ([*row, origin.value] for row, origin in zip(_dataset_rows(d), cs.origin))
    write_csv(path, [d.head_name, *d.feature_names, "origin"], rows, comments)
