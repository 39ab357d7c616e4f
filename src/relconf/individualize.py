"""Relevance selection and simulated controls.

Two selection rules, both run by ``select``, identify the observations
that matter for a query: percentile keeps the closest alpha-fraction in
standardized Euclidean distance, cosine keeps rows whose raw-tail cosine
with the query clears a threshold. ``simulate_controls`` then builds one
synthetic row per selected row, a ``Dataset`` of its own, on which the
relevant + simulated interval is calibrated.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    DataError,
    Dataset,
    Similarity,
    _choice,
    _kth_smallest,
    _query_tail,
    _rank,
    _readonly,
    _sq_dists,
    _standardize_columns,
    check_knob,
    transform_features,
)
from .regress import _row_blocks

__all__ = [
    "ControlMode",
    "RelevanceSelection",
    "select",
    "simulate_controls",
]

SIGMA_FLOOR = 1e-8


class ControlMode(str, enum.Enum):
    PERTURB = "perturb"
    GAUSSIAN_MIMIC = "gaussian_mimic"


@dataclass(frozen=True, eq=False)
class RelevanceSelection:
    """Row indices judged relevant to one query.

    ``threshold_used`` is the cut the rule applied: a distance for the
    percentile rule, a cosine for the cosine rule; ``fallback`` records that
    the rule alone gave fewer than ``min_relevant`` rows and the floor
    took over. ``select`` builds the indices; they are kept read-only as
    given and checked where they are used, by ``Dataset.subset``.
    """

    indices: np.ndarray
    method: Similarity
    threshold_used: float
    fallback: bool = False

    def __post_init__(self):
        object.__setattr__(self, "indices", _readonly(self.indices, dtype=None))
        object.__setattr__(self, "method", _choice(Similarity, self.method))

    @property
    def n_relevant(self) -> int:
        return self.indices.size


# ---------------------------------------------------------------------------
# Selection rules
# ---------------------------------------------------------------------------

def select(d: Dataset, x0, method, alpha=None, gamma=None, min_relevant: int = 30):
    """The rows of ``d`` relevant to the query tail ``x0`` by rule ``method``.

    Each rule keys every row, smaller for closer, and sets a cut; the rows
    keyed at most max(cut, the min_relevant-th smallest key) are kept,
    flagged as a fallback when that floor passes the cut. Ties at the
    threshold are all kept, whatever the row order.

    percentile (reads ``alpha``): the key is the standardized Euclidean
    distance and the cut its nearest-rank alpha-quantile, the k-th smallest
    distance with k = ``core._rank(n, alpha)``.

    cosine (reads ``gamma``): the key is minus the raw-tail cosine with the
    query and the cut -gamma. Every finite tail has a cosine: each row and
    the query are first scaled, exactly, by the power of two that puts
    their largest |entry| in [0.5, 1), so no square overflows. A zero-norm
    row has none and keys last, kept only when fewer than ``min_relevant``
    rows have one (the threshold is then -inf); a zero-norm query is a
    DataError.

    A rule given no knob of its own is a ConfigError.
    """
    method = _choice(Similarity, method)
    percentile = method is Similarity.PERCENTILE
    knob = check_knob("alpha", alpha) if percentile else check_knob("gamma", gamma)
    min_relevant = check_knob("min_relevant", min_relevant)
    if d.n < min_relevant:
        raise DataError(f"need n >= min_relevant, got n={d.n}, min_relevant={min_relevant}")
    x0 = _query_tail(d, x0)
    if percentile:
        # d's rows were checked when it was built: no second Dataset to re-check
        z, centers, scales, _ = _standardize_columns(d.x)
        key = np.sqrt(((z - transform_features(x0, centers, scales)) ** 2).sum(axis=1))
        cut = _kth_smallest(key, _rank(d.n, knob))
    else:
        x, x0 = (
            np.ldexp(a, -np.frexp(np.abs(a).max(axis=-1, keepdims=True))[1]) for a in (d.x, x0)
        )
        q_norm = np.linalg.norm(x0)
        if q_norm == 0.0:
            raise DataError("cosine similarity undefined for a zero-norm query tail")
        row_norms = np.linalg.norm(x, axis=1)
        # exactly minus the cosine; a zero-norm row has none and sorts last
        key = np.full(d.n, np.inf)
        np.divide(x @ x0, row_norms * -q_norm, out=key, where=row_norms > 0.0)
        cut = -knob
    floor = _kth_smallest(key, min_relevant)
    threshold = max(cut, floor)
    indices = np.flatnonzero(key <= threshold)
    threshold_used = threshold if percentile else -threshold
    return RelevanceSelection(indices, method, threshold_used, floor > cut)


# ---------------------------------------------------------------------------
# Simulated controls
# ---------------------------------------------------------------------------

def _row_normals(seed: int, keys: np.ndarray, p: int) -> np.ndarray:
    """Row r holds the p standard normals that
    ``default_rng(SeedSequence((seed, keys[r]))).normal(size=p)`` draws:
    a control's draws never depend on how many other rows exist or the
    order they are drawn in.

    The entropy of every row is made in one pass: the little-endian uint32
    words of ``seed`` and then of the row's key (0 is the one word [0]).
    With seed and key below 2^64 they fit SeedSequence's 4-word pool, whose
    own padding hashes as zero words do, so each row seeds from its words
    zero-padded to 4."""
    keys = np.asarray(keys, dtype=np.uint64)
    seed_words = [seed & 0xFFFFFFFF] + ([seed >> 32] if seed >> 32 else [])
    at = len(seed_words)
    words = np.zeros((keys.size, 4), dtype=np.uint32)
    words[:, :at] = seed_words
    words[:, at] = keys & np.uint64(0xFFFFFFFF)
    words[:, at + 1] = keys >> np.uint64(32)
    out = np.empty((keys.size, p))
    for row, entropy in zip(out, words):
        bits = np.random.PCG64(np.random.SeedSequence(entropy))
        np.random.Generator(bits).standard_normal(out=row)
    return out


def simulate_controls(
    d: Dataset,
    indices,
    noise_scale: float,
    mode=ControlMode.PERTURB,
    seed: int = 0,
) -> Dataset:
    """One synthetic control per relevant row: n_r rows, in selection order.

    The relevant rows are ``d.subset(indices)``, which checks the indices
    (``rel.indices`` of a selection on ``d``). Each control draws one
    standard normal row eps from the stream
    ``default_rng(SeedSequence((seed, key)))``, keyed on its row index in
    ``d`` (perturb: a control does not depend on which other rows were
    selected) or on its position (gaussian_mimic); ``_row_normals`` lays
    out every row's seed words in one pass. sigma_j is the sample std of
    feature j within the relevant subset, floored at 1e-8.

    perturb (default): x + eps * noise_scale * sigma for each relevant row
    x, keeping its head. gaussian_mimic: mu + eps * sigma, a draw from the
    per-feature Gaussian fitted to the relevant tails, given the head of
    its nearest relevant neighbor in standardized distance.
    """
    noise_scale = check_knob("noise_scale", noise_scale)
    seed = check_knob("seed", seed)
    mode = _choice(ControlMode, mode)
    relevant = d.subset(indices)
    x_rel, y_rel = relevant.x, relevant.y
    n_r, p = x_rel.shape
    sigma = np.maximum(x_rel.std(axis=0, ddof=min(n_r - 1, 1)), SIGMA_FLOOR)

    keys = indices if mode is ControlMode.PERTURB else np.arange(n_r)
    eps = _row_normals(seed, keys, p)
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
