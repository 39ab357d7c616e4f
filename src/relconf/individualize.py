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

from .conformal import ceil_guarded
from .core import (
    DataError,
    Dataset,
    Similarity,
    _choice,
    _query_tail,
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
    distance with k = ceil(alpha * n).

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
        k = max(ceil_guarded(knob * d.n), 1)
        cut = np.partition(key, k - 1)[k - 1]
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
    floor = np.partition(key, min_relevant - 1)[min_relevant - 1]
    threshold = float(max(cut, floor))
    indices = np.flatnonzero(key <= threshold)
    threshold_used = threshold if percentile else -threshold
    return RelevanceSelection(indices, method, threshold_used, bool(floor > cut))


# ---------------------------------------------------------------------------
# Simulated controls
# ---------------------------------------------------------------------------

# numpy's SeedSequence and PCG64 seeding constants; NEP 19 keeps the
# streams they give stable across numpy versions
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # pool hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # output hash
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _hasher(const: int, mult: int):
    """SeedSequence's running hash of uint32 words: each call xors the word
    with the constant, steps the constant, multiplies by it and folds the
    high half in. The constants do not depend on the words, so one call
    hashes one word of every row at once."""

    def hash_words(words: np.ndarray) -> np.ndarray:
        nonlocal const
        words = words ^ np.uint32(const)
        const = const * mult & _MASK32
        words = words * np.uint32(const)
        return words ^ (words >> np.uint32(16))

    return hash_words


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of hashed word ``y`` into pool word ``x``."""
    mixed = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return mixed ^ (mixed >> np.uint32(16))


def _stream_states(seed: int, keys: np.ndarray):
    """Yield the PCG64 (state, inc) of ``default_rng(SeedSequence((seed,
    key)))`` for each key; the seed words of all keys are made in one pass.

    The entropy is the little-endian uint32 words of ``seed`` and then of
    ``key`` (0 is the one word [0]). With seed and key below 2^64 they fill
    at most the 4-word pool, and zero padding hashes as the pool's own
    padding does, so each row's pool is its zero-padded words hashed in and
    every ordered pair of pool words mixed. ``generate_state(4, uint64)``
    hashes the pool out as (s0, s1, i0, i1), and PCG64 seeds from them as
    pcg64_set_seed does: two LCG steps from state 0 with
    inc = 2 (i0 2^64 + i1) + 1, adding s0 2^64 + s1 after the first.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    seed_words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    entropy = np.zeros((4, keys.size), dtype=np.uint32)
    entropy[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    at = len(seed_words)
    entropy[at] = keys & np.uint64(_MASK32)
    entropy[at + 1] = keys >> np.uint64(32)
    hash_in = _hasher(_INIT_A, _MULT_A)
    pool = [hash_in(words) for words in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hash_in(pool[src]))
    hash_out = _hasher(_INIT_B, _MULT_B)
    out = [hash_out(pool[i % 4]).astype(np.uint64) for i in range(8)]
    words = np.column_stack([out[j] | out[j + 1] << np.uint64(32) for j in range(0, 8, 2)])
    for row in words:
        s0, s1, i0, i1 = row.tolist()
        inc = ((i0 << 65) + (i1 << 1) + 1) & _MASK128
        yield (((inc + (s0 << 64) + s1) * _PCG_MULT) + inc) & _MASK128, inc


def _row_normals(seed: int, keys: np.ndarray, p: int) -> np.ndarray:
    """Row r holds the p standard normals that
    ``default_rng(SeedSequence((seed, keys[r]))).normal(size=p)`` draws:
    a control's draws never depend on how many other rows exist or the
    order they are drawn in. One PCG64 takes each row's state in turn,
    with no buffered half-word, as a fresh one starts."""
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    out = np.empty((len(keys), p))
    for row, (state, inc) in zip(out, _stream_states(seed, keys)):
        bits.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        gen.standard_normal(out=row)
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
    selected) or on its position (gaussian_mimic); every row's stream is
    seeded in one pass (``_row_normals``). sigma_j is the sample std of
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
