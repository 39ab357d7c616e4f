"""Seeded synthetic suites for the experiment runner.

Two suites are built in. The small one concatenates three 250-row,
2-feature settings (one linear signal, two linear signals, one
heteroskedastic quadratic), each contributing one held-out query. The
long one produces three 100-row, 12-feature blocks with 2 active
coefficients each (baseline, feature-mean shift, coefficient-mean
shift), each with five held-out queries.

All normal draws follow the (mean, sd) convention. Within a block the
draw order is fixed (noise/features in the documented order, then query
draws), and each block consumes its own spawned child stream, so output
is a pure function of the seed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, Dataset, Query

__all__ = ["SuiteOutput", "gen_small", "gen_long", "gen_setting", "SUITES"]

SMALL_N = 250
LONG_N = 100
LONG_P = 12
LONG_ACTIVE = 2
LONG_QUERIES = 5


@dataclass(frozen=True, eq=False)
class SuiteOutput:
    """One generated suite: pooled rows and queries, each labelled by ``_pool``."""

    dataset: Dataset
    queries: tuple[Query, ...]
    setting_labels: tuple[str, ...]
    query_labels: tuple[str, ...]


def _pool(seed: int, blocks: dict) -> SuiteOutput:
    """Draw each block on its own child of ``SeedSequence(seed)``, spawned in
    order, and pool their rows and queries, each labelled with its block.

    ``blocks`` maps a label to a function of a Generator returning the
    block's (x, y, x0, y0, ...); a row of ``np.atleast_2d(x0)`` is one query.
    """
    children = np.random.SeedSequence(seed).spawn(len(blocks))
    xs, ys, labels, queries, qlabels = [], [], [], [], []
    for (label, draw), child in zip(blocks.items(), children):
        x, y, x0, y0, *_ = draw(np.random.default_rng(child))
        xs.append(x)
        ys.append(y)
        labels += [label] * len(y)
        for tail, head in zip(np.atleast_2d(x0), np.atleast_1d(y0)):
            queries.append(Query(tail, float(head)))
            qlabels.append(label)
    dataset = Dataset(np.vstack(xs), np.concatenate(ys))
    return SuiteOutput(dataset, tuple(queries), tuple(labels), tuple(qlabels))


# ---------------------------------------------------------------------------
# Small suite settings (n=250, p=2 each)
# ---------------------------------------------------------------------------

def _setting_a(rng: np.random.Generator, n: int):
    """y = 0.5*x1 + u; x2 is irrelevant. The query's second feature is
    drawn with sd 2 (unlike the training sd 1), kept as designed."""
    u = rng.normal(size=n)
    x1 = rng.normal(1.0, 1.0, size=n)
    x2 = rng.normal(2.0, 1.0, size=n)
    y = 0.5 * x1 + u
    x0 = np.array([rng.normal(1.0, 1.0), rng.normal(2.0, 2.0)])
    y0 = 0.5 * x0[0] + rng.normal()
    return np.column_stack([x1, x2]), y, x0, y0


def _setting_b(rng: np.random.Generator, n: int):
    """y = 0.5*x1 + 0.33*x2 + u with both features informative."""
    u = rng.normal(size=n)
    x1 = rng.normal(3.0, 1.0, size=n)
    x2 = rng.normal(2.0, 2.0, size=n)
    y = 0.5 * x1 + 0.33 * x2 + u
    x0 = np.array([rng.normal(3.0, 1.0), rng.normal(2.0, 2.0)])
    y0 = 0.5 * x0[0] + 0.33 * x0[1] + rng.normal()
    return np.column_stack([x1, x2]), y, x0, y0


def _setting_c(rng: np.random.Generator, n: int):
    """Heteroskedastic: noise scales with x1/2 and the signal is quadratic
    in x1. The query head uses the linear form 0.5*x01 + 0.33*x02 (not the
    quadratic), kept exactly as designed."""
    x1 = rng.normal(1.0, 1.0, size=n)
    u = rng.normal(size=n) * x1 / 2.0
    x2 = rng.normal(3.0, 2.0, size=n)
    y = 0.5 * x1 * x1 + 0.33 * x2 + u
    x0 = np.array([rng.normal(1.0, 1.0), rng.normal(3.0, 2.0)])
    y0 = 0.5 * x0[0] + 0.33 * x0[1] + rng.normal() * x0[0] / 2.0
    return np.column_stack([x1, x2]), y, x0, y0


_SMALL_SETTINGS = {
    name: functools.partial(draw, n=SMALL_N)
    for name, draw in (("A", _setting_a), ("B", _setting_b), ("C", _setting_c))
}


def gen_setting(name: str, seed: int) -> tuple[Dataset, Query]:
    """One small-suite setting on its own stream (for replication studies)."""
    if name not in _SMALL_SETTINGS:
        raise ConfigError(f"unknown setting {name!r}; expected one of A, B, C")
    x, y, x0, y0 = _SMALL_SETTINGS[name](np.random.default_rng(np.random.SeedSequence(seed)))
    return Dataset(x, y), Query(x0, y0)


def gen_small(seed: int) -> SuiteOutput:
    """Three 250-row settings pooled into one 750-row dataset, one query each."""
    return _pool(seed, _SMALL_SETTINGS)


# ---------------------------------------------------------------------------
# Long suite blocks (n=100, p=12, 2 active coefficients each)
# ---------------------------------------------------------------------------

def _long_block(rng: np.random.Generator, x_mean: float, beta_mean: float):
    x = rng.normal(x_mean, 1.0, size=(LONG_N, LONG_P))
    beta = np.concatenate(
        [rng.normal(beta_mean, 1.0, size=LONG_ACTIVE), np.zeros(LONG_P - LONG_ACTIVE)]
    )
    y = x @ beta + rng.normal(size=LONG_N)
    x0 = rng.normal(x_mean, 1.0, size=(LONG_QUERIES, LONG_P))
    y0 = x0 @ beta + rng.normal(size=LONG_QUERIES)
    return x, y, x0, y0, beta


_LONG_BLOCKS = {
    "DGP_1": functools.partial(_long_block, x_mean=0.0, beta_mean=0.0),
    "DGP_2": functools.partial(_long_block, x_mean=1.0, beta_mean=0.0),
    "DGP_3": functools.partial(_long_block, x_mean=0.0, beta_mean=1.0),
}


def gen_long(seed: int) -> SuiteOutput:
    """Three 100-row, 12-feature blocks, five queries per block."""
    return _pool(seed, _LONG_BLOCKS)


SUITES = {"small": gen_small, "long": gen_long}
