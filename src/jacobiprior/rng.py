"""Deterministic counter-based random streams.

Every stochastic task in the library (a replication, a Monte Carlo
draw, a search candidate batch) gets its own generator derived from a
``SeedSpec`` and a task index. Streams for distinct (stream_id,
task_index) pairs are statistically independent Philox streams, and
the same inputs reproduce the same sequence on every platform, so
parallel execution order can never change results.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

_U64 = (1 << 64) - 1


@dataclass(frozen=True)
class SeedSpec:
    """Root seed plus a stream id; together they name a family of streams."""

    root_seed: int = 0
    stream_id: int = 0

    def __post_init__(self):
        for name, value in (("root_seed", self.root_seed), ("stream_id", self.stream_id)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if self.stream_id < 0:
            raise ValueError("stream_id must be non-negative")


def derive_rng(seed: SeedSpec, task_index: int = 0) -> np.random.Generator:
    """Generator for one task, independent of all other task indices."""
    if task_index < 0:
        raise ValueError("task_index must be non-negative")
    ss = np.random.SeedSequence(
        int(seed.root_seed) & _U64, spawn_key=(seed.stream_id, task_index)
    )
    return np.random.Generator(np.random.Philox(ss))
