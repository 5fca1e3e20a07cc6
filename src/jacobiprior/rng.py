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

from .errors import ConfigError, is_count

_U64 = (1 << 64) - 1


@dataclass(frozen=True)
class SeedSpec:
    """Root seed plus a stream id; together they name a family of streams."""

    root_seed: int = 0
    stream_id: int = 0

    def __post_init__(self):
        for name, value in (("root_seed", self.root_seed), ("stream_id", self.stream_id)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not is_count(self.stream_id, 0):
            raise ConfigError("stream_id must be non-negative")


def derive_rng(seed: SeedSpec, task_index: int = 0) -> np.random.Generator:
    """Generator for one task, independent of all other task indices."""
    if not is_count(task_index, 0):
        raise ConfigError(f"task_index must be a non-negative integer, got {task_index!r}")
    ss = np.random.SeedSequence(
        int(seed.root_seed) & _U64, spawn_key=(seed.stream_id, task_index)
    )
    return np.random.Generator(np.random.Philox(ss))
