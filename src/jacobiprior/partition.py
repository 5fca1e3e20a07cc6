"""Partitioned-data fitting by a tall-skinny QR reduction (TSQR).

The latent modes are per-observation, so a shard needs only its own
rows: it sends R_m of X_m = Q_m R_m and the first p entries of
Q_m' eta_m. One more QR of the stacked pairs, with the same code and
condition check as ``fit_jacobi``, gives the monolithic fit (bit for
bit for one shard) without squaring the condition number as X'X would.
A tall shard, like a tall monolithic fit, runs the same reduction over
row blocks of its rows (``project``): shards of a shard.
The harness runs shards concurrently, serializes their factors, and
aggregates them independently of arrival order.
"""

from __future__ import annotations

import struct
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, DimensionMismatchError, InvalidHyperError, JacobiPriorError,
                     SchemaMismatchError, is_count)
from .glm import JacobiHyper, as_response, check_response, latent_vector, validate_family
from .linalg import as_array, as_finite, lstsq, project
from .rng import SeedSpec, derive_rng

SCHEMA_VERSION = 2
_HEADER = struct.Struct("<IQQI")  # schema_version, shard_id, n_shard, p


@dataclass
class PartialStats:
    """Shard-local R factor, Q'eta, and row count; everything aggregation needs."""

    shard_id: int
    n_shard: int
    r: np.ndarray
    qteta: np.ndarray

    def __post_init__(self):
        for name, lo in (("shard_id", 0), ("n_shard", 1)):  # each a u64 of the frame header
            if not (is_count(value := getattr(self, name), lo) and value < 2**64):
                raise DimensionMismatchError(f"{name} must be an integer in [{lo}, 2**64), got {value!r}")
        self.r = as_array(self.r, None, "r")
        self.qteta = as_array(self.qteta, None, "qteta")
        p = self.qteta.shape[0] if self.qteta.ndim == 1 else 0
        if p < 1 or self.r.shape != (p, p):
            raise DimensionMismatchError(
                f"need p x p r and p-vector qteta, p >= 1; got r {self.r.shape}, qteta {self.qteta.shape}"
            )
        self.r, self.qteta = as_finite(self.r, 2, "r"), as_finite(self.qteta, 1, "qteta")
        if np.tril(self.r, -1).any():
            raise DimensionMismatchError("r is not upper triangular")

    @property
    def p(self) -> int:
        return self.qteta.shape[0]


def shard_stats(
    X_m,
    y_m,
    family: str,
    hyper: JacobiHyper | None = None,
    n_total: int | None = None,
    shard_id: int = 0,
) -> PartialStats:
    """R factor and Q'eta of one shard: the latent map plus ``project``.

    ``n_total`` is the global row count broadcast by the coordinator;
    the one_over_n schedule resolves against it and raises
    InvalidHyperError without it, since a shard cannot know it.
    """
    try:
        X_m = as_array(X_m, None, "X")  # its values are checked after y, by project
        if X_m.ndim != 2 or X_m.shape[0] == 0:
            raise DimensionMismatchError(f"need a non-empty matrix, got {X_m.shape}")
        if hyper is not None and hyper.schedule == "one_over_n":
            if n_total is None:
                raise InvalidHyperError("the one_over_n schedule needs n_total, the global row count")
            hyper = JacobiHyper(*hyper.resolve(n_total), "fixed")
        eta = latent_vector(y_m, family, hyper, X_m.shape[0], ndims=(1,))  # a shard's eta is a vector
        return PartialStats(shard_id, X_m.shape[0], *project(X_m, eta))
    except JacobiPriorError as exc:  # rows and indices in the message are shard-local
        raise type(exc)(f"shard {shard_id}: {exc}") from None


def encode_shard_message(stats: PartialStats) -> bytes:
    """Length-prefixed binary frame with bit-exact binary64 payloads."""
    body = _HEADER.pack(SCHEMA_VERSION, stats.shard_id, stats.n_shard, stats.p)
    body += stats.r.astype("<f8").tobytes(order="C")
    body += stats.qteta.astype("<f8").tobytes()
    return struct.pack("<I", len(body)) + body


def decode_shard_message(frame: bytes) -> PartialStats:
    if len(frame) < 4 + _HEADER.size:
        raise SchemaMismatchError(f"frame of {len(frame)} bytes is shorter than its header")
    (length,) = struct.unpack_from("<I", frame, 0)
    if len(frame) != 4 + length:
        raise SchemaMismatchError(f"frame length {len(frame)} != prefix {4 + length}")
    version, shard_id, n_shard, p = _HEADER.unpack_from(frame, 4)
    if version != SCHEMA_VERSION:
        raise SchemaMismatchError(f"schema version {version}, expected {SCHEMA_VERSION}")
    expected = _HEADER.size + 8 * (p * p + p)
    if length != expected:
        raise SchemaMismatchError(f"payload length {length} != expected {expected}")
    off = 4 + _HEADER.size
    r = np.frombuffer(frame, dtype="<f8", count=p * p, offset=off).reshape(p, p)
    qteta = np.frombuffer(frame, dtype="<f8", count=p, offset=off + 8 * p * p)
    try:
        return PartialStats(shard_id, int(n_shard), r.copy(), qteta.copy())
    except DimensionMismatchError as exc:
        raise SchemaMismatchError(f"shard {shard_id}: {exc}") from exc


def shard_message_json(stats: PartialStats) -> dict:
    """Debug encoding; Python float repr round-trips binary64 exactly."""
    return {
        "schema_version": SCHEMA_VERSION,
        "shard_id": stats.shard_id,
        "n_shard": stats.n_shard,
        "p": stats.p,
        "r": stats.r.tolist(),
        "qteta": stats.qteta.tolist(),
    }


def aggregate_and_solve(stats: list[PartialStats]) -> np.ndarray:
    """Least-squares fit of the stacked shard factors, argmin sum ||R_m beta - c_m||.

    Factors stack in ascending shard_id order, so the result is
    bit-reproducible whatever the arrival order.
    """
    if not stats:
        raise DimensionMismatchError("need at least one shard")
    p = stats[0].p
    for s in stats:
        if s.p != p:
            raise SchemaMismatchError(f"shard {s.shard_id} has p={s.p}, expected {p}")
    ids = [s.shard_id for s in stats]
    if len(set(ids)) != len(ids):
        raise SchemaMismatchError(f"duplicate shard ids in aggregate: {sorted(ids)}")
    ordered = sorted(stats, key=lambda s: s.shard_id)
    r = np.vstack([s.r for s in ordered])
    c = np.concatenate([s.qteta for s in ordered])
    return lstsq(r, c)


def aggregate_messages(frames: list[bytes]) -> tuple[np.ndarray, int, int]:
    """Coordinator path: dedup frames by shard_id, then aggregate.

    Returns (beta, shards_used, duplicates_dropped); redelivery of the
    same shard message is idempotent, and a redelivered frame that is
    not byte-equal to the first one raises SchemaMismatchError.
    """
    seen: dict[int, tuple[bytes, PartialStats]] = {}
    dropped = 0
    for frame in frames:
        stats = decode_shard_message(frame)
        if stats.shard_id in seen:
            if frame != seen[stats.shard_id][0]:
                raise SchemaMismatchError(
                    f"shard {stats.shard_id} redelivered with a different payload"
                )
            dropped += 1
            continue
        seen[stats.shard_id] = (frame, stats)
    beta = aggregate_and_solve([stats for _, stats in seen.values()])
    return beta, len(seen), dropped


@dataclass
class HarnessResult:
    """Pooled fit plus the shard statistics it aggregated, in shard_id order."""

    beta: np.ndarray
    n_shards: int
    duplicates_dropped: int
    shard_seconds: list = field(default_factory=list)
    partials: list = field(default_factory=list)


def run_harness(
    X,
    y,
    n_shards: int,
    family: str,
    hyper: JacobiHyper | None = None,
    seed: SeedSpec | None = None,
    max_workers: int = 4,
) -> HarnessResult:
    """Split rows contiguously into shards, fit concurrently, aggregate.

    Messages are delivered to the coordinator in a seed-shuffled order
    to exercise arrival-order independence; the pooled solve equals
    the monolithic fit regardless. Shards are row-slice views of X, so
    a shard's rows are copied only into its QR: whole for a short
    shard, one row block at a time for a tall one.
    """
    X = as_array(X, 2, "X")  # each shard checks the values of its own rows
    n = X.shape[0]
    validate_family(family)  # not shard-local: no shard starts with an unknown one
    y = as_response(y)  # each shard checks the values of its own rows
    if y.shape != (n,):
        check_response(y, family, n, (1,))  # raises the intake's ndim or length error
    if not (is_count(n_shards) and n_shards <= n):
        raise DimensionMismatchError(f"need an integer 1 <= n_shards <= {n}, got {n_shards!r}")
    if not is_count(max_workers):
        raise ConfigError(f"max_workers must be an integer >= 1, got {max_workers!r}")
    X_blocks = np.array_split(X, n_shards)
    y_blocks = np.array_split(y, n_shards)

    def work(m: int):
        t0 = time.perf_counter()
        stats = shard_stats(X_blocks[m], y_blocks[m], family, hyper, n_total=n, shard_id=m)
        return stats, encode_shard_message(stats), time.perf_counter() - t0

    with ThreadPoolExecutor(max_workers=min(max_workers, n_shards)) as pool:
        results = list(pool.map(work, range(n_shards)))
    partials, frames, timings = (list(col) for col in zip(*results))
    if seed is not None:
        order = derive_rng(seed, 0).permutation(n_shards)
        frames = [frames[i] for i in order]
    beta, used, dropped = aggregate_messages(frames)
    return HarnessResult(beta, used, dropped, timings, partials)
