"""Partitioned-data fitting via shard-local sufficient statistics.

Because the latent modes are per-observation, a shard only needs its
own rows to compute X_m' X_m and X_m' eta_m; summing those across
shards reproduces the monolithic normal equations exactly. The
in-process harness runs shards concurrently, moves their statistics
through a serialized message format, and aggregates at a single
coordinator whose output is independent of arrival order.
"""

from __future__ import annotations

import struct
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    RankDeficientError,
    SchemaMismatchError,
)
from .glm import JacobiHyper, latent_vector
from .linalg import as_matrix, as_vector, cholesky_solve
from .rng import SeedSpec, derive_rng

SCHEMA_VERSION = 1
_HEADER = struct.Struct("<IQQI")  # schema_version, shard_id, n_shard, p


@dataclass
class PartialStats:
    """Shard-local X'X, X'eta, and row count; everything aggregation needs."""

    shard_id: int
    n_shard: int
    xtx: np.ndarray
    xteta: np.ndarray

    def __post_init__(self):
        self.xtx = np.asarray(self.xtx, dtype=float)
        self.xteta = np.asarray(self.xteta, dtype=float)
        p = self.xteta.shape[0]
        if self.xtx.shape != (p, p):
            raise DimensionMismatchError(
                f"xtx shape {self.xtx.shape} inconsistent with xteta length {p}"
            )
        if self.n_shard < 1:
            raise DimensionMismatchError("n_shard must be >= 1")
        scale = np.max(np.abs(self.xtx)) or 1.0
        if np.max(np.abs(self.xtx - self.xtx.T)) > 1e-12 * scale:
            raise DimensionMismatchError("xtx is not symmetric within 1e-12")

    @property
    def p(self) -> int:
        return self.xteta.shape[0]


def shard_stats(
    X_m,
    y_m,
    family: str,
    hyper: JacobiHyper | None = None,
    n_total: int | None = None,
    shard_id: int = 0,
) -> PartialStats:
    """Sufficient statistics for one shard.

    ``n_total`` is the global row count broadcast by the coordinator;
    it only matters for the one_over_n schedule, which must resolve
    against the full dataset rather than the shard.
    """
    X_m = as_matrix(X_m, "X_m")
    y_m = as_vector(y_m, "y_m")
    if X_m.shape[0] == 0:
        raise DimensionMismatchError("shard is empty")
    if y_m.shape[0] != X_m.shape[0]:
        raise DimensionMismatchError(
            f"y length {y_m.shape[0]} != shard rows {X_m.shape[0]}"
        )
    if hyper is not None and hyper.schedule == "one_over_n":
        n = n_total if n_total is not None else y_m.shape[0]
        a, b = hyper.resolve(n)
        hyper = JacobiHyper(a, b, "fixed")
    eta = latent_vector(y_m, family, hyper)
    xtx = X_m.T @ X_m
    xtx = 0.5 * (xtx + xtx.T)
    return PartialStats(shard_id=shard_id, n_shard=X_m.shape[0], xtx=xtx, xteta=X_m.T @ eta)


def encode_shard_message(stats: PartialStats) -> bytes:
    """Length-prefixed binary frame with bit-exact binary64 payloads."""
    body = _HEADER.pack(SCHEMA_VERSION, stats.shard_id, stats.n_shard, stats.p)
    body += stats.xtx.astype("<f8").tobytes(order="C")
    body += stats.xteta.astype("<f8").tobytes()
    return struct.pack("<I", len(body)) + body


def decode_shard_message(frame: bytes) -> PartialStats:
    if len(frame) < 4:
        raise SchemaMismatchError("frame shorter than its length prefix")
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
    xtx = np.frombuffer(frame, dtype="<f8", count=p * p, offset=off).reshape(p, p)
    xteta = np.frombuffer(frame, dtype="<f8", count=p, offset=off + 8 * p * p)
    return PartialStats(shard_id=shard_id, n_shard=int(n_shard), xtx=xtx.copy(), xteta=xteta.copy())


def shard_message_json(stats: PartialStats) -> dict:
    """Debug encoding; Python float repr round-trips binary64 exactly."""
    return {
        "schema_version": SCHEMA_VERSION,
        "shard_id": stats.shard_id,
        "n_shard": stats.n_shard,
        "p": stats.p,
        "xtx": stats.xtx.tolist(),
        "xteta": stats.xteta.tolist(),
    }


def aggregate_and_solve(stats: list[PartialStats]) -> np.ndarray:
    """Pooled solve (sum X'X) beta = (sum X'eta).

    Summation runs in ascending shard_id order so floating-point
    results are bit-reproducible no matter how shards arrive.
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
    xtx = np.zeros((p, p))
    xteta = np.zeros(p)
    for s in ordered:
        xtx += s.xtx
        xteta += s.xteta
    cond = np.linalg.cond(xtx)
    if not np.isfinite(cond) or cond > 1e12:
        raise RankDeficientError(f"pooled X'X condition estimate {cond:.3e} exceeds 1e12")
    return cholesky_solve(xtx, xteta)


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
    beta: np.ndarray
    n_shards: int
    duplicates_dropped: int
    shard_seconds: list = field(default_factory=list)


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
    the monolithic fit regardless.
    """
    X = as_matrix(X)
    y = as_vector(y, "y")
    n = X.shape[0]
    if not 1 <= n_shards <= n:
        raise DimensionMismatchError(f"need 1 <= n_shards <= {n}, got {n_shards}")
    row_blocks = np.array_split(np.arange(n), n_shards)

    def work(m: int):
        rows = row_blocks[m]
        t0 = time.perf_counter()
        stats = shard_stats(
            X[rows], y[rows], family, hyper, n_total=n, shard_id=m
        )
        frame = encode_shard_message(stats)
        return frame, time.perf_counter() - t0

    with ThreadPoolExecutor(max_workers=min(max_workers, n_shards)) as pool:
        results = list(pool.map(work, range(n_shards)))
    frames = [frame for frame, _ in results]
    timings = [dt for _, dt in results]
    if seed is not None:
        order = derive_rng(seed, 0).permutation(n_shards)
        frames = [frames[i] for i in order]
    beta, used, dropped = aggregate_messages(frames)
    return HarnessResult(
        beta=beta, n_shards=used, duplicates_dropped=dropped, shard_seconds=timings
    )
