import json

import numpy as np
import pytest

from jacobiprior.errors import (
    DimensionMismatchError,
    RankDeficientError,
    SchemaMismatchError,
)
from jacobiprior.glm import JacobiHyper, fit_jacobi
from jacobiprior.partition import (
    PartialStats,
    aggregate_and_solve,
    aggregate_messages,
    decode_shard_message,
    encode_shard_message,
    run_harness,
    shard_message_json,
    shard_stats,
)
from jacobiprior.rng import SeedSpec, derive_rng
from jacobiprior.simlab import gen_logistic


def logit_data(seed=0, n=300, p=5):
    rng = derive_rng(SeedSpec(880, 0), seed)
    beta0 = np.linspace(1.0, -1.0, p)
    return gen_logistic(n, beta0, 2.0, 0.4, rng)


class TestShardStats:
    def test_single_row_outer_product(self):
        stats = shard_stats(np.array([[1.0, 2.0]]), np.array([3.0]), "poisson",
                            JacobiHyper(1.0, 1.0))
        np.testing.assert_array_equal(stats.xtx, [[1.0, 2.0], [2.0, 4.0]])
        eta = np.log(4.0 / 2.0)
        np.testing.assert_allclose(stats.xteta, [eta, 2.0 * eta], atol=1e-12)

    def test_empty_shard_rejected(self):
        with pytest.raises(DimensionMismatchError):
            shard_stats(np.empty((0, 2)), np.empty(0), "logit")

    def test_self_concatenation_doubles(self):
        X, y = logit_data(seed=1, n=20)
        one = shard_stats(X, y, "logit")
        two = shard_stats(np.vstack([X, X]), np.concatenate([y, y]), "logit")
        np.testing.assert_allclose(two.xtx, 2.0 * one.xtx, rtol=1e-12)
        np.testing.assert_allclose(two.xteta, 2.0 * one.xteta, rtol=1e-12)

    def test_one_over_n_uses_global_n(self):
        X, y = logit_data(seed=2, n=10)
        hyper = JacobiHyper(1.0, 1.0, "one_over_n")
        local = shard_stats(X, y, "logit", hyper)
        broadcast = shard_stats(X, y, "logit", hyper, n_total=1000)
        assert not np.allclose(local.xteta, broadcast.xteta)


class TestAggregate:
    def test_single_shard_equals_monolithic(self):
        X, y = logit_data(seed=3, n=60)
        stats = shard_stats(X, y, "logit")
        beta = aggregate_and_solve([stats])
        mono = fit_jacobi(X, y, "logit").beta
        np.testing.assert_allclose(beta, mono, rtol=1e-10, atol=1e-12)

    def test_three_way_split_equals_monolithic(self):
        X, y = logit_data(seed=4)
        stats = [
            shard_stats(X[i::3], y[i::3], "logit", shard_id=i) for i in range(3)
        ]
        beta = aggregate_and_solve(stats)
        mono = fit_jacobi(X, y, "logit").beta
        np.testing.assert_allclose(beta, mono, rtol=1e-10, atol=1e-12)

    def test_order_invariance_is_bitwise(self):
        X, y = logit_data(seed=5)
        stats = [
            shard_stats(X[i::4], y[i::4], "logit", shard_id=i) for i in range(4)
        ]
        forward = aggregate_and_solve(stats)
        backward = aggregate_and_solve(list(reversed(stats)))
        np.testing.assert_array_equal(forward, backward)

    def test_mismatched_p_rejected(self):
        a = PartialStats(0, 2, np.eye(2), np.ones(2))
        b = PartialStats(1, 2, np.eye(3), np.ones(3))
        with pytest.raises(SchemaMismatchError):
            aggregate_and_solve([a, b])

    def test_duplicate_ids_rejected(self):
        a = PartialStats(0, 2, np.eye(2), np.ones(2))
        with pytest.raises(SchemaMismatchError):
            aggregate_and_solve([a, a])

    def test_singular_pool_rejected(self):
        ones = np.ones((2, 2))
        a = PartialStats(0, 2, ones, np.ones(2))
        b = PartialStats(1, 2, ones, np.ones(2))
        with pytest.raises(RankDeficientError):
            aggregate_and_solve([a, b])


class TestCodec:
    def test_round_trip_is_bit_exact(self):
        X, y = logit_data(seed=6, n=40)
        stats = shard_stats(X, y, "logit", shard_id=7)
        decoded = decode_shard_message(encode_shard_message(stats))
        assert decoded.shard_id == 7
        assert decoded.n_shard == 40
        np.testing.assert_array_equal(decoded.xtx, stats.xtx)
        np.testing.assert_array_equal(decoded.xteta, stats.xteta)

    def test_truncated_frame_rejected(self):
        frame = encode_shard_message(PartialStats(0, 1, np.eye(2), np.ones(2)))
        with pytest.raises(SchemaMismatchError):
            decode_shard_message(frame[:-3])

    def test_bad_version_rejected(self):
        frame = bytearray(encode_shard_message(PartialStats(0, 1, np.eye(2), np.ones(2))))
        frame[4] = 99
        with pytest.raises(SchemaMismatchError):
            decode_shard_message(bytes(frame))

    def test_json_debug_round_trips_through_text(self):
        stats = shard_stats(*logit_data(seed=7, n=10), "logit", shard_id=3)
        doc = json.loads(json.dumps(shard_message_json(stats)))
        np.testing.assert_array_equal(np.asarray(doc["xtx"]), stats.xtx)
        np.testing.assert_array_equal(np.asarray(doc["xteta"]), stats.xteta)

    def test_duplicate_delivery_is_idempotent(self):
        X, y = logit_data(seed=8, n=50)
        frames = [
            encode_shard_message(shard_stats(X[i::2], y[i::2], "logit", shard_id=i))
            for i in range(2)
        ]
        beta_clean, used_clean, dropped_clean = aggregate_messages(frames)
        beta_dup, used_dup, dropped_dup = aggregate_messages(frames + [frames[0]])
        np.testing.assert_array_equal(beta_clean, beta_dup)
        assert (used_clean, dropped_clean) == (2, 0)
        assert (used_dup, dropped_dup) == (2, 1)


    def test_conflicting_redelivery_rejected(self):
        X, y = logit_data(seed=9, n=40)
        frames = [
            encode_shard_message(shard_stats(X[i::2], y[i::2], "logit", shard_id=i))
            for i in range(2)
        ]
        # Shard 1's statistics delivered again under shard id 0.
        conflict = encode_shard_message(shard_stats(X[1::2], y[1::2], "logit", shard_id=0))
        with pytest.raises(SchemaMismatchError, match="shard 0"):
            aggregate_messages(frames + [conflict])


class TestHarness:
    def test_one_row_per_shard_equals_monolithic(self):
        X, y = logit_data(seed=9, n=30, p=3)
        result = run_harness(X, y, n_shards=30, family="logit")
        mono = fit_jacobi(X, y, "logit").beta
        np.testing.assert_allclose(result.beta, mono, rtol=1e-10, atol=1e-12)
        assert result.n_shards == 30
        assert len(result.shard_seconds) == 30

    def test_partition_counts_validated(self):
        X, y = logit_data(seed=10, n=10, p=2)
        with pytest.raises(DimensionMismatchError):
            run_harness(X, y, n_shards=11, family="logit")
        with pytest.raises(DimensionMismatchError):
            run_harness(X, y, n_shards=0, family="logit")

    def test_shuffled_delivery_matches_ordered(self):
        X, y = logit_data(seed=11, n=80, p=4)
        ordered = run_harness(X, y, 5, "logit", seed=None)
        shuffled = run_harness(X, y, 5, "logit", seed=SeedSpec(4, 4))
        np.testing.assert_array_equal(ordered.beta, shuffled.beta)

    def test_equivalence_over_partitions_and_families(self):
        X, y = logit_data(seed=12, n=90, p=4)
        rng = derive_rng(SeedSpec(881, 0), 0)
        yc = rng.poisson(2.0, 90).astype(float)
        for family, resp in (("logit", y), ("probit", y), ("poisson", yc)):
            mono = fit_jacobi(X, resp, family).beta
            for m in (1, 2, 3, 7, 90):
                result = run_harness(X, resp, m, family)
                err = np.linalg.norm(result.beta - mono) / np.linalg.norm(mono)
                assert err <= 1e-10
