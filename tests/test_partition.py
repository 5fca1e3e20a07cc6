import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobiprior.errors import (
    ConfigError,
    DimensionMismatchError,
    InvalidHyperError,
    InvalidResponseError,
    RankDeficientError,
    SchemaMismatchError,
)
from jacobiprior.glm import JacobiHyper, fit_jacobi, latent_vector
from jacobiprior.linalg import BLOCK_ROWS
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


def scaled_design(n=400):
    """n x 4 logit design with columns scaled by 1e4 and 1e-4: cond(X) ~ 1e8."""
    X, y = logit_data(seed=13, n=n, p=4)
    X[:, 1] *= 1e4
    X[:, 2] *= 1e-4
    return X, y


def assert_factor_reproduces(stats, X, eta):
    """R'R = X'X and R'c = X'eta: the invariants the pooled QR relies on."""
    assert np.array_equal(stats.r, np.triu(stats.r))
    np.testing.assert_allclose(stats.r.T @ stats.r, X.T @ X, rtol=1e-12)
    xteta = X.T @ eta
    np.testing.assert_allclose(stats.r.T @ stats.qteta, xteta, rtol=1e-12)


class TestShardStats:
    def test_single_row_outer_product(self):
        stats = shard_stats(np.array([[1.0, 2.0]]), np.array([3.0]), "poisson",
                            JacobiHyper(1.0, 1.0))
        # One row has no reflector to apply: R is the row itself, zero-padded.
        np.testing.assert_array_equal(stats.r, [[1.0, 2.0], [0.0, 0.0]])
        eta = np.log(4.0 / 2.0)
        np.testing.assert_array_equal(stats.qteta, [eta, 0.0])
        np.testing.assert_allclose(stats.r.T @ stats.r, [[1.0, 2.0], [2.0, 4.0]], rtol=1e-12)
        np.testing.assert_allclose(stats.r.T @ stats.qteta, [eta, 2.0 * eta], rtol=1e-12)

    def test_empty_shard_rejected(self):
        with pytest.raises(DimensionMismatchError):
            shard_stats(np.empty((0, 2)), np.empty(0), "logit")

    def test_response_length_mismatch_rejected(self):
        X, y = logit_data(seed=16, n=10)
        with pytest.raises(DimensionMismatchError, match="shard 4: y length 9"):
            shard_stats(X, y[:9], "logit", shard_id=4)

    def test_self_concatenation_doubles(self):
        X, y = logit_data(seed=1, n=20)
        one = shard_stats(X, y, "logit")
        X2, y2 = np.vstack([X, X]), np.concatenate([y, y])
        two = shard_stats(X2, y2, "logit")
        assert_factor_reproduces(one, X, latent_vector(y, "logit"))
        assert_factor_reproduces(two, X2, latent_vector(y2, "logit"))
        np.testing.assert_allclose(two.r.T @ two.r, 2.0 * (one.r.T @ one.r), rtol=1e-12)
        np.testing.assert_allclose(two.r.T @ two.qteta, 2.0 * (one.r.T @ one.qteta), rtol=1e-12)

    def test_fewer_rows_than_columns_zero_padded(self):
        X, y = logit_data(seed=14, n=3, p=5)
        stats = shard_stats(X, y, "logit")
        assert stats.r.shape == (5, 5) and stats.qteta.shape == (5,)
        np.testing.assert_array_equal(stats.r[3:], 0.0)
        np.testing.assert_array_equal(stats.qteta[3:], 0.0)
        assert_factor_reproduces(stats, X, latent_vector(y, "logit"))

    def test_one_over_n_uses_global_n(self):
        X, y = logit_data(seed=2, n=400)
        hyper = JacobiHyper(1.0, 1.0, "one_over_n")
        # A shard cannot know the global n, so it must be told.
        with pytest.raises(InvalidHyperError, match="n_total"):
            shard_stats(X[:100], y[:100], "logit", hyper, shard_id=0)
        stats = [
            shard_stats(X[i : i + 100], y[i : i + 100], "logit", hyper, n_total=400, shard_id=i)
            for i in range(0, 400, 100)
        ]
        mono = fit_jacobi(X, y, "logit", hyper).beta
        np.testing.assert_allclose(aggregate_and_solve(stats), mono, rtol=1e-10)


class TestAggregate:
    def test_single_shard_equals_monolithic(self):
        X, y = logit_data(seed=3, n=60)
        stats = shard_stats(X, y, "logit")
        beta = aggregate_and_solve([stats])
        mono = fit_jacobi(X, y, "logit").beta
        np.testing.assert_allclose(beta, mono, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("family", ["logit", "probit", "poisson"])
    def test_single_shard_is_bit_identical_to_fit_jacobi(self, family):
        # QR of an upper-triangular R applies no reflector, so the pooled
        # solve repeats the monolithic one exactly.
        # Above 2 BLOCK_ROWS rows both sides run the same blocked factor.
        for n in (70, 2 * BLOCK_ROWS + 5):
            X, y = logit_data(seed=15, n=n, p=4)
            if family == "poisson":
                y = derive_rng(SeedSpec(882, 0), 0).poisson(2.0, n).astype(float)
            beta = aggregate_and_solve([shard_stats(X, y, family)])
            assert np.array_equal(beta, fit_jacobi(X, y, family).beta)

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
        # Both shards saw only rows proportional to (1, 1): R has a zero pivot.
        r = np.array([[1.0, 1.0], [0.0, 0.0]])
        a = PartialStats(0, 2, r, np.array([1.0, 0.0]))
        b = PartialStats(1, 2, r, np.array([2.0, 0.0]))
        with pytest.raises(RankDeficientError):
            aggregate_and_solve([a, b])

    def test_non_triangular_factor_rejected(self):
        with pytest.raises(DimensionMismatchError, match="upper triangular"):
            PartialStats(0, 2, np.ones((2, 2)), np.ones(2))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        p=st.integers(1, 5),
        cuts=st.lists(st.integers(1, 59), max_size=12, unique=True),
    )
    def test_random_splits_equal_monolithic(self, seed, p, cuts):
        # Cut points anywhere, so shards often have fewer rows than p.
        X, y = logit_data(seed=seed, n=60, p=p)
        edges = [0, *sorted(cuts), 60]
        stats = [
            shard_stats(X[lo:hi], y[lo:hi], "logit", shard_id=m)
            for m, (lo, hi) in enumerate(zip(edges[:-1], edges[1:]))
        ]
        beta = aggregate_and_solve(stats)
        mono = fit_jacobi(X, y, "logit").beta
        np.testing.assert_allclose(beta, mono, rtol=1e-10, atol=1e-12)
        shuffled = [stats[i] for i in derive_rng(SeedSpec(seed, 1), 0).permutation(len(stats))]
        assert np.array_equal(aggregate_and_solve(shuffled), beta)


class TestCodec:
    def test_round_trip_is_bit_exact(self):
        X, y = logit_data(seed=6, n=40)
        stats = shard_stats(X, y, "logit", shard_id=7)
        decoded = decode_shard_message(encode_shard_message(stats))
        assert decoded.shard_id == 7
        assert decoded.n_shard == 40
        np.testing.assert_array_equal(decoded.r, stats.r)
        np.testing.assert_array_equal(decoded.qteta, stats.qteta)
        assert_factor_reproduces(decoded, X, latent_vector(y, "logit"))

    def test_truncated_frame_rejected(self):
        frame = encode_shard_message(PartialStats(0, 1, np.eye(2), np.ones(2)))
        with pytest.raises(SchemaMismatchError):
            decode_shard_message(frame[:-3])

    def test_bad_version_rejected(self):
        frame = bytearray(encode_shard_message(PartialStats(0, 1, np.eye(2), np.ones(2))))
        frame[4] = 99
        with pytest.raises(SchemaMismatchError):
            decode_shard_message(bytes(frame))

    def test_version_1_frame_rejected(self):
        frame = bytearray(encode_shard_message(PartialStats(0, 1, np.eye(2), np.ones(2))))
        frame[4] = 1
        with pytest.raises(SchemaMismatchError, match="schema version 1, expected 2"):
            decode_shard_message(bytes(frame))

    def test_frame_shorter_than_header_rejected(self):
        for body in (b"", b"\x02\x00\x00\x00"):
            with pytest.raises(SchemaMismatchError, match="shorter than its header"):
                decode_shard_message(struct.pack("<I", len(body)) + body)

    def test_zero_columns_frame_rejected(self):
        body = struct.pack("<IQQI", 2, 5, 1, 0)
        with pytest.raises(SchemaMismatchError, match="shard 5"):
            decode_shard_message(struct.pack("<I", len(body)) + body)

    def test_json_debug_round_trips_through_text(self):
        X, y = logit_data(seed=7, n=10)
        stats = shard_stats(X, y, "logit", shard_id=3)
        doc = json.loads(json.dumps(shard_message_json(stats)))
        assert doc["schema_version"] == 2
        np.testing.assert_array_equal(np.asarray(doc["r"]), stats.r)
        np.testing.assert_array_equal(np.asarray(doc["qteta"]), stats.qteta)
        assert_factor_reproduces(stats, X, latent_vector(y, "logit"))

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

    def test_scaled_design_fits_for_every_shard_count(self):
        for n in (400, 2 * BLOCK_ROWS + 5):  # the second is factored in row blocks
            X, y = scaled_design(n)
            mono = fit_jacobi(X, y, "logit").beta
            for m in (1, 2, 3, 7, 400):
                result = run_harness(X, y, m, "logit", seed=SeedSpec(5, m))
                np.testing.assert_allclose(result.beta, mono, rtol=1e-10)
                assert [s.shard_id for s in result.partials] == list(range(m))

    def test_non_finite_cell_names_shard_row_and_column(self):
        X, y = logit_data(seed=14, n=40, p=3)
        X[25, 2] = np.nan  # row 5 of shard 2 when 40 rows split into 4 shards of 10
        with pytest.raises(DimensionMismatchError, match="shard 2: X contains a non-finite entry at row 5, column 2: nan"):
            run_harness(X, y, n_shards=4, family="logit")
        X[25, 2], y[31] = 0.0, 2.0
        with pytest.raises(InvalidResponseError, match="shard 3: binary response must be 0 or 1; offending index 1: 2.0"):
            run_harness(X, y, n_shards=4, family="logit")

    def test_partition_counts_validated(self):
        X, y = logit_data(seed=10, n=10, p=2)
        with pytest.raises(DimensionMismatchError):
            run_harness(X, y, n_shards=11, family="logit")
        with pytest.raises(DimensionMismatchError):
            run_harness(X, y, n_shards=0, family="logit")
        with pytest.raises(ConfigError, match="max_workers must be >= 1, got 0"):
            run_harness(X, y, n_shards=2, family="logit", max_workers=0)

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
