import numpy as np
import pytest

from jacobiprior.errors import ConfigError
from jacobiprior.rng import SeedSpec, derive_rng


def test_same_inputs_reproduce_sequence():
    a = derive_rng(SeedSpec(123, 4), 9).random(100)
    b = derive_rng(SeedSpec(123, 4), 9).random(100)
    np.testing.assert_array_equal(a, b)


def test_task_indices_produce_distinct_streams():
    a = derive_rng(SeedSpec(123, 4), 0).random(100)
    b = derive_rng(SeedSpec(123, 4), 1).random(100)
    assert not np.array_equal(a, b)


def test_stream_ids_produce_distinct_streams():
    a = derive_rng(SeedSpec(123, 0), 0).random(100)
    b = derive_rng(SeedSpec(123, 1), 0).random(100)
    assert not np.array_equal(a, b)


def test_root_seeds_produce_distinct_streams():
    a = derive_rng(SeedSpec(1, 0), 0).random(100)
    b = derive_rng(SeedSpec(2, 0), 0).random(100)
    assert not np.array_equal(a, b)


def test_uniform_mean_within_four_se():
    draws = derive_rng(SeedSpec(2024, 0), 0).random(100_000)
    se = np.sqrt(1.0 / 12.0 / draws.size)
    assert abs(draws.mean() - 0.5) <= 4.0 * se


def test_negative_indices_rejected():
    with pytest.raises(ConfigError, match="task_index"):
        derive_rng(SeedSpec(1, 0), -1)
    with pytest.raises(ConfigError, match="stream_id must be non-negative"):
        SeedSpec(1, -2)


@pytest.mark.parametrize("task_index", [1.5, True, "0", None])
def test_non_integer_task_index_rejected(task_index):
    with pytest.raises(ConfigError, match="task_index must be a non-negative integer"):
        derive_rng(SeedSpec(1, 0), task_index)


@pytest.mark.parametrize("root_seed, stream_id", [("x", 0), (1.7, 0), (True, 0), (1, 2.0), (1, False)])
def test_non_integer_seed_fields_rejected(root_seed, stream_id):
    with pytest.raises(ConfigError, match="must be an integer"):
        SeedSpec(root_seed, stream_id)


def test_numpy_integer_seed_fields_accepted():
    a = derive_rng(SeedSpec(np.int64(7), np.uint8(3)), 0).random(10)
    np.testing.assert_array_equal(a, derive_rng(SeedSpec(7, 3), 0).random(10))


def test_negative_root_seed_allowed_and_deterministic():
    a = derive_rng(SeedSpec(-5, 0), 0).random(10)
    b = derive_rng(SeedSpec(-5, 0), 0).random(10)
    np.testing.assert_array_equal(a, b)
