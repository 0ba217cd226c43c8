"""Tests for deterministic RNG derivation."""

import numpy as np
import pytest

from repro.simcore import derive_rng, lognormal_multipliers, spawn_rng


def test_same_path_same_stream():
    a = derive_rng(7, "tpch", 3).integers(0, 1_000_000, size=10)
    b = derive_rng(7, "tpch", 3).integers(0, 1_000_000, size=10)
    assert np.array_equal(a, b)


def test_different_paths_differ():
    a = derive_rng(7, "tpch", 3).integers(0, 1_000_000, size=10)
    b = derive_rng(7, "tpch", 4).integers(0, 1_000_000, size=10)
    c = derive_rng(8, "tpch", 3).integers(0, 1_000_000, size=10)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_string_and_int_path_components():
    # should not raise, and be stable
    a = derive_rng(1, "x", 2, "y").random()
    b = derive_rng(1, "x", 2, "y").random()
    assert a == b


def test_spawn_rng_children_are_independent():
    parent = derive_rng(42)
    kids = spawn_rng(parent, 3)
    draws = [k.integers(0, 10**9) for k in kids]
    assert len(set(draws)) == 3


def test_lognormal_multipliers_mean_near_one():
    rng = derive_rng(0)
    vals = lognormal_multipliers(rng, 200_00, sigma=0.5)
    assert vals.mean() == pytest.approx(1.0, rel=0.05)
    assert (vals > 0).all()


def test_lognormal_multipliers_clip():
    rng = derive_rng(0)
    vals = lognormal_multipliers(rng, 10_000, sigma=2.5, clip=4.0)
    assert vals.max() <= 4.0
    assert vals.min() >= 0.25


def test_lognormal_multipliers_zero_sigma_is_ones():
    rng = derive_rng(0)
    vals = lognormal_multipliers(rng, 5, sigma=0.0)
    assert np.array_equal(vals, np.ones(5))


def test_lognormal_multipliers_empty():
    rng = derive_rng(0)
    assert lognormal_multipliers(rng, 0, sigma=1.0).size == 0


def test_clipping_keeps_the_bytes_of_np_clip():
    for seed in range(200):
        for n in (4, 7, 64, 1000):
            a = np.random.default_rng(seed)
            raw = a.lognormal(mean=-0.045, sigma=0.3, size=n)
            got = lognormal_multipliers(np.random.default_rng(seed), n, sigma=0.3)
            assert got.tobytes() == np.clip(raw, 1 / 8.0, 8.0).tobytes()


def test_one_call_draws_the_bytes_of_successive_calls():
    """The property ``JobSpec.build_graph`` relies on to draw every skew of
    a sigma in one call."""
    for seed in range(50):
        once = lognormal_multipliers(np.random.default_rng(seed), 5 * 8, sigma=0.3)
        rng = np.random.default_rng(seed)
        parts = [lognormal_multipliers(rng, 8, sigma=0.3) for _ in range(5)]
        assert once.tobytes() == np.concatenate(parts).tobytes()
