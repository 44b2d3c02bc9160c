"""Tests for deterministic RNG streams."""

import numpy as np

from repro.utils.rng import RngStream


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = RngStream(42, "alpha").uint64(size=100)
        b = RngStream(42, "alpha").uint64(size=100)
        assert np.array_equal(a, b)

    def test_different_names_differ(self):
        a = RngStream(42, "alpha").uint64(size=100)
        b = RngStream(42, "beta").uint64(size=100)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngStream(1, "alpha").uint64(size=100)
        b = RngStream(2, "alpha").uint64(size=100)
        assert not np.array_equal(a, b)

    def test_child_streams_reproducible(self):
        a = RngStream(7, "run").child("3").random(size=10)
        b = RngStream(7, "run").child("3").random(size=10)
        assert np.array_equal(a, b)

    def test_child_independent_of_parent_consumption(self):
        parent = RngStream(7, "run")
        parent.random(size=1000)  # consume parent state
        child_after = parent.child("x").random(size=5)
        child_fresh = RngStream(7, "run").child("x").random(size=5)
        assert np.array_equal(child_after, child_fresh)


class TestApi:
    def test_integers_range(self):
        values = RngStream(1, "s").integers(0, 10, size=1000)
        assert values.min() >= 0 and values.max() < 10

    def test_random_unit_interval(self):
        values = RngStream(1, "s").random(size=1000)
        assert values.min() >= 0.0 and values.max() < 1.0

    def test_uint64_covers_high_bits(self):
        values = RngStream(1, "s").uint64(size=1000)
        assert (values >> np.uint64(63)).any()

    def test_choice_subset(self):
        values = RngStream(1, "s").choice(np.arange(5), size=100)
        assert set(np.unique(values)) <= set(range(5))

    def test_shuffle_permutes(self):
        values = list(range(20))
        arr = np.array(values)
        RngStream(1, "s").shuffle(arr)
        assert sorted(arr.tolist()) == values
