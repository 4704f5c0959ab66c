"""Tests for repro.utils.rng: determinism, independence, stability of streams."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import (RngFactory, as_generator, first_uniforms,
                             spawn_generators, stable_key)


class TestStableKey:
    def test_deterministic(self):
        assert stable_key("cloud") == stable_key("cloud")

    def test_distinct_names(self):
        assert stable_key("cloud") != stable_key("client")

    def test_fits_in_64_bits(self):
        assert 0 <= stable_key("anything") < 2**64


class TestAsGenerator:
    def test_from_int(self):
        g = as_generator(3)
        assert isinstance(g, np.random.Generator)

    def test_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_from_seed_sequence(self):
        g = as_generator(np.random.SeedSequence(5))
        assert isinstance(g, np.random.Generator)

    def test_same_int_same_stream(self):
        a = as_generator(9).random(4)
        b = as_generator(9).random(4)
        np.testing.assert_array_equal(a, b)


class TestSpawnGenerators:
    def test_count(self):
        gens = spawn_generators(0, 5)
        assert len(gens) == 5

    def test_zero_is_allowed(self):
        assert spawn_generators(0, 0) == []

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)

    def test_streams_are_independent(self):
        a, b = spawn_generators(0, 2)
        assert not np.allclose(a.random(8), b.random(8))

    def test_deterministic(self):
        a1, _ = spawn_generators(42, 2)
        a2, _ = spawn_generators(42, 2)
        np.testing.assert_array_equal(a1.random(8), a2.random(8))


class TestRngFactory:
    def test_stream_reproducible(self):
        f = RngFactory(seed=1)
        x = f.stream("cloud").random(5)
        y = f.stream("cloud").random(5)
        np.testing.assert_array_equal(x, y)

    def test_distinct_names_distinct_streams(self):
        f = RngFactory(seed=1)
        assert not np.allclose(f.stream("a").random(8), f.stream("b").random(8))

    def test_distinct_seeds_distinct_streams(self):
        assert not np.allclose(RngFactory(0).stream("a").random(8),
                               RngFactory(1).stream("a").random(8))

    def test_streams_count_and_independence(self):
        f = RngFactory(seed=2)
        gens = f.streams("client", 4)
        assert len(gens) == 4
        draws = [g.random(6) for g in gens]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.allclose(draws[i], draws[j])

    def test_streams_match_individual_indexing(self):
        f = RngFactory(seed=2)
        a = f.streams("client", 3)[1].random(4)
        b = f.streams("client", 5)[1].random(4)
        np.testing.assert_array_equal(a, b)

    def test_streams_negative_raises(self):
        with pytest.raises(ValueError):
            RngFactory(0).streams("x", -2)

    def test_iter_streams_prefix_matches_streams(self):
        f = RngFactory(seed=3)
        it = f.iter_streams("worker")
        fixed = f.streams("worker", 3)
        for expected in fixed:
            got = next(it)
            np.testing.assert_array_equal(got.random(4), expected.random(4))

    def test_child_factories_differ(self):
        f = RngFactory(seed=4)
        a = f.child("round0").stream("x").random(4)
        b = f.child("round1").stream("x").random(4)
        assert not np.allclose(a, b)

    def test_seed_property(self):
        assert RngFactory(seed=77).seed == 77


def _scalar_first_uniforms(entropy, prefix, keys) -> np.ndarray:
    return np.array([
        np.random.default_rng(np.random.SeedSequence(
            entropy, spawn_key=(*prefix, int(k)))).random()
        for k in keys], dtype=np.float64)


#: Entropy across SeedSequence's word-count regimes: zero, one word, more
#: than two words, and more than the 4-word pool.
_ENTROPY = st.one_of(st.just(0), st.integers(1, 2**32 - 1),
                     st.integers(2**64, 2**96), st.integers(2**128, 2**160))
_WORD = st.one_of(st.just(0), st.integers(1, 2**32 - 1),
                  st.integers(2**32, 2**64 - 1))
_KEY = st.one_of(_WORD, st.just(2**64 - 1))


class TestFirstUniforms:
    @settings(max_examples=60, deadline=None)
    @given(entropy=_ENTROPY, prefix=st.lists(_WORD, max_size=3),
           keys=st.lists(_KEY, max_size=12))
    def test_matches_scalar_streams(self, entropy, prefix, keys):
        got = first_uniforms(entropy, tuple(prefix),
                             np.array(keys, dtype=np.uint64))
        assert got.dtype == np.float64 and got.shape == (len(keys),)
        assert np.array_equal(got, _scalar_first_uniforms(entropy, prefix, keys))

    def test_named_stream_keys(self):
        keys = [stable_key(f"client:{i}") for i in range(300)] + [0, 2**64 - 1]
        prefix = (stable_key("membership:client_churn"), 17)
        np.testing.assert_array_equal(
            first_uniforms(5, prefix, keys),
            _scalar_first_uniforms(5, prefix, keys))

    def test_empty_keys(self):
        out = first_uniforms(3, (1, 2), np.array([], dtype=np.uint64))
        assert out.shape == (0,) and out.dtype == np.float64

    def test_rejects_negative_seed_material(self):
        with pytest.raises(ValueError):
            first_uniforms(-1, (), [0])
        with pytest.raises(ValueError):
            first_uniforms(0, (-2,), [0])
