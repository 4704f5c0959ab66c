"""Tests for minibatch sampling and the dataset registry."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.batching import MinibatchSampler
from repro.data.dataset import Dataset
from repro.data.registry import DATASET_NAMES, SCALES, make_federated_dataset


def _ds(n=10, d=2, classes=2, seed=0):
    gen = np.random.default_rng(seed)
    # encode the row index into the features so batches are traceable
    X = np.arange(n, dtype=np.float64)[:, None] * np.ones((1, d))
    return Dataset(X, gen.integers(0, classes, size=n), classes)


class TestMinibatchSampler:
    def test_batch_shape(self):
        s = MinibatchSampler(_ds(10), 3, np.random.default_rng(0))
        X, y = s.next_batch()
        assert X.shape == (3, 2) and y.shape == (3,)

    def test_batch_size_clamped_to_shard(self):
        s = MinibatchSampler(_ds(4), 100, np.random.default_rng(0))
        X, _ = s.next_batch()
        assert X.shape[0] == 4

    def test_epoch_without_replacement(self):
        """Within one epoch every sample appears exactly once."""
        s = MinibatchSampler(_ds(12), 4, np.random.default_rng(0))
        seen = np.concatenate([s.next_batch()[0][:, 0] for _ in range(3)])
        np.testing.assert_array_equal(np.sort(seen), np.arange(12))

    def test_wraparound_batches_full_size(self):
        s = MinibatchSampler(_ds(5), 3, np.random.default_rng(0))
        for _ in range(4):
            X, _ = s.next_batch()
            assert X.shape[0] == 3

    def test_two_epochs_cover_all_twice(self):
        s = MinibatchSampler(_ds(6), 3, np.random.default_rng(1))
        seen = np.concatenate([s.next_batch()[0][:, 0] for _ in range(4)])
        counts = np.bincount(seen.astype(int), minlength=6)
        np.testing.assert_array_equal(counts, np.full(6, 2))

    def test_deterministic_given_rng(self):
        a = MinibatchSampler(_ds(10), 3, np.random.default_rng(5))
        b = MinibatchSampler(_ds(10), 3, np.random.default_rng(5))
        for _ in range(5):
            Xa, _ = a.next_batch()
            Xb, _ = b.next_batch()
            np.testing.assert_array_equal(Xa, Xb)

    def test_counts_batches(self):
        s = MinibatchSampler(_ds(10), 2, np.random.default_rng(0))
        for _ in range(7):
            s.next_batch()
        assert s.batches_drawn == 7

    def test_iter_protocol(self):
        s = MinibatchSampler(_ds(10), 2, np.random.default_rng(0))
        it = iter(s)
        X, y = next(it)
        assert X.shape == (2, 2)

    def test_rejects_empty_dataset(self):
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
        with pytest.raises(ValueError):
            MinibatchSampler(empty, 1, np.random.default_rng(0))

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            MinibatchSampler(_ds(), 0, np.random.default_rng(0))


def _reference_next_batch(sampler):
    """The general wrap-around draw, without the in-epoch fast path."""
    n = len(sampler.dataset)
    take = []
    need = sampler.batch_size
    while need > 0:
        available = n - sampler._cursor
        if available == 0:
            sampler._order = sampler._rng.permutation(n)
            sampler._cursor = 0
            available = n
        step = min(need, available)
        take.append(sampler._order[sampler._cursor:sampler._cursor + step])
        sampler._cursor += step
        need -= step
    idx = take[0] if len(take) == 1 else np.concatenate(take)
    sampler.batches_drawn += 1
    return sampler.dataset.X[idx], sampler.dataset.y[idx]


class TestNextBatchFastPath:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 12), extra=st.integers(0, 12),
           draws=st.integers(1, 40), seed=st.integers(0, 2**16))
    def test_draws_match_general_path(self, n, extra, draws, seed):
        """The single-slice fast path draws exactly what the general
        wrap-around loop draws, for batch sizes 1 … n+1 and across many
        epoch boundaries (RNG consumption included)."""
        batch_size = 1 + extra % (n + 1)
        fast = MinibatchSampler(_ds(n, seed=seed), batch_size,
                                np.random.default_rng(seed))
        ref = MinibatchSampler(_ds(n, seed=seed), batch_size,
                               np.random.default_rng(seed))
        for _ in range(draws):
            Xf, yf = fast.next_batch()
            Xr, yr = _reference_next_batch(ref)
            np.testing.assert_array_equal(Xf, Xr)
            np.testing.assert_array_equal(yf, yr)
        assert fast._cursor == ref._cursor
        assert fast.batches_drawn == ref.batches_drawn == draws
        np.testing.assert_array_equal(fast._order, ref._order)
        assert fast._rng.random() == ref._rng.random()


class TestRegistry:
    def test_all_names_build_at_tiny_scale(self):
        for name in DATASET_NAMES:
            fed = make_federated_dataset(name, seed=0, scale="tiny")
            assert fed.num_edges >= 1
            assert fed.num_clients >= fed.num_edges

    def test_paper_topology_defaults(self):
        fed = make_federated_dataset("emnist_digits", seed=0, scale="tiny")
        assert fed.num_edges == 10
        assert fed.clients_per_edge() == [3] * 10

    def test_adult_two_edges(self):
        fed = make_federated_dataset("adult", seed=0, scale="tiny")
        assert fed.num_edges == 2
        assert fed.num_classes == 2

    def test_synthetic_devices_scale(self):
        fed = make_federated_dataset("synthetic", seed=0, scale="tiny")
        assert fed.num_edges == SCALES["tiny"].synthetic_devices

    def test_similarity_partition_option(self):
        fed = make_federated_dataset("fashion_mnist", seed=0, scale="tiny",
                                     partition="similarity", similarity=0.5)
        assert fed.num_edges == 10

    def test_topology_overrides(self):
        fed = make_federated_dataset("mnist", seed=0, scale="tiny", num_edges=5,
                                     clients_per_edge=2)
        assert fed.num_edges == 5
        assert fed.clients_per_edge() == [2] * 5

    def test_deterministic_by_seed(self):
        a = make_federated_dataset("mnist", seed=3, scale="tiny")
        b = make_federated_dataset("mnist", seed=3, scale="tiny")
        np.testing.assert_array_equal(a.edges[0].clients[0].X,
                                      b.edges[0].clients[0].X)

    def test_different_seed_differs(self):
        a = make_federated_dataset("mnist", seed=3, scale="tiny")
        b = make_federated_dataset("mnist", seed=4, scale="tiny")
        assert not np.array_equal(a.edges[0].clients[0].X, b.edges[0].clients[0].X)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_federated_dataset("imagenet", seed=0)

    def test_unknown_scale_raises(self):
        with pytest.raises(ValueError):
            make_federated_dataset("mnist", seed=0, scale="huge")

    def test_unknown_partition_raises(self):
        with pytest.raises(ValueError):
            make_federated_dataset("mnist", seed=0, scale="tiny", partition="sorted")

    def test_image_edges_hold_one_class_each(self):
        fed = make_federated_dataset("emnist_digits", seed=0, scale="tiny")
        for e, edge in enumerate(fed.edges):
            np.testing.assert_array_equal(np.unique(edge.train_pool().y), [e])
