"""Minibatch sampling for client-side SGD.

Each client owns a :class:`MinibatchSampler` over its local shard.  The sampler
cycles through random epoch permutations (sampling without replacement within an
epoch, the standard SGD regime) and exposes :meth:`next_batch` for the inner loop of
Eq. (4).  Batches smaller than the shard wrap across epoch boundaries so every call
returns exactly ``batch_size`` rows; a boundary-spanning batch may therefore contain
a sample twice (the old epoch's tail plus the new epoch's head).  Per-sample usage
counts still never differ by more than 1 at any instant, since each epoch uses each
sample exactly once.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset

__all__ = ["MinibatchSampler"]


class MinibatchSampler:
    """Infinite shuffled-epoch minibatch stream over one dataset.

    Parameters
    ----------
    dataset:
        The local shard.
    batch_size:
        Rows per batch; the paper uses 1 (convex runs) and 8 (non-convex runs).
        Clamped to the shard size.
    rng:
        Client-local generator; consumed on every reshuffle and batch draw.
    """

    def __init__(self, dataset: Dataset, batch_size: int,
                 rng: np.random.Generator) -> None:
        if len(dataset) == 0:
            raise ValueError("cannot sample minibatches from an empty dataset")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.dataset = dataset
        self.batch_size = min(int(batch_size), len(dataset))
        self._rng = rng
        self._order = rng.permutation(len(dataset))
        self._cursor = 0
        self.batches_drawn = 0

    def next_batch(self) -> tuple[np.ndarray, np.ndarray]:
        """Return the next (X, y) minibatch of exactly ``batch_size`` rows."""
        need = self.batch_size
        start = self._cursor
        n = len(self.dataset)
        if start + need <= n:  # within the current epoch: one slice
            self._cursor = start + need
            self.batches_drawn += 1
            idx = self._order[start:start + need]
            return self.dataset.X[idx], self.dataset.y[idx]
        take: list[np.ndarray] = []
        while need > 0:
            available = n - self._cursor
            if available == 0:
                self._order = self._rng.permutation(n)
                self._cursor = 0
                available = n
            step = min(need, available)
            take.append(self._order[self._cursor:self._cursor + step])
            self._cursor += step
            need -= step
        idx = take[0] if len(take) == 1 else np.concatenate(take)
        self.batches_drawn += 1
        return self.dataset.X[idx], self.dataset.y[idx]

    def __iter__(self):
        while True:
            yield self.next_batch()
