"""VectorizedBackend — the in-process backend that stacks every eligible group.

:class:`~repro.exec.serial.SerialBackend` forms the dispatch groups and picks
the stacked or the per-task kernel per group by a cost rule; this subclass
replaces the rule with "always stack", which makes it the backend that
exercises the stacked kernel (:mod:`repro.exec.stacked`) on every eligible
task — the bit-identity suites run under it to keep that kernel honest.
"""

from __future__ import annotations

from repro.exec.serial import SerialBackend
from repro.nn.network import NeuralNetwork

__all__ = ["VectorizedBackend"]


class VectorizedBackend(SerialBackend):
    """Stack every eligible group; per-task kernel only for ineligible tasks."""

    name = "vectorized"

    def stacks(self, engine: NeuralNetwork, n: int) -> bool:
        """Always stack."""
        return True
