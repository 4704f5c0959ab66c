"""Fairness statistics over per-edge-area accuracies.

Table 2 of the paper compares average, worst, and *variance* of test accuracies
across edge areas; the Synthetic row reports the worst-10% accuracy following
Li et al. [19].  All statistics here take a 1-D array of per-area accuracies.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "worst_accuracy",
    "average_accuracy",
    "worst_fraction_mean",
    "accuracy_variance_x1e4",
    "accuracy_range",
    "jain_fairness_index",
    "entropy_of_weights",
]


def _check(acc: np.ndarray) -> np.ndarray:
    acc = np.asarray(acc, dtype=np.float64)
    if acc.ndim != 1 or acc.size == 0:
        raise ValueError(f"need a nonempty 1-D accuracy array, got shape {acc.shape}")
    return acc


def average_accuracy(acc: np.ndarray) -> float:
    """Mean per-area accuracy (the "Average" column of Table 2)."""
    return float(_check(acc).mean())


def worst_accuracy(acc: np.ndarray) -> float:
    """Minimum per-area accuracy (the "Worst" column of Table 2)."""
    return float(_check(acc).min())


def worst_fraction_mean(acc: np.ndarray, fraction: float) -> float:
    """Mean accuracy of the worst ``fraction`` of areas (e.g. worst 10%).

    At least one area is always included, so with few areas
    (``⌊fraction · n⌋ < 1``) this degrades gracefully to the plain worst
    accuracy.  Callers that report the statistic under a "worst-X%" label
    should surface the degradation — :func:`~repro.metrics.evaluation
    .evaluate_record` flags it as ``extra["worst10_degraded"]``.
    """
    acc = _check(acc)
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    k = max(1, int(np.floor(fraction * acc.size)))
    worst_k = np.partition(acc, k - 1)[:k]
    return float(worst_k.mean())


def accuracy_variance_x1e4(acc: np.ndarray) -> float:
    """Population variance of per-area accuracies, scaled by 10⁴ (Table 2 units).

    The paper's variance entries (e.g. 21.05 on EMNIST-Digits) correspond to
    accuracies measured in percent, i.e. ``var(100·acc) = 1e4·var(acc)``.
    """
    acc = _check(acc)
    return float(acc.var() * 1e4)


def accuracy_range(acc: np.ndarray) -> float:
    """Spread ``max - min`` of per-area accuracies."""
    acc = _check(acc)
    return float(acc.max() - acc.min())


def jain_fairness_index(acc: np.ndarray) -> float:
    """Jain's index ``(Σx)² / (n·Σx²)`` in (0, 1]; 1 means perfectly uniform."""
    acc = _check(acc)
    peak = float(np.abs(acc).max())
    if peak == 0.0:
        return 1.0
    # Scaled by the peak so tiny entries cannot underflow Σx² to subnormals.
    x = acc / peak
    return float(x.sum()) ** 2 / (acc.size * float(x @ x))


def entropy_of_weights(p: np.ndarray) -> float:
    """Shannon entropy of a weight vector (diagnostic of how peaked ``p`` became)."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"need a nonempty 1-D weight vector, got shape {p.shape}")
    if np.any(p < -1e-12):
        raise ValueError("weights must be nonnegative")
    mass = p[p > 0]
    mass = mass / mass.sum()
    return float(-(mass * np.log(mass)).sum())
