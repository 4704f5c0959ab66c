"""Loss functions with fused forward/backward.

Both experiments in the paper use cross-entropy; :class:`SoftmaxCrossEntropy` fuses
the softmax with the loss so the backward pass is the numerically exact
``(softmax(z) - onehot(y)) / B`` instead of chaining two Jacobians.  An MSE loss is
included for gradient-check and regression-style tests.
"""

from __future__ import annotations

import numpy as np

from repro.ops.numerics import log_softmax, one_hot, softmax_xent_grad

__all__ = ["Loss", "SoftmaxCrossEntropy", "MeanSquaredError",
           "check_class_targets"]


class Loss:
    """Interface: ``forward`` returns the scalar mean loss, ``backward`` d(loss)/d(logits)."""

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        """Scalar mean loss of ``logits`` against ``targets``."""
        raise NotImplementedError

    def backward(self, logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Gradient of the mean loss with respect to ``logits``."""
        raise NotImplementedError


class SoftmaxCrossEntropy(Loss):
    """Mean cross-entropy between softmax(logits) and integer class targets."""

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        """Mean negative log-likelihood of the targets under softmax(logits)."""
        logits = np.asarray(logits, dtype=np.float64)
        targets = np.asarray(targets)
        _check_classification_shapes(logits, targets)
        logp = log_softmax(logits, axis=1)
        return float(-logp[np.arange(targets.shape[0]), targets].mean())

    def backward(self, logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """The fused gradient ``(softmax(logits) - onehot(targets)) / batch``."""
        logits = np.asarray(logits, dtype=np.float64)
        targets = np.asarray(targets)
        _check_classification_shapes(logits, targets)
        return softmax_xent_grad(logits, targets)

    def forward_per_sample(self, logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Per-sample losses (used by loss-estimation in Phase 2 diagnostics)."""
        logits = np.asarray(logits, dtype=np.float64)
        targets = np.asarray(targets)
        _check_classification_shapes(logits, targets)
        logp = log_softmax(logits, axis=1)
        return -logp[np.arange(targets.shape[0]), targets]


class MeanSquaredError(Loss):
    """Mean of squared residuals, ``mean((logits - targets)**2)`` over all entries."""

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        """Mean of squared residuals over all entries."""
        logits = np.asarray(logits, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if logits.shape != targets.shape:
            raise ValueError(f"MSE shape mismatch: {logits.shape} vs {targets.shape}")
        diff = logits - targets
        return float(np.mean(diff * diff))

    def backward(self, logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Gradient ``2(logits - targets)/size``."""
        logits = np.asarray(logits, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if logits.shape != targets.shape:
            raise ValueError(f"MSE shape mismatch: {logits.shape} vs {targets.shape}")
        return (2.0 / logits.size) * (logits - targets)


def _check_classification_shapes(logits: np.ndarray, targets: np.ndarray) -> None:
    if logits.ndim != 2:
        raise ValueError(f"logits must be (batch, classes), got {logits.shape}")
    if targets.ndim != 1 or targets.shape[0] != logits.shape[0]:
        raise ValueError(
            f"targets must be (batch,) matching logits {logits.shape}, got {targets.shape}")
    check_class_targets(targets, logits.shape[1])


def check_class_targets(targets: np.ndarray, classes: int) -> None:
    """Raise ``ValueError`` unless every integer label lies in ``[0, classes)``.

    Shared by the per-task loss and the stacked kernel, which checks a whole
    ``(clients, batch)`` label block per step with the same message.
    """
    if targets.size and (targets.min() < 0 or targets.max() >= classes):
        raise ValueError(
            f"targets out of range for {classes} classes: "
            f"[{targets.min()}, {targets.max()}]")


# re-export for convenience of loss implementations relying on one_hot
_ = one_hot
