"""Top-k sparsification with optional error feedback.

A biased but very aggressive compressor: keep the ``k`` largest-magnitude
coordinates of the update and drop the rest.  With *error feedback* (Karimireddy
et al., 2019) the dropped residual is added to the next update from the same
sender, which restores convergence for biased compressors; senders are
distinguished by an integer key.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["TopKSparsifier"]


class TopKSparsifier:
    """Keep the top ``fraction`` of coordinates by magnitude.

    Parameters
    ----------
    fraction:
        Fraction of coordinates transmitted, in (0, 1].
    error_feedback:
        Accumulate the dropped residual per sender and reinject it into that
        sender's next update.  Callers must pass a stable ``sender`` key to
        :meth:`compress_from` for feedback to attach correctly.
    """

    def __init__(self, fraction: float = 0.1, *, error_feedback: bool = True) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = float(fraction)
        self.error_feedback = bool(error_feedback)
        self._residuals: dict[int, np.ndarray] = {}

    def compress(self, delta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Sparsify ``delta`` without sender attribution (no error feedback)."""
        return self._topk(np.asarray(delta, dtype=np.float64))

    def compress_from(self, sender: int, delta: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
        """Sparsify ``delta`` from ``sender``, applying that sender's residual."""
        delta = np.asarray(delta, dtype=np.float64)
        if self.error_feedback:
            residual = self._residuals.get(sender)
            if residual is not None:
                delta = delta + residual
        kept = self._topk(delta)
        if self.error_feedback:
            self._residuals[sender] = delta - kept
        return kept

    def _topk(self, delta: np.ndarray) -> np.ndarray:
        d = delta.size
        k = max(1, int(math.ceil(self.fraction * d)))
        if k >= d:
            return delta.copy()
        out = np.zeros_like(delta)
        idx = np.argpartition(np.abs(delta), d - k)[d - k:]
        out[idx] = delta[idx]
        return out

    def payload_floats(self, dim: int) -> float:
        """k (value + 32-bit index) pairs, in float64 equivalents."""
        k = max(1, int(math.ceil(self.fraction * dim)))
        return k * 1.5  # 64-bit value + 32-bit index per kept coordinate

    def reset(self) -> None:
        """Drop all accumulated residuals (between runs)."""
        self._residuals.clear()

    def state_dict(self) -> dict:
        """The per-sender residuals, for checkpoint/resume."""
        return {"residuals": {str(sender): residual
                              for sender, residual in self._residuals.items()}}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output; an empty dict clears residuals."""
        self._residuals = {
            int(sender): np.asarray(residual, dtype=np.float64)
            for sender, residual in state.get("residuals", {}).items()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TopKSparsifier(fraction={self.fraction}, "
                f"error_feedback={self.error_feedback})")
