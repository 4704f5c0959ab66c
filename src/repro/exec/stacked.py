"""The stacked kernel: one SGD run for a whole group of same-shape clients.

A round over many small clients is dominated by Python/layer dispatch
overhead, not arithmetic.  The stacked kernel takes the clients of a dispatch
that share a step count and per-step batch shapes, stacks their minibatches
into ``(n_clients, batch, dim)`` tensors and runs each SGD step of the *whole
group* as a handful of batched ``np.matmul`` calls (stacked GEMMs) with one
leading client axis — for the paper's convex model (multinomial logistic
regression) and for the non-convex MLP stack alike.

Eligibility is declarative: every layer of the engine must carry a
``vector_kind`` tag (:class:`~repro.nn.layers.Linear`, ``ReLU``, ``Tanh``,
``Identity`` do) and the loss must be exactly
:class:`~repro.nn.losses.SoftmaxCrossEntropy`.  Which eligible groups are
stacked is the backend's choice (:meth:`repro.exec.serial.SerialBackend.stacks`).

Bit-exactness: NumPy applies the batched matmul/reduction kernels slice-by-
slice with the same accumulation order as the equivalent 2-D call, so every
client's update is bit-identical to :func:`~repro.exec.base.run_local_steps_kernel`.
The kernel-level tests assert this for logistic *and* MLP engines, with and
without L2 and checkpoints, at batch sizes 1 and 8.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exec.base import LocalStepsTask
from repro.nn.losses import SoftmaxCrossEntropy, check_class_targets
from repro.nn.network import NeuralNetwork
from repro.ops.numerics import softmax_xent_grad

__all__ = ["engine_is_batchable", "run_stacked_kernel"]


def _layer_kind(layer) -> str | None:
    """The layer's declared batched-kernel tag, non-inherited.

    Read from the exact class only: a subclass may override
    ``forward``/``backward``, so it must re-declare ``vector_kind`` itself to
    claim its bits match the stacked kernel's.
    """
    return type(layer).__dict__.get("vector_kind")


def engine_is_batchable(engine: NeuralNetwork) -> bool:
    """True when every layer and the loss are in the batched kernel's vocabulary."""
    if type(engine.loss_fn) is not SoftmaxCrossEntropy:
        return False
    return all(_layer_kind(layer) is not None for layer in engine.layers)


class _StackedModel:
    """An engine's layer stack replicated over ``n`` clients.

    Holds ``(n, …)``-stacked copies of every parameter tensor, each
    initialized from the same ``w_start``, gradient buffers of the same
    shapes that every step reuses, plus the flat-buffer slices needed to
    reassemble per-client parameter vectors in the engine's spec order.
    The reused buffers matter: a fresh parameter-sized temporary per step
    would be returned to the OS and page-faulted back in on every step.
    """

    def __init__(self, engine: NeuralNetwork, w_start: np.ndarray,
                 n: int) -> None:
        self.n = n
        self.dim = w_start.size
        self.input_dim = engine.input_dim
        self.classes = engine.output_dim
        self.l2 = engine.l2
        slices: dict[int, dict[str, slice]] = {}
        for layer, spec, sl in engine._specs:
            slices.setdefault(id(layer), {})[spec.name] = sl
        #: list of (kind, payload); only "linear" entries carry parameters.
        self.layers: list[tuple[str, dict]] = []
        for layer in engine.layers:
            kind = _layer_kind(layer)
            if kind != "linear":
                self.layers.append((kind, {}))
                continue
            sl_w = slices[id(layer)]["W"]
            sl_b = slices[id(layer)].get("b")
            Ws = np.repeat(w_start[sl_w].reshape(
                1, layer.in_features, layer.out_features), n, axis=0)
            bs = (None if sl_b is None else np.repeat(
                w_start[sl_b].reshape(1, layer.out_features), n, axis=0))
            self.layers.append(("linear", {
                "Ws": Ws, "gW": np.empty_like(Ws),
                "tW": np.empty_like(Ws) if self.l2 else None,
                "bs": bs, "gb": None if bs is None else np.empty_like(bs),
                "sl_w": sl_w,
                "sl_b": sl_b,
            }))

    def check(self, X: np.ndarray, y: np.ndarray) -> None:
        """The per-task path's input checks, once per stacked step.

        Same conditions and messages as ``NeuralNetwork._check_input`` and the
        loss's label check, so an invalid batch fails the same way whichever
        kernel runs it (a negative label would otherwise index from the end).
        """
        if X.ndim != 3 or X.shape[2] != self.input_dim:
            raise ValueError(
                f"input must be (batch, {self.input_dim}), "
                f"got shape {X.shape[1:]}")
        if y.ndim != 2 or y.shape[1] != X.shape[1]:
            raise ValueError(
                f"targets must be (batch,) matching logits "
                f"{(X.shape[1], self.classes)}, got {y.shape[1:]}")
        check_class_targets(y, self.classes)

    def step(self, X: np.ndarray, y: np.ndarray, lr: float) -> None:
        """One batched SGD step over all ``n`` clients.

        Replays exactly the per-task kernel's floating-point operations with
        one leading stack axis: per Linear layer ``out = X @ W (+ b)``; the
        fused loss gradient ``g = (softmax(logits) − onehot)/B``; backward
        ``gW = Xᵀ g``, ``gb = Σ g``, ``g ← g Wᵀ`` gated through the activation
        masks; then ``θ -= lr·(∇ + l2·θ)`` only once the whole backward has
        finished — the same update order as the flat-buffer step, so
        gradient propagation always reads pre-update weights.  The update
        runs in place in the gradient buffers; each elementwise operation
        and its rounding is the flat step's (``lr·g`` and ``g·lr`` are the
        same IEEE product).
        """
        acts = X
        caches: list = []
        for kind, p in self.layers:
            if kind == "linear":
                caches.append(acts)
                out = np.matmul(acts, p["Ws"])
                if p["bs"] is not None:
                    out += p["bs"][:, None, :]
                acts = out
            elif kind == "relu":
                caches.append(acts > 0.0)
                acts = np.maximum(acts, 0.0)
            elif kind == "tanh":
                acts = np.tanh(acts)
                caches.append(acts)
            else:  # identity
                caches.append(None)
        grad = softmax_xent_grad(acts, y)
        for i in range(len(self.layers) - 1, -1, -1):
            kind, p = self.layers[i]
            cache = caches[i]
            if kind == "linear":
                np.matmul(cache.swapaxes(1, 2), grad, out=p["gW"])
                if p["bs"] is not None:
                    grad.sum(axis=1, out=p["gb"])
                if i:  # the first layer's input gradient is never consumed
                    grad = np.matmul(grad, p["Ws"].swapaxes(1, 2))
            elif kind == "relu":
                grad = grad * cache
            elif kind == "tanh":
                grad = grad * (1.0 - cache * cache)
        l2 = self.l2
        for kind, p in self.layers:
            if kind != "linear":
                continue
            gW = p["gW"]
            if l2:
                gW += np.multiply(p["Ws"], l2, out=p["tW"])
            gW *= lr
            p["Ws"] -= gW
            gb = p["gb"]
            if gb is not None:
                if l2:
                    gb += l2 * p["bs"]
                gb *= lr
                p["bs"] -= gb

    def flatten(self, i: int) -> np.ndarray:
        """Client ``i``'s flat parameter vector, reassembled in spec order."""
        flat = np.empty(self.dim, dtype=np.float64)
        for kind, p in self.layers:
            if kind != "linear":
                continue
            flat[p["sl_w"]] = p["Ws"][i].ravel()
            if p["sl_b"] is not None:
                flat[p["sl_b"]] = p["bs"][i]
        return flat


def run_stacked_kernel(engine: NeuralNetwork, w_start: np.ndarray,
                       tasks: Sequence[LocalStepsTask],
                       ) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """Run a group of tasks as one batched SGD loop; ``(w_end, w_checkpoint)`` each.

    The tasks must share ``steps``, ``lr``, ``checkpoint_after`` and every
    step's batch shapes, use the identity projection, and carry one batch per
    step; ``engine`` must be :func:`engine_is_batchable`.  Each result is
    bit-identical to :func:`~repro.exec.base.run_local_steps_kernel` on that
    task.  The engine's own parameters are neither read nor written.
    """
    task0 = tasks[0]
    ckpt = task0.checkpoint_after
    model = _StackedModel(engine, np.asarray(w_start, dtype=np.float64),
                          len(tasks))
    ckpt_flats: list[np.ndarray] | None = None
    for t in range(task0.steps):
        # The group key guarantees equal shapes, so np.array stacks them.
        X = np.array([task.batches[t][0] for task in tasks], dtype=np.float64)
        y = np.array([task.batches[t][1] for task in tasks])
        model.check(X, y)
        model.step(X, y, task0.lr)
        if ckpt is not None and t + 1 == ckpt:
            ckpt_flats = [model.flatten(i) for i in range(len(tasks))]
    return [(model.flatten(i), None if ckpt_flats is None else ckpt_flats[i])
            for i in range(len(tasks))]
