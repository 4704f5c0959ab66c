"""The :class:`NeuralNetwork` container: flat-buffer models for federated training.

A ``NeuralNetwork`` stitches a list of layers and a loss into a trainable model whose
entire parameter state is one contiguous ``float64`` vector.  That vector *is* the
``w`` of the paper: clients run SGD on it, edge servers average it, the cloud
broadcasts it.  The flat representation makes those operations single BLAS-level
calls with no Python-per-layer overhead.

Key operations
--------------
``get_params() / set_params(w)``
    Copy-out / copy-in of the flat parameter vector.
``loss_and_gradient(X, y)``
    One fused forward+backward over a minibatch; returns (scalar loss, flat grad).
``gradient(X, y)``
    The same flat gradient, bit for bit, without the loss value, left in the
    live gradient buffer (the SGD step).
``loss(X, y) / accuracy(X, y) / predict(X)``
    Evaluation-mode passes (no caching).
``clone()``
    Structurally identical model with its own buffers (same parameter values).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.layers import Layer, ParamSpec
from repro.nn.losses import Loss, SoftmaxCrossEntropy
from repro.utils.rng import as_generator

__all__ = ["NeuralNetwork"]


class NeuralNetwork:
    """A feed-forward model over a single flat parameter buffer.

    Parameters
    ----------
    layers:
        Ordered layer list (each used exactly once; layers own forward caches).
    loss:
        Loss object; defaults to :class:`SoftmaxCrossEntropy`.
    input_dim:
        Feature dimension of inputs; used for shape validation.
    rng:
        Generator (or seed) for parameter initialization.
    l2:
        Optional L2 regularization coefficient added to loss and gradient
        (``l2/2 * ||w||^2``); 0 disables.
    """

    def __init__(self, layers: Sequence[Layer], *, input_dim: int,
                 loss: Loss | None = None,
                 rng: np.random.Generator | int | None = 0,
                 l2: float = 0.0) -> None:
        if not layers:
            raise ValueError("NeuralNetwork needs at least one layer")
        if input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {input_dim}")
        if l2 < 0:
            raise ValueError(f"l2 must be nonnegative, got {l2}")
        self.layers: list[Layer] = list(layers)
        self.loss_fn: Loss = loss if loss is not None else SoftmaxCrossEntropy()
        self.input_dim = int(input_dim)
        self.l2 = float(l2)

        # Validate the shape pipeline and compute output dim.
        dim = self.input_dim
        for layer in self.layers:
            dim = layer.output_dim(dim)
        self.output_dim = dim

        # Allocate the flat parameter and gradient buffers and bind views.
        self._specs: list[tuple[Layer, ParamSpec, slice]] = []
        offset = 0
        for layer in self.layers:
            for spec in layer.param_specs():
                self._specs.append((layer, spec, slice(offset, offset + spec.size)))
                offset += spec.size
        self._params = np.zeros(offset, dtype=np.float64)
        self._grads = np.zeros(offset, dtype=np.float64)
        for layer in self.layers:
            views: dict[str, np.ndarray] = {}
            gviews: dict[str, np.ndarray] = {}
            for owner, spec, sl in self._specs:
                if owner is layer:
                    views[spec.name] = self._params[sl].reshape(spec.shape)
                    gviews[spec.name] = self._grads[sl].reshape(spec.shape)
            layer.bind(views, gviews)
        self.initialize(rng)

    # ------------------------------------------------------------------ params
    @property
    def num_parameters(self) -> int:
        """Total scalar parameter count (the paper's ``d``)."""
        return self._params.size

    def initialize(self, rng: np.random.Generator | int | None = 0) -> None:
        """(Re)initialize every parameter tensor from its layer's initializer."""
        gen = as_generator(rng)
        for layer, spec, sl in self._specs:
            spec.init(self._params[sl].reshape(spec.shape), gen)

    def get_params(self) -> np.ndarray:
        """Return a *copy* of the flat parameter vector (safe to mutate/ship)."""
        return self._params.copy()

    def set_params(self, w: np.ndarray) -> None:
        """Load a flat parameter vector into the model (copied in place)."""
        w = np.asarray(w, dtype=np.float64)
        if w.shape != self._params.shape:
            raise ValueError(
                f"parameter vector has shape {w.shape}, model expects {self._params.shape}")
        self._params[:] = w

    def params_view(self) -> np.ndarray:
        """The live flat parameter buffer (mutations take effect immediately).

        Exposed for in-place optimizers; most callers want :meth:`get_params`.
        """
        return self._params

    def grads_view(self) -> np.ndarray:
        """The live flat gradient buffer (filled by :meth:`loss_and_gradient`
        and :meth:`gradient`)."""
        return self._grads

    def zero_grad(self) -> None:
        """Reset the flat gradient buffer to zero (in place)."""
        self._grads.fill(0.0)

    # ------------------------------------------------------------------ passes
    def forward(self, X: np.ndarray, *, train: bool = False) -> np.ndarray:
        """Run the layer pipeline on a (batch, input_dim) matrix; return logits."""
        X = self._check_input(X)
        out = X
        for layer in self.layers:
            out = layer.forward(out, train=train)
        return out

    def loss(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean loss of the current parameters on (X, y), evaluation mode."""
        value = self.loss_fn.forward(self.forward(X, train=False), y)
        if self.l2:
            value += 0.5 * self.l2 * float(self._params @ self._params)
        return value

    def loss_and_gradient(self, X: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        """Fused forward+backward; returns (loss, flat gradient copy).

        The gradient of the mean minibatch loss — the stochastic gradient
        ``∇f_n(w; ξ)`` of Eq. (4) — plus the L2 term when configured.
        """
        logits = self.forward(X, train=True)
        value = self.loss_fn.forward(logits, y)
        flat = self._backward(logits, y).copy()
        if self.l2:
            value += 0.5 * self.l2 * float(self._params @ self._params)
        return value, flat

    def gradient(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Flat minibatch gradient alone, bit-identical to ``loss_and_gradient``'s.

        The local-SGD step discards the loss value, so this skips computing
        it (the forward loss's log-softmax and mean, and its second label
        check).  Returns the live gradient buffer (:meth:`grads_view`), L2
        term included, not a copy: the step scales and applies it in place,
        with no parameter-sized temporaries.  The next pass overwrites it;
        copy it to keep it.
        """
        return self._backward(self.forward(X, train=True), y)

    def _backward(self, logits: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Fill the gradient buffer from a train-mode forward's logits.

        Adds the L2 term in place and returns the buffer.  The first layer's
        input gradient is never read; a layer class that defines its own
        ``backward_params`` (exact class, not inherited — a subclass may
        override ``backward``) skips computing it.
        """
        self.zero_grad()
        grad = self.loss_fn.backward(logits, y)
        layers = self.layers
        for layer in reversed(layers[1:]):
            grad = layer.backward(grad)
        first = layers[0]
        if "backward_params" in type(first).__dict__:
            first.backward_params(grad)
        else:
            first.backward(grad)
        if self.l2:
            self._grads += self.l2 * self._params
        return self._grads

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Argmax class prediction for each row of ``X``."""
        return np.argmax(self.forward(X, train=False), axis=1)

    def accuracy_and_loss(self, X: np.ndarray, y: np.ndarray) -> tuple[float, float]:
        """Fused evaluation sweep: (accuracy, mean loss) from ONE forward pass.

        ``accuracy(X, y)`` followed by ``loss(X, y)`` runs the layer pipeline
        twice on the same test matrix; evaluation rounds sweep every edge's
        test set, so the second pass is pure waste.  The forward pass is
        deterministic, so both statistics computed from the single shared
        logits matrix are bit-identical to the two-pass results — a contract
        the metrics tests assert byte-for-byte.
        """
        y = np.asarray(y)
        if y.shape[0] == 0:
            raise ValueError("cannot compute accuracy on an empty batch")
        logits = self.forward(X, train=False)
        acc = float(np.mean(np.argmax(logits, axis=1) == y))
        value = self.loss_fn.forward(logits, y)
        if self.l2:
            value += 0.5 * self.l2 * float(self._params @ self._params)
        return acc, value

    def accuracy(self, X: np.ndarray, y: np.ndarray) -> float:
        """Fraction of rows classified correctly."""
        y = np.asarray(y)
        if y.shape[0] == 0:
            raise ValueError("cannot compute accuracy on an empty batch")
        return float(np.mean(self.predict(X) == y))

    # ------------------------------------------------------------------ misc
    def _rebind_views(self) -> None:
        """Re-attach every layer's parameter/gradient views to the flat buffers.

        ``copy.deepcopy`` and ``pickle`` copy each ndarray independently, so a
        copied layer's ``W`` would otherwise be a *detached* array rather than a
        view into the copied ``_params`` — ``set_params`` on the copy would then
        silently stop reaching the layers.  Every copy path below calls this.
        """
        for layer in self.layers:
            views: dict[str, np.ndarray] = {}
            gviews: dict[str, np.ndarray] = {}
            for owner, spec, sl in self._specs:
                if owner is layer:
                    views[spec.name] = self._params[sl].reshape(spec.shape)
                    gviews[spec.name] = self._grads[sl].reshape(spec.shape)
            layer.bind(views, gviews)

    def __getstate__(self) -> dict:
        return dict(self.__dict__)

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._rebind_views()

    def __deepcopy__(self, memo: dict) -> "NeuralNetwork":
        import copy

        cls = self.__class__
        twin = cls.__new__(cls)
        memo[id(self)] = twin
        for key, value in self.__dict__.items():
            setattr(twin, key, copy.deepcopy(value, memo))
        twin._rebind_views()
        return twin

    def clone(self) -> "NeuralNetwork":
        """Deep copy: identical architecture + parameter values, fresh buffers."""
        import copy

        twin = copy.deepcopy(self)
        return twin

    def _check_input(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError(
                f"input must be (batch, {self.input_dim}), got shape {X.shape}")
        return X

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = "->".join(type(layer).__name__ for layer in self.layers)
        return (f"NeuralNetwork({names}, input_dim={self.input_dim}, "
                f"params={self.num_parameters})")
