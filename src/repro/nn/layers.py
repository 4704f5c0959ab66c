"""Composable layers with hand-derived backward passes.

Design
------
A :class:`Layer` declares parameter *specs* (name, shape, initializer).  It does not
allocate its own storage: :class:`repro.nn.network.NeuralNetwork` owns one contiguous
flat buffer for all parameters and one for all gradients, and *binds* reshaped views
of those buffers into each layer.  Consequences:

* ``get/set`` of the full parameter vector is a single contiguous copy — the
  operation federated averaging performs millions of times — with no per-layer
  Python overhead;
* in-place SGD (``buf -= lr * gbuf``) updates every layer simultaneously through the
  views (guides: "use views, and not copies", "in place operations").

``forward`` caches exactly the activations its ``backward`` needs; ``backward``
consumes the upstream gradient, accumulates parameter gradients in place (``+=``)
and returns the downstream gradient.  Gradients accumulate so that minibatch or
multi-head losses compose; callers zero the flat gradient buffer between steps.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.nn.init import kaiming_uniform_, xavier_uniform_, zeros_

__all__ = ["ParamSpec", "Layer", "Linear", "ReLU", "Tanh", "Identity"]

Initializer = Callable[[np.ndarray, np.random.Generator], np.ndarray]


class ParamSpec:
    """Description of one learnable tensor: its name, shape and initializer."""

    __slots__ = ("name", "shape", "init")

    def __init__(self, name: str, shape: tuple[int, ...], init: Initializer) -> None:
        self.name = name
        self.shape = shape
        self.init = init

    @property
    def size(self) -> int:
        """Number of scalars in the tensor."""
        out = 1
        for s in self.shape:
            out *= s
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParamSpec({self.name!r}, shape={self.shape})"


class Layer:
    """Base class: stateless shape-in/shape-out transform with optional parameters."""

    #: Vocabulary tag of the cross-client stacked kernel
    #: (:mod:`repro.exec.stacked`).  ``None`` (the default) marks the layer
    #: ineligible — engines containing it always run the per-task kernel.
    #: Subclasses whose forward/backward can be replayed
    #: with one leading client axis declare their kind ("linear", "relu",
    #: "tanh", "identity"); a third-party layer must opt in explicitly, so an
    #: unknown backward can never be silently vectorized wrong.
    vector_kind: str | None = None

    def param_specs(self) -> Sequence[ParamSpec]:
        """Parameter tensors this layer needs (empty for activations)."""
        return ()

    def bind(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """Receive views into the network-owned parameter/gradient buffers."""

    def forward(self, x: np.ndarray, *, train: bool = True) -> np.ndarray:
        """Compute the layer output; cache activations iff ``train`` is True."""
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backprop: accumulate parameter grads in place, return input grad."""
        raise NotImplementedError

    def output_dim(self, input_dim: int) -> int:
        """Output feature dimension given the input feature dimension."""
        return input_dim


class Linear(Layer):
    """Affine map ``y = x W + b`` with ``W`` of shape (in_features, out_features).

    Parameters
    ----------
    in_features, out_features:
        Feature dimensions.
    weight_init:
        ``"kaiming"`` (default, for ReLU nets), ``"xavier"`` (for the linear /
        logistic-regression case), or a custom initializer callable.
    bias:
        Whether to learn an additive bias (the paper's models always do).
    """

    vector_kind = "linear"

    def __init__(self, in_features: int, out_features: int, *,
                 weight_init: str | Initializer = "kaiming", bias: bool = True) -> None:
        if in_features < 1 or out_features < 1:
            raise ValueError(
                f"Linear dims must be >= 1, got ({in_features}, {out_features})")
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.use_bias = bool(bias)
        if callable(weight_init):
            self._w_init: Initializer = weight_init
        elif weight_init == "kaiming":
            self._w_init = kaiming_uniform_
        elif weight_init == "xavier":
            self._w_init = xavier_uniform_
        else:
            raise ValueError(f"unknown weight_init {weight_init!r}")
        self.W: np.ndarray | None = None
        self.b: np.ndarray | None = None
        self.gW: np.ndarray | None = None
        self.gb: np.ndarray | None = None
        self._x: np.ndarray | None = None

    def param_specs(self) -> Sequence[ParamSpec]:
        """Weight (and optional bias) tensor specs."""
        specs = [ParamSpec("W", (self.in_features, self.out_features), self._w_init)]
        if self.use_bias:
            specs.append(ParamSpec("b", (self.out_features,), zeros_))
        return specs

    def bind(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """Attach the network-owned parameter/gradient views."""
        self.W = params["W"]
        self.gW = grads["W"]
        if self.use_bias:
            self.b = params["b"]
            self.gb = grads["b"]

    def forward(self, x: np.ndarray, *, train: bool = True) -> np.ndarray:
        """Affine forward pass ``x @ W + b`` (caches ``x`` in train mode)."""
        if self.W is None:
            raise RuntimeError("Linear layer used before bind(); build it via NeuralNetwork")
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Linear({self.in_features}->{self.out_features}) got input {x.shape}")
        self._x = x if train else None
        out = x @ self.W
        if self.use_bias:
            out += self.b
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Accumulate ``gW``/``gb`` and return the input gradient."""
        self.backward_params(grad_out)
        return grad_out @ self.W.T

    def backward_params(self, grad_out: np.ndarray) -> None:
        """:meth:`backward` minus the input gradient, which a first layer's
        caller never reads (looked up non-inherited by
        :meth:`~repro.nn.network.NeuralNetwork.gradient`, like ``vector_kind``)."""
        if self._x is None:
            raise RuntimeError("backward() called before a train-mode forward()")
        self.gW += self._x.T @ grad_out
        if self.use_bias:
            self.gb += grad_out.sum(axis=0)

    def output_dim(self, input_dim: int) -> int:
        """Validate the input dim and return ``out_features``."""
        if input_dim != self.in_features:
            raise ValueError(
                f"Linear expects input dim {self.in_features}, got {input_dim}")
        return self.out_features


class ReLU(Layer):
    """Rectified linear activation; the non-convex experiments' nonlinearity."""

    vector_kind = "relu"

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, *, train: bool = True) -> np.ndarray:
        """Elementwise ``max(x, 0)`` (caches the positive mask in train mode)."""
        out = np.maximum(x, 0.0)
        self._mask = x > 0.0 if train else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Gate the upstream gradient by the cached positive mask."""
        if self._mask is None:
            raise RuntimeError("backward() called before a train-mode forward()")
        return grad_out * self._mask


class Tanh(Layer):
    """Hyperbolic-tangent activation (used by gradient-check tests and examples)."""

    vector_kind = "tanh"

    def __init__(self) -> None:
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray, *, train: bool = True) -> np.ndarray:
        """Elementwise ``tanh`` (caches the output in train mode)."""
        out = np.tanh(x)
        self._out = out if train else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Chain through ``1 - tanh²`` using the cached output."""
        if self._out is None:
            raise RuntimeError("backward() called before a train-mode forward()")
        return grad_out * (1.0 - self._out * self._out)


class Identity(Layer):
    """No-op layer; handy as a placeholder in model factories."""

    vector_kind = "identity"

    def forward(self, x: np.ndarray, *, train: bool = True) -> np.ndarray:
        """Return ``x`` unchanged."""
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Return the upstream gradient unchanged."""
        return grad_out
