"""Tests for repro.nn.network and repro.nn.models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers import Identity, Linear, ReLU, Tanh
from repro.nn.losses import MeanSquaredError
from repro.nn.models import logistic_regression, make_model_factory, mlp
from repro.nn.network import NeuralNetwork


def _full_backward_gradient(net, X, y):
    """Every layer's backward, a copy of the buffer, then the L2 term."""
    logits = net.forward(X, train=True)
    net.zero_grad()
    grad = net.loss_fn.backward(logits, y)
    for layer in reversed(net.layers):
        grad = layer.backward(grad)
    flat = net.grads_view().copy()
    if net.l2:
        flat += net.l2 * net.params_view()
    return flat


class TestConstruction:
    def test_paper_parameter_counts(self):
        """The §6 models: logistic 7850 params, MLP(300,100) 266,610 params."""
        assert logistic_regression(784, 10).num_parameters == 7850
        assert mlp(784, (300, 100), 10).num_parameters == 266_610

    def test_empty_layers_raise(self):
        with pytest.raises(ValueError):
            NeuralNetwork([], input_dim=4)

    def test_bad_input_dim_raises(self):
        with pytest.raises(ValueError):
            NeuralNetwork([Linear(3, 2)], input_dim=0)

    def test_negative_l2_raises(self):
        with pytest.raises(ValueError):
            logistic_regression(4, 2, l2=-0.1)

    def test_shape_pipeline_validated(self):
        with pytest.raises(ValueError):
            NeuralNetwork([Linear(3, 2), Linear(3, 2)], input_dim=3)

    def test_mlp_rejects_zero_width(self):
        with pytest.raises(ValueError):
            mlp(4, (0,), 2)

    def test_output_dim(self):
        assert mlp(8, (6, 5), 3).output_dim == 3


class TestFlatParams:
    def test_get_set_roundtrip(self):
        net = logistic_regression(4, 3, rng=0)
        w = net.get_params()
        net.set_params(np.zeros_like(w))
        assert np.all(net.get_params() == 0)
        net.set_params(w)
        np.testing.assert_array_equal(net.get_params(), w)

    def test_get_params_returns_copy(self):
        net = logistic_regression(4, 3, rng=0)
        w = net.get_params()
        w[:] = 99.0
        assert not np.any(net.get_params() == 99.0)

    def test_set_params_shape_checked(self):
        net = logistic_regression(4, 3, rng=0)
        with pytest.raises(ValueError):
            net.set_params(np.zeros(5))

    def test_params_view_is_live(self):
        net = logistic_regression(4, 3, rng=0)
        net.params_view()[:] = 1.5
        assert np.all(net.get_params() == 1.5)

    def test_layer_views_alias_flat_buffer(self):
        net = logistic_regression(4, 3, rng=0)
        net.params_view()[:] = 0.0
        layer = net.layers[0]
        layer.W[0, 0] = 7.0
        assert net.get_params()[0] == 7.0

    def test_initialize_reproducible(self):
        a = logistic_regression(5, 3, rng=42).get_params()
        b = logistic_regression(5, 3, rng=42).get_params()
        np.testing.assert_array_equal(a, b)

    def test_initialize_seed_matters(self):
        a = logistic_regression(5, 3, rng=1).get_params()
        b = logistic_regression(5, 3, rng=2).get_params()
        assert not np.array_equal(a, b)


class TestPasses:
    def test_forward_shape(self):
        net = mlp(6, (4,), 3, rng=0)
        assert net.forward(np.zeros((7, 6))).shape == (7, 3)

    def test_forward_rejects_bad_shape(self):
        net = logistic_regression(4, 2, rng=0)
        with pytest.raises(ValueError):
            net.forward(np.zeros((3, 5)))

    def test_loss_and_gradient_shapes(self):
        net = mlp(5, (4,), 3, rng=0)
        X = np.random.default_rng(0).normal(size=(6, 5))
        y = np.array([0, 1, 2, 0, 1, 2])
        loss, grad = net.loss_and_gradient(X, y)
        assert np.isscalar(loss)
        assert grad.shape == (net.num_parameters,)
        assert np.all(np.isfinite(grad))

    def test_gradient_is_copy(self):
        net = logistic_regression(4, 2, rng=0)
        X = np.random.default_rng(0).normal(size=(2, 4))
        y = np.array([0, 1])
        _, g1 = net.loss_and_gradient(X, y)
        g1[:] = 0.0
        _, g2 = net.loss_and_gradient(X, y)
        assert not np.array_equal(g1, g2)

    def test_l2_adds_to_loss_and_gradient(self):
        X = np.random.default_rng(1).normal(size=(4, 3))
        y = np.array([0, 1, 0, 1])
        plain = logistic_regression(3, 2, rng=5, l2=0.0)
        reg = logistic_regression(3, 2, rng=5, l2=0.1)
        w = plain.get_params()
        loss_plain, grad_plain = plain.loss_and_gradient(X, y)
        loss_reg, grad_reg = reg.loss_and_gradient(X, y)
        assert loss_reg == pytest.approx(loss_plain + 0.05 * float(w @ w))
        np.testing.assert_allclose(grad_reg, grad_plain + 0.1 * w)

    def test_predict_and_accuracy(self):
        net = logistic_regression(2, 2, rng=0)
        net.params_view()[:] = 0.0
        net.layers[0].W[:] = np.array([[1.0, -1.0], [0.0, 0.0]])
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_array_equal(net.predict(X), [0, 1])
        assert net.accuracy(X, np.array([0, 1])) == 1.0
        assert net.accuracy(X, np.array([1, 1])) == 0.5

    def test_accuracy_empty_raises(self):
        net = logistic_regression(2, 2, rng=0)
        with pytest.raises(ValueError):
            net.accuracy(np.zeros((0, 2)), np.array([], dtype=int))

    def test_accuracy_and_loss_fuses_bit_identically(self):
        """One forward pass returns exactly what the two-pass path returns
        — the fused-evaluation contract (deterministic forward, shared
        logits) holds to the last bit, including the L2 term."""
        rng = np.random.default_rng(4)
        X = rng.normal(size=(9, 5))
        y = rng.integers(0, 3, size=9)
        for net in (logistic_regression(5, 3, rng=2, l2=0.05),
                    mlp(5, (6,), 3, rng=2, l2=0.05),
                    mlp(5, (6, 4), 3, rng=2)):
            acc, loss = net.accuracy_and_loss(X, y)
            assert acc == net.accuracy(X, y)
            assert loss == net.loss(X, y)

    def test_accuracy_and_loss_empty_raises(self):
        net = logistic_regression(2, 2, rng=0)
        with pytest.raises(ValueError):
            net.accuracy_and_loss(np.zeros((0, 2)), np.array([], dtype=int))

    @pytest.mark.parametrize("build", [
        lambda: logistic_regression(7, 3, rng=1),
        lambda: logistic_regression(7, 3, rng=1, l2=1e-2),
        lambda: mlp(7, (5, 4), 3, rng=2),
        lambda: mlp(7, (5,), 3, rng=2, l2=1e-3),
        lambda: NeuralNetwork([Linear(7, 4), Tanh(), Linear(4, 3)],
                              input_dim=7, rng=3),
        lambda: NeuralNetwork([Identity(), Linear(7, 3)], input_dim=7,
                              rng=4),
        lambda: NeuralNetwork([Linear(7, 3)], input_dim=7,
                              loss=MeanSquaredError(), rng=5),
    ], ids=["logistic", "logistic-l2", "mlp", "mlp-l2", "tanh",
            "identity-first", "mse"])
    @pytest.mark.parametrize("batch", [1, 6])
    def test_gradient_only_matches_loss_and_gradient(self, build, batch):
        """The SGD step's gradient-only pass (and the fused pass) equal a
        plain full backward bit for bit — loss value skipped, first-layer
        input gradient skipped, L2 added in place, labels checked once."""
        net = build()
        gen = np.random.default_rng(batch)
        X = gen.normal(size=(batch, 7))
        if isinstance(net.loss_fn, MeanSquaredError):
            y = gen.normal(size=(batch, 3))
        else:
            y = gen.integers(0, 3, size=batch)
        ref = _full_backward_gradient(net, X, y)
        _, fused = net.loss_and_gradient(X, y)
        assert fused.tobytes() == ref.tobytes()
        got = net.gradient(X, y)
        assert got.tobytes() == ref.tobytes()
        assert got is net.grads_view()  # live buffer: the step scales it

    def test_gradient_only_keeps_label_and_shape_checks(self):
        net = logistic_regression(4, 3, rng=0)
        X = np.zeros((2, 4))
        with pytest.raises(ValueError, match="targets out of range"):
            net.gradient(X, np.array([0, 3]))
        with pytest.raises(ValueError, match="targets out of range"):
            net.gradient(X, np.array([-1, 0]))
        with pytest.raises(ValueError, match="input must be"):
            net.gradient(np.zeros((2, 5)), np.array([0, 1]))

    def test_overridden_backward_is_not_bypassed(self):
        """A Linear subclass with its own backward keeps it as the first
        layer: the input-gradient skip is read off the exact class."""
        calls = []

        class LoggedLinear(Linear):
            def backward(self, grad_out):
                calls.append(grad_out.shape)
                return super().backward(grad_out)

        net = NeuralNetwork([LoggedLinear(4, 3)], input_dim=4, rng=0)
        X, y = np.ones((2, 4)), np.array([0, 2])
        ref = _full_backward_gradient(net, X, y)
        assert net.gradient(X, y).tobytes() == ref.tobytes()
        assert len(calls) == 2

    def test_custom_loss(self):
        net = NeuralNetwork([Linear(2, 2)], input_dim=2, rng=0,
                            loss=MeanSquaredError())
        X = np.array([[1.0, 1.0]])
        t = np.array([[0.0, 0.0]])
        loss, grad = net.loss_and_gradient(X, t)
        assert loss >= 0.0
        assert grad.shape == (net.num_parameters,)


class TestClone:
    def test_clone_equal_but_independent(self):
        net = mlp(4, (3,), 2, rng=0)
        twin = net.clone()
        np.testing.assert_array_equal(net.get_params(), twin.get_params())
        twin.params_view()[:] = 0.0
        assert not np.array_equal(net.get_params(), twin.get_params())

    def test_clone_produces_same_outputs(self):
        net = mlp(4, (3,), 2, rng=0)
        twin = net.clone()
        X = np.random.default_rng(0).normal(size=(5, 4))
        np.testing.assert_array_equal(net.forward(X), twin.forward(X))


class TestModelFactory:
    def test_logistic_factory(self, tiny_image_fed):
        f = make_model_factory("logistic", 8, 3)
        net = f(0)
        assert net.num_parameters == 8 * 3 + 3

    def test_mlp_factory_hidden(self):
        f = make_model_factory("mlp", 8, 3, hidden=(5,))
        net = f(0)
        assert len(net.layers) == 3  # Linear, ReLU, Linear

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            make_model_factory("cnn", 8, 3)

    def test_factory_reproducible(self):
        f = make_model_factory("logistic", 6, 2)
        np.testing.assert_array_equal(f(3).get_params(), f(3).get_params())
