"""Tests for the deterministic MLP regressor (DLDA's teacher/student model)."""

import numpy as np
import pytest

from repro.models.mlp import MLPRegressor, relu, relu_grad


class TestActivations:
    def test_relu_clips_negative_values(self):
        assert np.array_equal(relu(np.array([-1.0, 0.0, 2.0])), np.array([0.0, 0.0, 2.0]))

    def test_relu_grad_is_indicator(self):
        grad = relu_grad(np.array([-1.0, 0.5]))
        assert np.array_equal(grad, np.array([0.0, 1.0]))


class TestMLPRegressor:
    def test_fits_a_linear_function(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(300, 2))
        y = 3.0 * x[:, 0] - 2.0 * x[:, 1] + 1.0
        model = MLPRegressor(input_dim=2, hidden_layers=(32,), seed=0)
        model.fit(x, y, epochs=300)
        prediction = model.predict(x)
        error = np.mean((prediction - y) ** 2)
        assert error < 0.05

    def test_fits_a_nonlinear_function(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, size=(400, 2))
        y = np.sin(3 * x[:, 0]) + x[:, 1] ** 2
        model = MLPRegressor(input_dim=2, hidden_layers=(48, 48), seed=1)
        model.fit(x, y, epochs=400)
        prediction = model.predict(x)
        assert np.corrcoef(prediction, y)[0, 1] > 0.95

    def test_predict_before_fit_raises(self):
        model = MLPRegressor(input_dim=2)
        with pytest.raises(RuntimeError):
            model.predict([[0.0, 0.0]])

    def test_input_dimension_mismatch_raises(self):
        model = MLPRegressor(input_dim=3)
        with pytest.raises(ValueError):
            model.fit(np.zeros((10, 2)), np.zeros(10))

    def test_invalid_constructor_arguments_raise(self):
        with pytest.raises(ValueError):
            MLPRegressor(input_dim=0)
        with pytest.raises(ValueError):
            MLPRegressor(input_dim=2, output_dim=0)

    def test_loss_history_decreases(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, size=(200, 1))
        y = 2.0 * x[:, 0]
        model = MLPRegressor(input_dim=1, hidden_layers=(16,), seed=2)
        model.fit(x, y, epochs=100)
        assert model.loss_history[-1] < model.loss_history[0]

    def test_clone_copies_weights_and_predictions(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, size=(100, 2))
        y = x.sum(axis=1)
        model = MLPRegressor(input_dim=2, hidden_layers=(16,), seed=3)
        model.fit(x, y, epochs=100)
        twin = model.clone()
        assert np.allclose(model.predict(x), twin.predict(x))

    def test_clone_is_independent_after_further_training(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, size=(100, 2))
        y = x.sum(axis=1)
        model = MLPRegressor(input_dim=2, hidden_layers=(16,), seed=4)
        model.fit(x, y, epochs=50)
        twin = model.clone()
        twin.fit(x, -y, epochs=200, reset_scalers=False)
        assert not np.allclose(model.predict(x), twin.predict(x))

    def test_clones_fine_tune_identically(self):
        # A clone carries the original's generator state: two clones trained
        # on the same data shuffle their mini-batches alike.
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, size=(100, 2))
        y = x.sum(axis=1)
        model = MLPRegressor(input_dim=2, hidden_layers=(16,), seed=7)
        model.fit(x, y, epochs=20)
        first, second = model.clone(), model.clone()
        first.fit(x, -y, epochs=10, reset_scalers=False)
        second.fit(x, -y, epochs=10, reset_scalers=False)
        for a, b in zip(first.weights + first.biases, second.weights + second.biases):
            assert np.array_equal(a, b)
        assert first.loss_history == second.loss_history

    def test_continue_training_without_resetting_scalers(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, size=(100, 1))
        y = x[:, 0]
        model = MLPRegressor(input_dim=1, hidden_layers=(16,), seed=5)
        model.fit(x, y, epochs=50)
        before_mean = model._x_scaler.mean_.copy()
        model.fit(x[:10], y[:10], epochs=10, reset_scalers=False)
        assert np.allclose(model._x_scaler.mean_, before_mean)

    def test_multi_output_regression_shape(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, size=(150, 2))
        y = np.column_stack([x[:, 0], -x[:, 1]])
        model = MLPRegressor(input_dim=2, output_dim=2, hidden_layers=(24,), seed=6)
        model.fit(x, y, epochs=150)
        assert model.predict(x).shape == (150, 2)
