"""Tests for the Bayesian neural network (Bayes-by-Backprop) surrogate."""

import copy
import pickle

import numpy as np
import pytest

from repro.models.bnn import BayesianNeuralNetwork, softplus, softplus_grad
from repro.models.mlp import relu, relu_grad
from repro.models.optimizers import make_optimizer
from repro.models.scaler import StandardScaler


class TestSoftplus:
    def test_softplus_is_positive_and_monotone(self):
        values = np.array([-10.0, -1.0, 0.0, 1.0, 10.0])
        result = softplus(values)
        assert np.all(result > 0)
        assert np.all(np.diff(result) > 0)

    def test_softplus_grad_is_sigmoid(self):
        assert softplus_grad(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_softplus_large_input_is_stable(self):
        assert np.isfinite(softplus(np.array([500.0]))[0])


@pytest.fixture(scope="module")
def trained_bnn():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(250, 2))
    y = np.sin(2.0 * x[:, 0]) + 0.5 * x[:, 1]
    model = BayesianNeuralNetwork(input_dim=2, hidden_layers=(32, 32), seed=0)
    model.fit(x, y, epochs=250)
    return model, x, y


class TestBayesianNeuralNetwork:
    def test_fit_and_predict_accuracy(self, trained_bnn):
        model, x, y = trained_bnn
        mean, _ = model.predict(x, n_samples=25)
        assert np.corrcoef(mean, y)[0, 1] > 0.9

    def test_predict_returns_positive_std(self, trained_bnn):
        model, x, _ = trained_bnn
        _, std = model.predict(x[:20], n_samples=25)
        assert std.shape == (20,)
        assert np.all(std >= 0)

    def test_uncertainty_larger_away_from_data(self, trained_bnn):
        model, x, _ = trained_bnn
        _, std_in = model.predict(x[:50], n_samples=30)
        far = np.full((50, 2), 5.0)
        _, std_out = model.predict(far, n_samples=30)
        assert std_out.mean() > std_in.mean()

    def test_sample_function_is_deterministic_once_drawn(self, trained_bnn):
        model, x, _ = trained_bnn
        draw = model.sample_function()
        assert np.allclose(draw(x[:10]), draw(x[:10]))

    def test_different_samples_differ(self, trained_bnn):
        model, x, _ = trained_bnn
        first = model.sample_predict(x[:30])
        second = model.sample_predict(x[:30])
        assert not np.allclose(first, second)

    def test_mean_predict_close_to_mc_mean(self, trained_bnn):
        model, x, _ = trained_bnn
        mc_mean, _ = model.predict(x[:40], n_samples=60)
        point_mean = model.mean_predict(x[:40])
        assert np.mean(np.abs(mc_mean - point_mean)) < 0.25

    def test_use_before_fit_raises(self):
        model = BayesianNeuralNetwork(input_dim=2)
        with pytest.raises(RuntimeError):
            model.predict([[0.0, 0.0]])
        with pytest.raises(RuntimeError):
            model.sample_function()

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            BayesianNeuralNetwork(input_dim=0)
        with pytest.raises(ValueError):
            BayesianNeuralNetwork(input_dim=2, prior_sigma=0.0)
        with pytest.raises(ValueError):
            BayesianNeuralNetwork(input_dim=2, noise_sigma=-1.0)

    def test_input_dimension_mismatch_raises(self):
        model = BayesianNeuralNetwork(input_dim=3)
        with pytest.raises(ValueError):
            model.fit(np.zeros((5, 2)), np.zeros(5))

    def test_loss_history_decreases(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, size=(150, 1))
        y = 2.0 * x[:, 0]
        model = BayesianNeuralNetwork(input_dim=1, hidden_layers=(16,), seed=1)
        model.fit(x, y, epochs=120)
        assert model.loss_history[-1] < model.loss_history[0]

    def test_continual_fit_refines_predictions(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, size=(120, 1))
        y = x[:, 0] ** 2
        model = BayesianNeuralNetwork(input_dim=1, hidden_layers=(24,), seed=2)
        model.fit(x, y, epochs=60)
        first_error = np.mean((model.mean_predict(x) - y) ** 2)
        model.fit(x, y, epochs=200)
        second_error = np.mean((model.mean_predict(x) - y) ** 2)
        assert second_error <= first_error * 1.5

    def test_is_fitted_flag(self):
        model = BayesianNeuralNetwork(input_dim=1, hidden_layers=(8,), seed=3)
        assert not model.is_fitted
        model.fit(np.zeros((4, 1)), np.zeros(4), epochs=2)
        assert model.is_fitted


class ReferenceBNN:
    """Per-sample, per-layer Bayes-by-Backprop: the oracle for the flat-vector model.

    Every weight and bias array is drawn, backpropagated and updated on its own,
    one Monte-Carlo sample at a time.  It consumes the same random stream as
    :class:`BayesianNeuralNetwork` and must agree with it bit for bit.
    """

    def __init__(self, input_dim, hidden_layers, output_dim=1, prior_sigma=1.0, noise_sigma=0.15,
                 learning_rate=1e-2, optimizer="adam", n_mc_samples=2, seed=None):
        self.output_dim = output_dim
        self.prior_sigma = prior_sigma
        self.noise_sigma = noise_sigma
        self.n_mc_samples = n_mc_samples
        self._rng = np.random.default_rng(seed)
        self._x_scaler = StandardScaler()
        self._y_scaler = StandardScaler()
        dims = [input_dim, *hidden_layers, output_dim]
        self.weight_mu, self.weight_rho, self.bias_mu, self.bias_rho = [], [], [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            self.weight_mu.append(self._rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
            self.weight_rho.append(np.full((fan_in, fan_out), -4.0))
            self.bias_mu.append(np.zeros(fan_out))
            self.bias_rho.append(np.full(fan_out, -4.0))
        parameters = self.weight_mu + self.bias_mu + self.weight_rho + self.bias_rho
        self._optimizer = make_optimizer(optimizer, parameters, learning_rate)
        self.loss_history = []

    def _sample(self):
        weights, biases, weight_eps, bias_eps = [], [], [], []
        for w_mu, w_rho, b_mu, b_rho in zip(self.weight_mu, self.weight_rho, self.bias_mu, self.bias_rho):
            eps_w = self._rng.standard_normal(w_mu.shape)
            eps_b = self._rng.standard_normal(b_mu.shape)
            weights.append(w_mu + softplus(w_rho) * eps_w)
            biases.append(b_mu + softplus(b_rho) * eps_b)
            weight_eps.append(eps_w)
            bias_eps.append(eps_b)
        return weights, biases, weight_eps, bias_eps

    @staticmethod
    def _forward(inputs, weights, biases):
        activations, pre_activations, hidden = [inputs], [], inputs
        for index, (weight, bias) in enumerate(zip(weights, biases)):
            pre = hidden @ weight + bias
            pre_activations.append(pre)
            hidden = pre if index == len(weights) - 1 else relu(pre)
            activations.append(hidden)
        return hidden, activations, pre_activations

    def fit(self, inputs, targets, epochs, batch_size, reset_scalers=True):
        x = np.atleast_2d(np.asarray(inputs, dtype=float))
        y = np.asarray(targets, dtype=float).reshape(len(x), -1)
        if reset_scalers or not self._x_scaler.is_fitted:
            self._x_scaler.fit(x)
            self._y_scaler.fit(y)
        x_std, y_std = self._x_scaler.transform(x), self._y_scaler.transform(y)
        n_samples = len(x_std)
        batch_size = max(1, min(batch_size, n_samples))
        n_batches = int(np.ceil(n_samples / batch_size))
        kl_weight = 1.0 / n_samples
        noise_var = self.noise_sigma**2
        prior_var = self.prior_sigma**2
        n_layers = len(self.weight_mu)
        for _ in range(epochs):
            order = self._rng.permutation(n_samples)
            epoch_loss = 0.0
            for start in range(0, n_samples, batch_size):
                batch_x = x_std[order[start : start + batch_size]]
                batch_y = y_std[order[start : start + batch_size]]
                mu_w_acc = [np.zeros_like(w) for w in self.weight_mu]
                rho_w_acc = [np.zeros_like(w) for w in self.weight_rho]
                mu_b_acc = [np.zeros_like(b) for b in self.bias_mu]
                rho_b_acc = [np.zeros_like(b) for b in self.bias_rho]
                batch_loss = 0.0
                for _ in range(self.n_mc_samples):
                    weights, biases, weight_eps, bias_eps = self._sample()
                    prediction, activations, pre_activations = self._forward(batch_x, weights, biases)
                    error = prediction - batch_y
                    batch_loss += float(np.sum(error**2) / (2.0 * noise_var))
                    grad = error / noise_var / len(batch_x) * n_samples / n_batches
                    for layer in range(n_layers - 1, -1, -1):
                        weight_grad = activations[layer].T @ grad
                        bias_grad = grad.sum(axis=0)
                        if layer > 0:
                            grad = (grad @ weights[layer].T) * relu_grad(pre_activations[layer - 1])
                        mu_w_acc[layer] += weight_grad
                        w_rho_grad = softplus_grad(self.weight_rho[layer])
                        rho_w_acc[layer] += weight_grad * weight_eps[layer] * w_rho_grad
                        mu_b_acc[layer] += bias_grad
                        rho_b_acc[layer] += bias_grad * bias_eps[layer] * softplus_grad(self.bias_rho[layer])
                kl_total, kl_grads = 0.0, {"mu_w": [], "mu_b": [], "rho_w": [], "rho_b": []}
                for layer in range(n_layers):
                    for kind, mu, rho in (
                        ("w", self.weight_mu[layer], self.weight_rho[layer]),
                        ("b", self.bias_mu[layer], self.bias_rho[layer]),
                    ):
                        sigma = softplus(rho)
                        terms = np.log(self.prior_sigma / sigma) + (sigma**2 + mu**2) / (2 * prior_var) - 0.5
                        kl_total += float(np.sum(terms))
                        kl_grads["mu_" + kind].append(mu / prior_var)
                        kl_grads["rho_" + kind].append((sigma / prior_var - 1.0 / sigma) * softplus_grad(rho))
                scale = 1.0 / self.n_mc_samples
                gradients = [
                    scale * g + kl_weight * k
                    for accumulated, key in (
                        (mu_w_acc, "mu_w"), (mu_b_acc, "mu_b"), (rho_w_acc, "rho_w"), (rho_b_acc, "rho_b")
                    )
                    for g, k in zip(accumulated, kl_grads[key])
                ]
                self._optimizer.step(gradients)
                epoch_loss += batch_loss * scale + kl_weight * kl_total
            self.loss_history.append(epoch_loss / n_samples)
        return self

    def _unscale(self, prediction):
        result = self._y_scaler.inverse_transform(prediction)
        return result[:, 0] if self.output_dim == 1 else result

    def predict(self, inputs, n_samples):
        x_std = self._x_scaler.transform(inputs)
        draws = np.stack([self._forward(x_std, *self._sample()[:2])[0] for _ in range(n_samples)])
        mean = self._y_scaler.inverse_transform(draws.mean(axis=0))
        std = self._y_scaler.inverse_transform_std(draws.std(axis=0))
        return (mean[:, 0], std[:, 0]) if self.output_dim == 1 else (mean, std)

    def sample_predict(self, inputs):
        return self._unscale(self._forward(self._x_scaler.transform(inputs), *self._sample()[:2])[0])

    def mean_predict(self, inputs):
        return self._unscale(self._forward(self._x_scaler.transform(inputs), self.weight_mu, self.bias_mu)[0])


def _assert_same_state(model, reference):
    for name in ("weight_mu", "bias_mu", "weight_rho", "bias_rho"):
        ours, theirs = getattr(model, name), getattr(reference, name)
        assert len(ours) == len(theirs)
        for got, want in zip(ours, theirs):
            assert got.shape == want.shape and np.array_equal(got, want), name
    assert model.loss_history == reference.loss_history
    assert model._rng.bit_generator.state == reference._rng.bit_generator.state


class TestReferenceOracle:
    """The flat-vector fit is bit-identical to per-sample, per-layer Bayes-by-Backprop."""

    @pytest.mark.parametrize("hidden_layers", [(16,), (32, 32), (8, 8, 8)])
    @pytest.mark.parametrize("n_mc_samples", [1, 2, 3])
    @pytest.mark.parametrize("optimizer, learning_rate", [("adam", 1e-2), ("adadelta", 1.0)])
    def test_fit_and_predictions_match_reference(self, optimizer, learning_rate, n_mc_samples, hidden_layers):
        rng = np.random.default_rng(11)
        kwargs = dict(
            hidden_layers=hidden_layers,
            optimizer=optimizer,
            learning_rate=learning_rate,
            n_mc_samples=n_mc_samples,
            seed=5,
        )
        model = BayesianNeuralNetwork(input_dim=3, **kwargs)
        reference = ReferenceBNN(input_dim=3, **kwargs)
        _assert_same_state(model, reference)
        # 50 samples in batches of 16 (the last one short), then fewer samples
        # than one batch, refit without resetting the scalers.
        x = rng.uniform(-1, 1, size=(50, 3))
        y = np.sin(3.0 * x[:, 0]) + x[:, 1] * x[:, 2]
        fits = [(x, y, 6, 16, True), (x[:20] * 1.5, y[:20], 4, 64, False)]
        for inputs, targets, epochs, batch_size, reset_scalers in fits:
            for fitted in (model, reference):
                fitted.fit(inputs, targets, epochs=epochs, batch_size=batch_size, reset_scalers=reset_scalers)
            _assert_same_state(model, reference)
        probe = rng.uniform(-2, 2, size=(25, 3))
        for got, want in zip(model.predict(probe, n_samples=4), reference.predict(probe, n_samples=4)):
            assert np.array_equal(got, want)
        assert np.array_equal(model.mean_predict(probe), reference.mean_predict(probe))
        assert np.array_equal(model.sample_predict(probe), reference.sample_predict(probe))
        _assert_same_state(model, reference)

    @pytest.mark.parametrize("n_samples", [1, 7])
    def test_multi_output_and_tiny_datasets_match_reference(self, n_samples):
        rng = np.random.default_rng(12)
        x = rng.uniform(-1, 1, size=(n_samples, 2))
        y = np.column_stack([x.sum(axis=1), x[:, 0] ** 2])
        kwargs = dict(hidden_layers=(8, 4), output_dim=2, n_mc_samples=2, seed=6)
        model = BayesianNeuralNetwork(input_dim=2, **kwargs).fit(x, y, epochs=5, batch_size=4)
        reference = ReferenceBNN(input_dim=2, **kwargs).fit(x, y, epochs=5, batch_size=4)
        _assert_same_state(model, reference)
        for got, want in zip(model.predict(x, n_samples=3), reference.predict(x, n_samples=3)):
            assert np.array_equal(got, want)


class TestParameterViews:
    def test_copies_keep_their_parameters_attached(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, size=(40, 2))
        y = x[:, 0] - x[:, 1] ** 2
        model = BayesianNeuralNetwork(input_dim=2, hidden_layers=(8,), seed=3).fit(x, y, epochs=5)
        before = model.mean_predict(x)
        copies = [copy.deepcopy(model), pickle.loads(pickle.dumps(model))]
        for fitted in (model, *copies):
            fitted.fit(x, y, epochs=5)
        after = model.mean_predict(x)
        assert not np.array_equal(after, before)
        for duplicate in copies:
            assert np.array_equal(duplicate.mean_predict(x), after)


class TestFitValidation:
    """Malformed datasets are rejected before the scalers or parameters move."""

    @pytest.fixture()
    def fitted(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, size=(12, 2))
        model = BayesianNeuralNetwork(input_dim=2, hidden_layers=(4,), seed=4).fit(x, x.sum(axis=1), epochs=2)
        return model

    @staticmethod
    def _snapshot(model):
        scalers = [
            getattr(scaler, name)
            for scaler in (model._x_scaler, model._y_scaler)
            for name in ("mean_", "scale_")
        ]
        parameters = model.weight_mu + model.bias_mu + model.weight_rho + model.bias_rho
        return [array.copy() for array in scalers + parameters], model._rng.bit_generator.state

    @pytest.mark.parametrize(
        "inputs, targets, message",
        [
            (np.zeros((0, 2)), np.zeros(0), "empty dataset"),
            (np.ones((4, 2)), np.ones(3), "mismatched lengths"),
            (np.ones((4, 2)), np.ones((4, 2)), "expected 1 targets, got 2"),
        ],
        ids=["empty", "length-mismatch", "target-width"],
    )
    def test_rejects_malformed_data_without_side_effects(self, fitted, inputs, targets, message):
        arrays, rng_state = self._snapshot(fitted)
        with pytest.raises(ValueError, match=message):
            fitted.fit(inputs, targets, epochs=1)
        after, after_state = self._snapshot(fitted)
        assert all(np.array_equal(old, new) for old, new in zip(arrays, after))
        assert after_state == rng_state
