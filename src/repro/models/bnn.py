"""Bayesian neural network trained with Bayes-by-Backprop.

Atlas uses a BNN as the scalable surrogate of two black-box functions: the
sim-to-real discrepancy ``KL[D_r || D_s(x)]`` in stage 1 and the slice QoE
``Q_s(phi)`` in stage 2 (Secs. 4.2 and 5.2).  Every weight carries a Gaussian
variational posterior ``N(mu, softplus(rho)^2)`` optimised against the
evidence lower bound of Eq. 4 with the reparameterisation trick of
Bayes-by-Backprop [Blundell et al., ICML'15].

Thompson sampling (Sec. 4.2, "Parallel Thompson Sampling") requires drawing
*one* function realisation from the posterior and evaluating it on tens of
thousands of candidate points with a single forward pass — this is provided
by :meth:`BayesianNeuralNetwork.sample_function`.
"""

from __future__ import annotations

import numpy as np

from repro.models.mlp import relu, relu_grad
from repro.models.optimizers import make_optimizer
from repro.models.scaler import StandardScaler

__all__ = ["BayesianNeuralNetwork", "softplus", "softplus_grad"]


def softplus(values: np.ndarray) -> np.ndarray:
    """Numerically stable ``log(1 + exp(x))``."""
    return np.logaddexp(0.0, values)


def softplus_grad(values: np.ndarray) -> np.ndarray:
    """Derivative of softplus, i.e. the logistic sigmoid."""
    return 1.0 / (1.0 + np.exp(-values))


class _SampledNetwork:
    """A single weight draw from the posterior, usable as a deterministic function.

    Instances are returned by :meth:`BayesianNeuralNetwork.sample_function`
    and hold references to the scalers of the parent model, so predictions
    are in the original target units.
    """

    def __init__(
        self,
        weights: list[np.ndarray],
        biases: list[np.ndarray],
        x_scaler: StandardScaler,
        y_scaler: StandardScaler,
    ) -> None:
        self._weights = weights
        self._biases = biases
        self._x_scaler = x_scaler
        self._y_scaler = y_scaler

    def __call__(self, inputs) -> np.ndarray:
        """Evaluate the sampled network on a batch of features."""
        x = np.atleast_2d(np.asarray(inputs, dtype=float))
        hidden = self._x_scaler.transform(x)
        last = len(self._weights) - 1
        for index, (weight, bias) in enumerate(zip(self._weights, self._biases)):
            pre = hidden @ weight + bias
            hidden = pre if index == last else relu(pre)
        result = self._y_scaler.inverse_transform(hidden)
        return result[:, 0] if result.shape[1] == 1 else result


class BayesianNeuralNetwork:
    """Variational-Gaussian BNN regression model.

    The posterior lives in one flat vector ``theta = [mu | rho]``; inside each
    half every layer's weights are followed by its biases.  A training step
    draws the noise of all Monte-Carlo samples at once and backpropagates them
    as stacked ``(samples, batch, width)`` matmuls.

    Parameters
    ----------
    input_dim:
        Number of input features.
    hidden_layers:
        Hidden layer widths.  The paper uses ``(128, 256, 256, 128)``; the
        default is smaller so the reproduction's end-to-end experiments run
        in minutes rather than hours.
    prior_sigma:
        Standard deviation of the zero-mean Gaussian weight prior.
    noise_sigma:
        Observation-noise standard deviation of the Gaussian likelihood
        (in standardised target units).
    n_mc_samples:
        Monte-Carlo weight draws per gradient step.
    kl_weight:
        Scale of the complexity (KL) term; defaults to ``1 / n_samples`` as
        in Bayes-by-Backprop with a single batch per epoch.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_layers: tuple[int, ...] = (48, 48),
        output_dim: int = 1,
        prior_sigma: float = 1.0,
        noise_sigma: float = 0.15,
        learning_rate: float = 1e-2,
        optimizer: str = "adam",
        n_mc_samples: int = 2,
        kl_weight: float | None = None,
        seed: int | None = None,
    ) -> None:
        if input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if output_dim < 1:
            raise ValueError("output_dim must be >= 1")
        if prior_sigma <= 0 or noise_sigma <= 0:
            raise ValueError("prior_sigma and noise_sigma must be positive")
        self.input_dim = input_dim
        self.hidden_layers = tuple(int(h) for h in hidden_layers)
        self.output_dim = output_dim
        self.prior_sigma = prior_sigma
        self.noise_sigma = noise_sigma
        self.n_mc_samples = max(1, int(n_mc_samples))
        self.kl_weight = kl_weight
        self._rng = np.random.default_rng(seed)
        self._x_scaler = StandardScaler()
        self._y_scaler = StandardScaler()
        self._n_params = sum(fan_in * fan_out + fan_out for fan_in, fan_out in self._layer_sizes())
        self._theta = self._init_parameters()
        self._optimizer = make_optimizer(optimizer, [self._theta], learning_rate)
        self.loss_history: list[float] = []
        self._fitted = False

    # ------------------------------------------------------------------ setup
    def _layer_sizes(self) -> list[tuple[int, int]]:
        dims = [self.input_dim, *self.hidden_layers, self.output_dim]
        return list(zip(dims[:-1], dims[1:]))

    def _init_parameters(self) -> np.ndarray:
        theta = np.zeros(2 * self._n_params)
        theta[self._n_params :] = -4.0  # softplus(-4) ~ 0.018: small initial posterior std
        for weight in self._unflatten(theta[: self._n_params])[0]:
            weight[...] = self._rng.normal(0.0, np.sqrt(2.0 / weight.shape[0]), size=weight.shape)
        return theta

    def _unflatten(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer weight and bias views of one ``mu``/``rho``-shaped vector.

        A leading sample axis is kept: ``flat`` of shape ``(S, P)`` yields
        ``(S, fan_in, fan_out)`` weights and ``(S, 1, fan_out)`` biases.
        """
        lead = flat.shape[:-1]
        bias_lead = (*lead, 1) if lead else ()
        weights, biases = [], []
        start = 0
        for fan_in, fan_out in self._layer_sizes():
            stop = start + fan_in * fan_out
            weights.append(flat[..., start:stop].reshape(*lead, fan_in, fan_out))
            biases.append(flat[..., stop : stop + fan_out].reshape(*bias_lead, fan_out))
            start = stop + fan_out
        return weights, biases

    # The per-layer parameters are rebuilt as views of ``_theta`` on every
    # access: stored views would silently detach from it under copy/pickle.
    @property
    def weight_mu(self) -> list[np.ndarray]:
        """Per-layer weight means (views of the flat parameter vector)."""
        return self._unflatten(self._theta[: self._n_params])[0]

    @property
    def bias_mu(self) -> list[np.ndarray]:
        """Per-layer bias means (views of the flat parameter vector)."""
        return self._unflatten(self._theta[: self._n_params])[1]

    @property
    def weight_rho(self) -> list[np.ndarray]:
        """Per-layer weight ``rho`` (posterior std is ``softplus(rho)``)."""
        return self._unflatten(self._theta[self._n_params :])[0]

    @property
    def bias_rho(self) -> list[np.ndarray]:
        """Per-layer bias ``rho`` (posterior std is ``softplus(rho)``)."""
        return self._unflatten(self._theta[self._n_params :])[1]

    # --------------------------------------------------------------- internals
    def _sample_layer_weights(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Draw one weight set via the reparameterisation trick."""
        mu, rho = self._theta[: self._n_params], self._theta[self._n_params :]
        return self._unflatten(mu + softplus(rho) * self._rng.standard_normal(self._n_params))

    def _forward(
        self, inputs: np.ndarray, weights: list[np.ndarray], biases: list[np.ndarray]
    ) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
        activations = [inputs]
        pre_activations = []
        hidden = inputs
        last = len(weights) - 1
        for index, (weight, bias) in enumerate(zip(weights, biases)):
            pre = hidden @ weight + bias
            pre_activations.append(pre)
            hidden = pre if index == last else relu(pre)
            activations.append(hidden)
        return hidden, activations, pre_activations

    # -------------------------------------------------------------------- API
    def fit(
        self,
        inputs,
        targets,
        epochs: int = 150,
        batch_size: int = 64,
        reset_scalers: bool = True,
    ) -> "BayesianNeuralNetwork":
        """Train the variational posterior on ``(inputs, targets)``."""
        x = np.atleast_2d(np.asarray(inputs, dtype=float))
        y = np.atleast_1d(np.asarray(targets, dtype=float))
        if x.size == 0:
            raise ValueError("cannot fit a BNN on an empty dataset")
        if len(x) != len(y):
            raise ValueError("inputs and targets have mismatched lengths")
        y = y.reshape(len(x), -1)
        if x.shape[1] != self.input_dim:
            raise ValueError(f"expected {self.input_dim} input features, got {x.shape[1]}")
        if y.shape[1] != self.output_dim:
            raise ValueError(f"expected {self.output_dim} targets, got {y.shape[1]}")
        if reset_scalers or not self._x_scaler.is_fitted:
            self._x_scaler.fit(x)
            self._y_scaler.fit(y)
        x_std = self._x_scaler.transform(x)
        y_std = self._y_scaler.transform(y)
        n_samples = len(x_std)
        batch_size = max(1, min(batch_size, n_samples))
        n_batches = int(np.ceil(n_samples / batch_size))
        kl_weight = self.kl_weight if self.kl_weight is not None else 1.0 / n_samples
        noise_var = self.noise_sigma**2
        prior_var = self.prior_sigma**2
        scale = 1.0 / self.n_mc_samples

        n_params = self._n_params
        mu, rho = self._theta[:n_params], self._theta[n_params:]
        eps = np.empty((self.n_mc_samples, n_params))
        draws = np.empty_like(eps)
        sample_grads = np.empty_like(eps)
        gradient = np.empty_like(self._theta)
        weights, biases = self._unflatten(draws)
        weight_grads, bias_grads = self._unflatten(sample_grads)
        # Sum the KL array by array (each layer's weights, then its biases), as
        # rounding depends on how the terms are grouped.
        bounds = np.cumsum([0] + [n for fi, fo in self._layer_sizes() for n in (fi * fo, fo)])
        segments = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]

        for _ in range(epochs):
            order = self._rng.permutation(n_samples)
            epoch_loss = 0.0
            for start in range(0, n_samples, batch_size):
                batch_idx = order[start : start + batch_size]
                batch_x = x_std[batch_idx]
                batch_y = y_std[batch_idx]

                sigma = softplus(rho)
                sigma_grad = softplus_grad(rho)
                self._rng.standard_normal(out=eps)
                np.add(mu, sigma * eps, out=draws)
                prediction, activations, pre_activations = self._forward(batch_x, weights, biases)
                error = prediction - batch_y
                nll = np.sum(error**2, axis=(1, 2)) / (2.0 * noise_var)
                grad = error / noise_var / len(batch_x) * n_samples / n_batches
                for index in range(len(weights) - 1, -1, -1):
                    np.matmul(activations[index].swapaxes(-1, -2), grad, out=weight_grads[index])
                    grad.sum(axis=-2, keepdims=True, out=bias_grads[index])
                    if index > 0:
                        grad = (grad @ weights[index].swapaxes(-1, -2)) * relu_grad(pre_activations[index - 1])

                # Closed-form KL(q || prior) and its gradients w.r.t. mu and rho.
                kl_terms = np.log(self.prior_sigma / sigma) + (sigma**2 + mu**2) / (2.0 * prior_var) - 0.5
                kl = sum(float(kl_terms[segment].sum()) for segment in segments)
                gradient[:n_params] = scale * sample_grads.sum(axis=0) + kl_weight * (mu / prior_var)
                rho_grads = (sample_grads * eps * sigma_grad).sum(axis=0)
                kl_rho_grads = (sigma / prior_var - 1.0 / sigma) * sigma_grad
                gradient[n_params:] = scale * rho_grads + kl_weight * kl_rho_grads
                self._optimizer.step([gradient])
                epoch_loss += sum(nll.tolist()) * scale + kl_weight * kl
            self.loss_history.append(epoch_loss / n_samples)
        self._fitted = True
        return self

    def predict(self, inputs, n_samples: int = 30) -> tuple[np.ndarray, np.ndarray]:
        """Monte-Carlo posterior predictive mean and standard deviation."""
        self._require_fitted()
        x = np.atleast_2d(np.asarray(inputs, dtype=float))
        x_std = self._x_scaler.transform(x)
        draws = np.zeros((n_samples, len(x), self.output_dim))
        for index in range(n_samples):
            draws[index] = self._forward(x_std, *self._sample_layer_weights())[0]
        mean_std_units = draws.mean(axis=0)
        std_std_units = draws.std(axis=0)
        mean = self._y_scaler.inverse_transform(mean_std_units)
        std = self._y_scaler.inverse_transform_std(std_std_units)
        if self.output_dim == 1:
            return mean[:, 0], std[:, 0]
        return mean, std

    def sample_function(self) -> _SampledNetwork:
        """Draw one deterministic function from the posterior (Thompson sampling)."""
        self._require_fitted()
        weights, biases = self._sample_layer_weights()
        return _SampledNetwork(weights, biases, self._x_scaler, self._y_scaler)

    def sample_predict(self, inputs) -> np.ndarray:
        """Evaluate a single posterior function draw on ``inputs``."""
        return self.sample_function()(inputs)

    def mean_predict(self, inputs) -> np.ndarray:
        """Posterior-mean prediction (weights fixed to their variational means)."""
        self._require_fitted()
        x = np.atleast_2d(np.asarray(inputs, dtype=float))
        x_std = self._x_scaler.transform(x)
        prediction = self._forward(x_std, self.weight_mu, self.bias_mu)[0]
        result = self._y_scaler.inverse_transform(prediction)
        return result[:, 0] if self.output_dim == 1 else result

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has completed at least once."""
        return self._fitted

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("BayesianNeuralNetwork used before fit()")
