"""Acquisition functions for the Bayesian-optimisation stages.

Stage 2 balances exploration and exploitation with (parallel) Thompson
sampling over a BNN surrogate; stage 3 uses the clipped randomized GP-UCB
(cRGP-UCB) acquisition the paper proposes for conservative exploration
(Sec. 6.2), and the evaluation compares it against the classic EI, PI and
GP-UCB acquisitions (Fig. 22).  All functions are written for *maximisation*
of the quantity being modelled; callers that minimise (e.g. the Lagrangian)
negate their objective first.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

__all__ = [
    "expected_improvement",
    "probability_of_improvement",
    "upper_confidence_bound",
    "gp_ucb_beta",
    "crgp_ucb_kappa",
    "crgp_ucb_beta",
]


def _validate(mean, std) -> tuple[np.ndarray, np.ndarray]:
    mu = np.asarray(mean, dtype=float).ravel()
    sigma = np.asarray(std, dtype=float).ravel()
    if mu.shape != sigma.shape:
        raise ValueError("mean and std must have the same shape")
    if np.any(sigma < 0):
        raise ValueError("std must be non-negative")
    return mu, np.maximum(sigma, 1e-12)


def _normal_pdf(z: np.ndarray) -> np.ndarray:
    """Standard normal density, value-for-value equal to ``scipy.stats.norm.pdf``."""
    return np.exp(-(z**2) / 2.0) / np.sqrt(2 * np.pi)


def expected_improvement(mean, std, best: float, xi: float = 0.01) -> np.ndarray:
    """Expected improvement over the incumbent ``best`` (maximisation)."""
    mu, sigma = _validate(mean, std)
    improvement = mu - best - xi
    z = improvement / sigma
    return improvement * ndtr(z) + sigma * _normal_pdf(z)


def probability_of_improvement(mean, std, best: float, xi: float = 0.01) -> np.ndarray:
    """Probability of improving on the incumbent ``best`` (maximisation)."""
    mu, sigma = _validate(mean, std)
    return ndtr((mu - best - xi) / sigma)


def upper_confidence_bound(mean, std, beta: float) -> np.ndarray:
    """UCB acquisition ``mu + sqrt(beta) * sigma``."""
    if beta < 0:
        raise ValueError("beta must be non-negative")
    mu, sigma = _validate(mean, std)
    return mu + np.sqrt(beta) * sigma


def gp_ucb_beta(iteration: int, dim: int, delta: float = 0.1) -> float:
    """The (large) exploration coefficient of GP-UCB [Srinivas et al., 2009].

    ``beta_t = 2 log(t^2 * 2 pi^2 / (3 delta)) + 2 d log(t^2 d b r ...)`` is
    commonly simplified in practice to ``2 log(d t^2 pi^2 / (6 delta))``,
    which is what this helper returns.  It grows with the iteration count and
    is typically much larger than what safe exploration tolerates — the
    motivation for cRGP-UCB.
    """
    if iteration < 1:
        raise ValueError("iteration must be >= 1")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    return float(2.0 * np.log(dim * iteration**2 * np.pi**2 / (6.0 * delta)))


def crgp_ucb_kappa(iteration: int, rho: float) -> float:
    """Shape parameter ``kappa_t`` of the randomized GP-UCB Gamma distribution (Eq. 13)."""
    if iteration < 1:
        raise ValueError("iteration must be >= 1")
    if rho <= 0:
        raise ValueError("rho must be positive")
    numerator = np.log((iteration**2 + 1.0) / np.sqrt(2.0 * np.pi))
    denominator = np.log(1.0 + rho / 2.0)
    return float(max(numerator / denominator, 1e-6))


def crgp_ucb_beta(
    iteration: int,
    rho: float = 0.1,
    clip_upper: float = 10.0,
    rng: np.random.Generator | None = None,
) -> float:
    """Sample the clipped randomized GP-UCB exploration coefficient ``beta_t``.

    ``beta_t ~ Gamma(kappa_t, rho)`` (shape/scale parameterisation), then
    clipped to ``[0, clip_upper]`` for conservative exploration.  The paper
    uses ``rho = 0.1`` and a clipping bound of 10.
    """
    if clip_upper <= 0:
        raise ValueError("clip_upper must be positive")
    generator = rng if rng is not None else np.random.default_rng()
    kappa = crgp_ucb_kappa(iteration, rho)
    beta = generator.gamma(shape=kappa, scale=rho)
    return float(np.clip(beta, 0.0, clip_upper))
