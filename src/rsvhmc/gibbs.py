"""Full-conditional draws for the five model parameters.

Conventions:
* flat (improper) priors for mu and xi by default, with optional Gaussian
  priors for validation runs that need proper priors;
* flat prior on (-1, 1) for phi;
* inverse-gamma priors for both variances.

Given the latent path, every conditional depends on h and ln RV only through
a few sums. ``model.path_sums`` takes them in one pass over the arrays, and
the sampler carries them with the path; the draws are scalar arithmetic on
those sums and on the parameters drawn so far. The series needs n >= 2.

phi is updated by Metropolis-Hastings within Gibbs with the AR-regression
Gaussian proposal of Kim, Shephard & Chib (Rev. Econ. Stud. 65 (1998) 361).
It absorbs the transition quadratic exactly, leaving only the
stationary-distribution factor sqrt(1 - phi^2) exp(...) in the acceptance
ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, PathSums


@dataclass(frozen=True)
class PriorConfig:
    """Prior hyperparameters for the parameter sweep.

    ``mu_prior`` / ``xi_prior`` are (mean, variance) tuples for Gaussian
    priors, or None for the flat prior.
    """

    a_eta: float = 2.5
    b_eta: float = 0.025
    a_u: float = 2.5
    b_u: float = 0.025
    mu_prior: tuple[float, float] | None = None
    xi_prior: tuple[float, float] | None = None

    def __post_init__(self):
        for name in ("a_eta", "b_eta", "a_u", "b_u"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        for name in ("mu_prior", "xi_prior"):
            pr = getattr(self, name)
            if pr is not None and not (
                math.isfinite(pr[0]) and math.isfinite(pr[1]) and pr[1] > 0.0
            ):
                raise ValueError(f"{name} needs a finite mean and a finite variance > 0, got {pr}")


def _posterior_normal(
    like_mean: float,
    like_var: float,
    prior_mean_var: tuple[float, float] | None,
    rng: np.random.Generator,
) -> float:
    if prior_mean_var is None:
        return rng.normal(like_mean, math.sqrt(like_var))
    m0, v0 = prior_mean_var
    prec = 1.0 / like_var + 1.0 / v0
    mean = (like_mean / like_var + m0 / v0) / prec
    return rng.normal(mean, math.sqrt(1.0 / prec))


def sample_phi(
    s: PathSums, phi: float, mu: float, sigma_eta2: float, rng: np.random.Generator
) -> float:
    """One MH-within-Gibbs update of phi; returns the new (or retained) value.

    Raises ValueError when the regression denominator sum (h[:-1] - mu)^2 is 0.
    """
    m = mu - s.first
    da, db = m - s.lag_mean, m - s.lead_mean
    denom = s.lag_ss + (s.n - 1) * da * da
    if not denom > 0.0:
        raise ValueError("phi's regression denominator sum (h[:-1] - mu)^2 is zero")
    phi_hat = (s.slope * s.lag_ss + (s.n - 1) * da * db) / denom
    prop = rng.normal(phi_hat, math.sqrt(sigma_eta2 / denom))
    if abs(prop) >= 1.0:
        return phi
    # log g(prop) - log g(phi), g(x) = sqrt(1 - x^2) exp(-(1 - x^2) (h[0] - mu)^2 / (2 sigma_eta2))
    log_ratio = 0.5 * math.log((1.0 - prop * prop) / (1.0 - phi * phi)) + (
        prop * prop - phi * phi
    ) * (m * m / (2.0 * sigma_eta2))
    if log_ratio >= 0.0 or math.log(rng.uniform()) < log_ratio:
        return prop
    return phi


def sample_mu(
    s: PathSums, phi: float, sigma_eta2: float, prior: PriorConfig, rng: np.random.Generator
) -> float:
    """mu | rest ~ N(m, sigma_eta2 / A) under the flat prior: A = 1 - phi^2 + (n - 1)(1 - phi)^2,
    m = mean(h) + phi (1 - phi)(h[0] + h[-1] - 2 mean(h)) / A."""
    a = (1.0 - phi * phi) + (s.n - 1) * (1.0 - phi) ** 2
    m = s.mean + phi * (1.0 - phi) * ((s.first - s.mean) + (s.last - s.mean)) / a
    return _posterior_normal(m, sigma_eta2 / a, prior.mu_prior, rng)


def sample_xi(s: PathSums, sigma_u2: float, prior: PriorConfig, rng: np.random.Generator) -> float:
    """xi | rest ~ N(mean(ln RV - h), sigma_u2 / n) under the flat prior."""
    return _posterior_normal(s.e_mean, sigma_u2 / s.n, prior.xi_prior, rng)


def sample_sigma_eta2(
    s: PathSums, phi: float, mu: float, prior: PriorConfig, rng: np.random.Generator
) -> float:
    """sigma_eta2 | rest ~ IG(n/2 + a_eta, b_eta + SS/2), SS the AR(1) quadratic form."""
    return (prior.b_eta + 0.5 * s.transition_ss(phi, mu)) / rng.gamma(s.n / 2.0 + prior.a_eta)


def sample_sigma_u2(s: PathSums, xi: float, prior: PriorConfig, rng: np.random.Generator) -> float:
    """sigma_u2 | rest ~ IG(n/2 + a_u, b_u + sum (ln RV - xi - h)^2 / 2)."""
    return (prior.b_u + 0.5 * s.measurement_ss(xi)) / rng.gamma(s.n / 2.0 + prior.a_u)


def gibbs_sweep(
    s: PathSums, theta: ModelParams, prior: PriorConfig, rng: np.random.Generator
) -> ModelParams:
    """One full parameter sweep in the fixed order phi, mu, xi, sigma_eta2,
    sigma_u2, given the current path's sums ``s = path_sums(h, data)``."""
    if s.n < 2:
        raise ValueError(f"the parameter sweep needs n >= 2, got {s.n}")
    phi = sample_phi(s, theta.phi, theta.mu, theta.sigma_eta2, rng)
    mu = sample_mu(s, phi, theta.sigma_eta2, prior, rng)
    xi = sample_xi(s, theta.sigma_u2, prior, rng)
    sigma_eta2 = sample_sigma_eta2(s, phi, mu, prior, rng)
    sigma_u2 = sample_sigma_u2(s, xi, prior, rng)
    return ModelParams(phi, mu, xi, sigma_eta2, sigma_u2)
