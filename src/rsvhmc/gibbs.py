"""Full-conditional draws for the five model parameters.

Conventions:
* flat (improper) priors for mu and xi by default, with optional Gaussian
  priors for validation runs that need proper priors;
* flat prior on (-1, 1) for phi;
* inverse-gamma priors for both variances.

Given the latent path, every conditional depends on h and ln RV only through
a few sums. ``path_sums`` takes them in one pass over the arrays; the draws
are scalar arithmetic on those sums and on the parameters drawn so far. The
series needs n >= 2.

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

from .model import ModelParams, ObservedSeries


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


@dataclass(frozen=True)
class PathSums:
    """What the draws need of (h, ln RV). phi and sigma_eta2 use the AR
    regression of g[1:] on g[:-1], g = h - h[0], about the two segments' own
    means: no sum cancels when |mu| is large or |phi| is near 1, and h[:-1]
    equal to mu gives an exactly zero regression denominator."""

    n: int
    mean: float  # mean(h)
    first: float  # h[0]
    last: float  # h[-1]
    lag_mean: float  # mean(g[:-1])
    lead_mean: float  # mean(g[1:])
    lag_ss: float  # sum (g[:-1] - lag_mean)^2
    slope: float  # least-squares slope of g[1:] on g[:-1]; 0 when lag_ss is 0
    resid_ss: float  # sum of that regression's squared residuals
    e_mean: float  # mean(ln RV - h)
    e_ss: float  # sum (ln RV - h - e_mean)^2


def path_sums(h: np.ndarray, data: ObservedSeries) -> PathSums:
    """The sums every parameter draw needs, in one pass over h and ln RV."""
    n = len(h)
    if n < 2:
        raise ValueError(f"the parameter sweep needs n >= 2, got {n}")
    first = float(h[0])
    mean = float(h.sum()) / n
    g = h - first
    lag_mean = float(g[:-1].sum()) / (n - 1)
    lead_mean = float(g[1:].sum()) / (n - 1)
    a = g[:-1] - lag_mean
    b = g[1:] - lead_mean
    lag_ss = float(a @ a)
    slope = float(b @ a) / lag_ss if lag_ss > 0.0 else 0.0
    b -= slope * a
    e = data.ln_rv - h
    e_mean = float(e.sum()) / n
    e -= e_mean
    return PathSums(
        n, mean, first, float(h[-1]), lag_mean, lead_mean, lag_ss, slope, float(b @ b),
        e_mean, float(e @ e),
    )


def _posterior_normal(
    like_mean: float,
    like_var: float,
    prior: tuple[float, float] | None,
    rng: np.random.Generator,
) -> float:
    if prior is None:
        return rng.normal(like_mean, math.sqrt(like_var))
    m0, v0 = prior
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
    m = mu - s.first
    da, db = m - s.lag_mean, m - s.lead_mean
    # stationary term, then sum (h[t+1] - mu - phi (h[t] - mu))^2 as regression
    # residuals plus the slope and mean offsets
    ss = (
        (1.0 - phi * phi) * m * m
        + s.resid_ss
        + s.lag_ss * (phi - s.slope) ** 2
        + (s.n - 1) * (db - phi * da) ** 2
    )
    return (prior.b_eta + 0.5 * ss) / rng.gamma(s.n / 2.0 + prior.a_eta)


def sample_sigma_u2(s: PathSums, xi: float, prior: PriorConfig, rng: np.random.Generator) -> float:
    """sigma_u2 | rest ~ IG(n/2 + a_u, b_u + sum (ln RV - xi - h)^2 / 2)."""
    ss = s.e_ss + s.n * (xi - s.e_mean) ** 2
    return (prior.b_u + 0.5 * ss) / rng.gamma(s.n / 2.0 + prior.a_u)


def gibbs_sweep(
    h: np.ndarray,
    theta: ModelParams,
    data: ObservedSeries,
    prior: PriorConfig,
    rng: np.random.Generator,
) -> ModelParams:
    """One full parameter sweep in the fixed order phi, mu, xi, sigma_eta2, sigma_u2."""
    s = path_sums(h, data)
    phi = sample_phi(s, theta.phi, theta.mu, theta.sigma_eta2, rng)
    mu = sample_mu(s, phi, theta.sigma_eta2, prior, rng)
    xi = sample_xi(s, theta.sigma_u2, prior, rng)
    sigma_eta2 = sample_sigma_eta2(s, phi, mu, prior, rng)
    sigma_u2 = sample_sigma_u2(s, xi, prior, rng)
    return ModelParams(phi, mu, xi, sigma_eta2, sigma_u2)
