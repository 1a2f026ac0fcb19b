"""Forward simulation of the model for ground-truth test datasets."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, ObservedSeries

# the synthetic-study configuration: 4000 observations, known parameters
STUDY_PARAMS = ModelParams(phi=0.93, mu=-1.0, xi=0.3, sigma_eta2=0.1, sigma_u2=0.2)
STUDY_N = 4000


@dataclass(frozen=True)
class SyntheticDataset:
    data: ObservedSeries
    h_true: np.ndarray
    theta_true: ModelParams
    seed: int


def simulate(theta: ModelParams, n: int, seed: int) -> SyntheticDataset:
    """Draw (h, y, ln RV) of length n from the model, h_1 from the stationary law."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    se = math.sqrt(theta.sigma_eta2)
    mu, phi = theta.mu, theta.phi
    x = mu + rng.standard_normal() * se / math.sqrt(1.0 - phi**2)
    path = [x]
    # the recursion on Python floats: the same IEEE arithmetic as on numpy
    # scalars, in the same order, at a third of the time
    for e in (rng.standard_normal(n - 1) * se).tolist():
        x = mu + phi * (x - mu) + e
        path.append(x)
    h = np.array(path)
    y = np.exp(h / 2.0) * rng.standard_normal(n)
    ln_rv = theta.xi + h + rng.standard_normal(n) * math.sqrt(theta.sigma_u2)
    return SyntheticDataset(
        data=ObservedSeries(y=y, ln_rv=ln_rv),
        h_true=h,
        theta_true=theta,
        seed=int(seed),
    )
