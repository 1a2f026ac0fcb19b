from dataclasses import dataclass, field

import numpy as np
import pytest

from rsvhmc.integrators import Force, Scheme, TrajectoryConfig, integrate
from rsvhmc.model import ModelParams, ObservedSeries, PhaseState


def random_instance(rng, n):
    """Random parameters, data and path for oracle tests."""
    theta = ModelParams(
        phi=rng.uniform(-0.95, 0.95),
        mu=rng.normal(0.0, 1.0),
        xi=rng.normal(0.0, 0.5),
        sigma_eta2=rng.uniform(0.05, 0.5),
        sigma_u2=rng.uniform(0.05, 0.5),
    )
    h = rng.normal(theta.mu, 1.0, n)
    data = ObservedSeries(
        y=rng.normal(0.0, 0.5, n),
        ln_rv=theta.xi + h + rng.normal(0.0, 0.3, n),
    )
    return theta, h, data


def fd_gradient(f, h, eps=1e-5):
    """Central finite differences of a scalar function of the path."""
    g = np.empty(len(h))
    for i in range(len(h)):
        hp, hm = h.copy(), h.copy()
        hp[i] += eps
        hm[i] -= eps
        g[i] = (f(hp) - f(hm)) / (2.0 * eps)
    return g


@pytest.fixture
def rng():
    return np.random.default_rng(20240824)


@dataclass
class CountingForce:
    """Wraps a force evaluator and counts calls (cost accounting in tests)."""

    force: Force
    calls: int = field(default=0)

    def __call__(self, h: np.ndarray) -> np.ndarray:
        self.calls += 1
        return self.force(h)


def integrate_by_stages(state: PhaseState, cfg: TrajectoryConfig, force: Force) -> PhaseState:
    """Reference for ``integrate``: every drift forms its own product with p."""
    h, p = state.h.copy(), state.p.copy()
    tmp = np.empty_like(h)
    stages = [(drift * cfg.step_size, kick * cfg.step_size) for drift, kick in cfg.stages]
    for _ in range(cfg.n_steps):
        for drift, kick in stages:
            h += np.multiply(drift, p, out=tmp)
            if kick:
                p -= np.multiply(kick, force(h), out=tmp)
    return PhaseState(h, p)


def leapfrog_step(state: PhaseState, step_size: float, force: Force) -> PhaseState:
    """One leapfrog step: half drift, full kick, half drift."""
    return integrate(state, TrajectoryConfig(Scheme.LEAPFROG2, step_size, 1), force)


def minimum_norm_step(state: PhaseState, step_size: float, lam: float, force: Force) -> PhaseState:
    """One minimum-norm step: the five-stage T-V-T-V-T splitting."""
    return integrate(state, TrajectoryConfig(Scheme.MINIMUM_NORM2, step_size, 1, lam), force)
