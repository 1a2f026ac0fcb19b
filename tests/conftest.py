import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from rsvhmc import model
from rsvhmc.hmc import HmcOutcome
from rsvhmc.integrators import Kick, TrajectoryConfig, integrate
from rsvhmc.model import ModelParams, ObservedSeries


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
    """Wraps a kick and counts its calls, one force evaluation each (cost
    accounting in tests)."""

    kick: Kick
    calls: int = field(default=0)

    def __call__(self, h: np.ndarray, p: np.ndarray, s: float) -> None:
        self.calls += 1
        self.kick(h, p, s)


def hamiltonian(h, p, target: model.LatentTarget) -> float:
    """H(h, p) = (1/2) sum p_i^2 + V(h), with V from ``target.potential_from``."""
    kinetic = 0.5 * float(np.sum(np.asarray(p, dtype=np.float64) ** 2))
    return kinetic + target.potential_from(model.path_sums(h, target.data))


def hmc_update_recomputing(h, theta, data, cfg, rng) -> HmcOutcome:
    """Reference for ``hmc_update``: builds the target and takes the sums of
    both ends of the trajectory on every call."""
    p = rng.standard_normal(len(h))
    target = model.LatentTarget(theta, data)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = model.path_sums(h, data)
        h1, p1 = integrate(h, p, cfg, target.kick)
        sums1 = model.path_sums(h1, data)
        v, v1 = target.potential_from(sums), target.potential_from(sums1)
        delta_h = v1 + 0.5 * float(p1 @ p1) - (v + 0.5 * float(p @ p))
    if not math.isfinite(delta_h):
        return HmcOutcome(h, sums, math.inf, False)
    u = rng.uniform()
    if delta_h <= 0.0 or u < math.exp(-delta_h):
        return HmcOutcome(h1, sums1, delta_h, True)
    return HmcOutcome(h, sums, delta_h, False)


def gibbs_sweep_by_residuals(h, theta, data, prior, rng) -> ModelParams:
    """Reference for ``gibbs_sweep``: every conditional rebuilds its residuals
    from h, with the same rng calls in the same order."""
    phi, mu, xi, se2, su2 = theta.phi, theta.mu, theta.xi, theta.sigma_eta2, theta.sigma_u2
    n = len(h)

    def normal(mean, var, gauss_prior):
        if gauss_prior is not None:
            m0, v0 = gauss_prior
            prec = 1.0 / var + 1.0 / v0
            mean, var = (mean / var + m0 / v0) / prec, 1.0 / prec
        return rng.normal(mean, math.sqrt(var))

    d = h - mu
    denom = float(np.sum(d[:-1] ** 2))
    prop = rng.normal(float(np.sum(d[1:] * d[:-1])) / denom, math.sqrt(se2 / denom))
    if abs(prop) < 1.0:
        # stationary factor log g(x) = log sqrt(1 - x^2) - (1 - x^2)(h_1 - mu)^2 / (2 se2)
        log_g = [0.5 * math.log(1 - x**2) - (1 - x**2) * d[0] ** 2 / (2 * se2) for x in (prop, phi)]
        log_ratio = log_g[0] - log_g[1]
        if log_ratio >= 0.0 or math.log(rng.uniform()) < log_ratio:
            phi = prop
    a = (1 - phi**2) + (n - 1) * (1 - phi) ** 2
    m = (1 - phi**2) * h[0] + (1 - phi) * float(np.sum(h[1:] - phi * h[:-1]))
    mu = normal(m / a, se2 / a, prior.mu_prior)
    xi = normal(float(np.mean(data.ln_rv - h)), su2 / n, prior.xi_prior)
    r = h[1:] - mu - phi * (h[:-1] - mu)
    ss = (1 - phi**2) * (h[0] - mu) ** 2 + float(np.sum(r**2))
    se2 = (prior.b_eta + 0.5 * ss) / rng.gamma(n / 2.0 + prior.a_eta)
    ss = float(np.sum((data.ln_rv - xi - h) ** 2))
    su2 = (prior.b_u + 0.5 * ss) / rng.gamma(n / 2.0 + prior.a_u)
    return ModelParams(phi, mu, xi, float(se2), su2)


class RecordingRng:
    """Stands in for a Generator to read a draw's conditional parameters:
    ``normal`` returns ``normal_value`` (its loc when None), ``gamma`` returns 1
    so an inverse-gamma draw equals its scale, ``uniform`` returns 0.5."""

    def __init__(self, normal_value=None):
        self.normal_value = normal_value
        self.calls = []

    def normal(self, loc, scale):
        self.calls.append(("normal", loc, scale))
        return loc if self.normal_value is None else self.normal_value

    def gamma(self, shape):
        self.calls.append(("gamma", shape))
        return 1.0

    def uniform(self):
        self.calls.append(("uniform",))
        return 0.5


def integrate_by_stages(h, p, cfg: TrajectoryConfig, kick: Kick):
    """Reference for ``integrate``: every drift forms its own product with p."""
    h, p = h.copy(), p.copy()
    tmp = np.empty_like(h)
    stages = [(drift * cfg.step_size, s * cfg.step_size) for drift, s in cfg.stages]
    for _ in range(cfg.n_steps):
        for drift, s in stages:
            h += np.multiply(drift, p, out=tmp)
            if s:
                kick(h, p, s)
    return h, p


def scheme_id(value):
    """Test id of a scheme parameter: the name of the enum member it once was,
    so a test keeps its id across the change to string keys."""
    return {"2lfi": "Scheme.LEAPFROG2", "2mni": "Scheme.MINIMUM_NORM2"}.get(value)


def leapfrog_step(h, p, step_size: float, kick: Kick):
    """One leapfrog step: half drift, full kick, half drift."""
    return integrate(h, p, TrajectoryConfig("2lfi", step_size, 1), kick)


def minimum_norm_step(h, p, step_size: float, kick: Kick):
    """One minimum-norm step: the five-stage T-V-T-V-T splitting."""
    return integrate(h, p, TrajectoryConfig("2mni", step_size, 1), kick)
