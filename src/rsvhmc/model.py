"""Realized stochastic volatility model: data containers, energies, gradients.

The model couples a daily return y_t, a daily log realized volatility
ln RV_t, and a latent log-variance h_t:

    y_t      = exp(h_t / 2) * eps_t,          eps_t ~ N(0, 1)
    ln RV_t  = xi + h_t + u_t,                u_t   ~ N(0, sigma_u2)
    h_{t+1}  = mu + phi * (h_t - mu) + eta_t, eta_t ~ N(0, sigma_eta2)

with h_1 drawn from the stationary AR(1) distribution
N(mu, sigma_eta2 / (1 - phi^2)).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

PARAM_NAMES = ("phi", "mu", "xi", "sigma_eta2", "sigma_u2")


@dataclass(frozen=True)
class ModelParams:
    """The five model parameters (phi, mu, xi, sigma_eta2, sigma_u2)."""

    phi: float
    mu: float
    xi: float
    sigma_eta2: float
    sigma_u2: float

    def __post_init__(self):
        vals = (self.phi, self.mu, self.xi, self.sigma_eta2, self.sigma_u2)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"non-finite parameter in {vals}")
        if abs(self.phi) >= 1.0:
            raise ValueError(f"|phi| must be < 1, got {self.phi}")
        if self.sigma_eta2 <= 0.0:
            raise ValueError(f"sigma_eta2 must be > 0, got {self.sigma_eta2}")
        if self.sigma_u2 <= 0.0:
            raise ValueError(f"sigma_u2 must be > 0, got {self.sigma_u2}")

    def as_dict(self) -> dict[str, float]:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class ObservedSeries:
    """Paired daily returns and log realized volatilities."""

    y: np.ndarray
    ln_rv: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.float64)
        ln_rv = np.asarray(self.ln_rv, dtype=np.float64)
        if y.ndim != 1 or ln_rv.ndim != 1:
            raise ValueError("y and ln_rv must be 1-dimensional")
        if len(y) != len(ln_rv):
            raise ValueError(f"length mismatch: {len(y)} vs {len(ln_rv)}")
        if len(y) < 1:
            raise ValueError("series must contain at least one observation")
        if not np.all(np.isfinite(y)) or not np.all(np.isfinite(ln_rv)):
            raise ValueError("series contains non-finite entries")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "ln_rv", ln_rv)

    @property
    def n(self) -> int:
        return len(self.y)


def as_path(h, data: ObservedSeries) -> np.ndarray:
    """``h`` as float64, refused unless it is 1-d with one entry per observation."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 1:
        raise ValueError(f"latent path must be a 1-d array, got shape {h.shape}")
    if len(h) != data.n:
        raise ValueError(f"path length {len(h)} != series length {data.n}")
    return h


class LatentTarget:
    """The potential V(h) and its gradient at one theta.

    V is the negative log conditional posterior of h, up to an h-independent
    constant:

        V(h) = sum_t [ h_t/2 + (y_t^2/2) e^{-h_t} ]
             + sum_t (ln RV_t - xi - h_t)^2 / (2 sigma_u2)
             + (1 - phi^2)(h_1 - mu)^2 / (2 sigma_eta2)
             + sum_{t<n} (h_{t+1} - mu - phi (h_t - mu))^2 / (2 sigma_eta2)

    Built once per theta, it holds the h-independent pieces of V and scratch
    buffers reused from call to call; the sampler passes it to every HMC
    update at that theta. The gradient is folded into

        dV/dh = c + A h - (y^2/2) e^{-h},

    where c is a per-site vector and A is tridiagonal: off-diagonal
    -phi/sigma_eta2, diagonal 1/sigma_u2 + (1 + phi^2)/sigma_eta2 inside and
    1/sigma_u2 + 1/sigma_eta2 at both ends. V itself keeps its residual form.
    Its methods do not validate h: the caller passes a float64 path of the
    series length and checks the result for finiteness.
    """

    def __init__(self, theta: ModelParams, data: ObservedSeries):
        n = data.n
        self.half_y2 = 0.5 * data.y**2
        self.ln_rv_xi = data.ln_rv - theta.xi
        self.inv_su2 = 1.0 / theta.sigma_u2
        self.inv_se2 = 1.0 / theta.sigma_eta2
        self.phi = theta.phi
        self.mu = theta.mu
        self.drift = theta.mu * (1.0 - theta.phi)
        self.stationary = (1.0 - theta.phi**2) / theta.sigma_eta2
        # c: every h-independent term of dV/dh
        c = 0.5 - self.ln_rv_xi * self.inv_su2
        c[1:] -= self.drift * self.inv_se2
        c[:-1] += self.phi * self.drift * self.inv_se2
        c[0] -= self.stationary * self.mu
        self.c = c
        off = -self.phi * self.inv_se2
        self.band = np.array([off, self.inv_su2 + (1.0 + self.phi**2) * self.inv_se2, off])
        # the band's interior diagonal exceeds A's at both ends by this much
        self.end_correction = self.phi**2 * self.inv_se2
        self._site = np.empty(n)
        self._tmp = np.empty(n)
        self._resid = np.empty(n - 1)
        self._grad = np.empty(n)

    def _return_terms(self, h: np.ndarray) -> np.ndarray:
        """(y_t^2/2) e^{-h_t}, in a scratch buffer."""
        e = np.negative(h, out=self._site)
        np.exp(e, out=e)
        e *= self.half_y2
        return e

    def _transitions(self, h: np.ndarray) -> np.ndarray:
        """Residuals h_{t+1} - mu - phi (h_t - mu), in a scratch buffer."""
        r = np.multiply(h[:-1], self.phi, out=self._resid)
        np.subtract(h[1:], r, out=r)
        r -= self.drift
        return r

    def _site_terms(self, h: np.ndarray) -> np.ndarray:
        """Per-site return and measurement terms of V, in a scratch buffer."""
        site = self._return_terms(h)
        d = np.subtract(self.ln_rv_xi, h, out=self._tmp)
        d *= d
        d *= 0.5 * self.inv_su2
        site += d
        site += np.multiply(h, 0.5, out=self._tmp)
        return site

    def potential(self, h: np.ndarray) -> float:
        """V(h), in the residual form above."""
        v = float(self._site_terms(h).sum())
        r = self._transitions(h)
        v += 0.5 * self.stationary * (h[0] - self.mu) ** 2
        return v + 0.5 * self.inv_se2 * float(r @ r)

    def grad(self, h: np.ndarray) -> np.ndarray:
        """dV/dh, in a buffer that the next call overwrites.

        exp(h) underflows to 0 below h = -745, where the division yields
        inf (or nan where y = 0); callers see that as a non-finite result.
        """
        out = np.exp(h, out=self._grad)
        np.divide(self.half_y2, out, out=out)
        np.subtract(self.c, out, out=out)
        # "full" mode zero-pads both ends, so [1:-1] is A h with the interior diagonal
        a = np.convolve(h, self.band)[1:-1]
        a[0] -= self.end_correction * h[0]
        a[-1] -= self.end_correction * h[-1]
        out += a
        return out


def potential(h, theta: ModelParams, data: ObservedSeries) -> float:
    """V(h) through a fresh :class:`LatentTarget`; only the path's shape is checked."""
    return LatentTarget(theta, data).potential(as_path(h, data))


def grad_potential(h, theta: ModelParams, data: ObservedSeries) -> np.ndarray:
    """dV/dh through a fresh :class:`LatentTarget`; only the path's shape is checked."""
    # above h = 709 exp(h) overflows to inf, and the return term is exactly -0
    with np.errstate(over="ignore"):
        return LatentTarget(theta, data).grad(as_path(h, data))
