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
    """Paired daily returns and log realized volatilities.

    ``ln_half_y2`` = ln(y^2/2), -inf where y = 0, is computed once per
    series: V and its gradient take the return term as exp(ln_half_y2 - h).
    """

    y: np.ndarray
    ln_rv: np.ndarray
    ln_half_y2: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

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
        # from ln|y|, so a large y does not overflow y^2
        with np.errstate(divide="ignore"):
            object.__setattr__(self, "ln_half_y2", 2.0 * np.log(np.abs(y)) - math.log(2.0))

    @property
    def n(self) -> int:
        return len(self.y)


def as_path(h, data: ObservedSeries) -> np.ndarray:
    """A float64 copy of ``h``, refused unless it is 1-d, of the series length
    and finite: the sampler's updates themselves validate nothing."""
    h = np.array(h, dtype=np.float64)
    if h.ndim != 1:
        raise ValueError(f"latent path must be a 1-d array, got shape {h.shape}")
    if len(h) != data.n:
        raise ValueError(f"path length {len(h)} != series length {data.n}")
    bad = np.flatnonzero(~np.isfinite(h))
    if len(bad):
        raise ValueError(f"latent path has a non-finite value at index {bad[0]}: {h[bad[0]]}")
    return h


@dataclass(frozen=True)
class PathSums:
    """What V and the parameter draws need of (h, y, ln RV). phi and
    sigma_eta2 use the AR regression of g[1:] on g[:-1], g = h - h[0], about
    the two segments' own means: no sum cancels when |mu| is large or |phi|
    is near 1, and h[:-1] equal to mu gives an exactly zero regression
    denominator. A path of one site has no transitions, and their sums are 0."""

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
    ret: float  # S = sum (y^2/2) e^{-h}, the return term of V

    def transition_ss(self, phi: float, mu: float) -> float:
        """(1 - phi^2)(h[0] - mu)^2 + sum (h[t+1] - mu - phi (h[t] - mu))^2:
        the stationary term, then the transitions as regression residuals
        plus the slope and mean offsets."""
        m = mu - self.first
        u, w = phi - self.slope, (m - self.lead_mean) - phi * (m - self.lag_mean)
        # products, not ** 2: a float power raises OverflowError where a
        # diverging trajectory's sums need inf
        return (
            (1.0 - phi * phi) * m * m + self.resid_ss + self.lag_ss * (u * u) + (self.n - 1) * (w * w)
        )

    def measurement_ss(self, xi: float) -> float:
        """sum (ln RV - xi - h)^2."""
        d = xi - self.e_mean
        return self.e_ss + self.n * (d * d)


def path_sums(h: np.ndarray, data: ObservedSeries) -> PathSums:
    """The sums V and every parameter draw need, in one pass over h, y and ln RV.

    S overflows to inf where h falls below ln(y^2/2) - 709.
    """
    n = len(h)
    first = float(h[0])
    g = h - first
    # g[0] is 0, so the sum of g is that of g[1:], and g[:-1] lacks g[-1]
    total = float(g.sum())
    m = max(n - 1, 1)
    lag_mean = (total - float(g[-1])) / m
    lead_mean = total / m
    a = g[:-1] - lag_mean
    b = g[1:] - lead_mean
    lag_ss = float(a @ a)
    slope = float(b @ a) / lag_ss if lag_ss > 0.0 else 0.0
    b -= slope * a
    e = data.ln_rv - h
    e_mean = float(e.sum()) / n
    e -= e_mean
    ret = np.subtract(data.ln_half_y2, h, out=g)
    np.exp(ret, out=ret)
    return PathSums(
        n, first + total / n, first, float(h[-1]), lag_mean, lead_mean, lag_ss, slope, float(b @ b),
        e_mean, float(e @ e), float(ret.sum()),
    )


class LatentTarget:
    """The potential V(h) and the force kick at one theta.

    V is the negative log conditional posterior of h, up to an h-independent
    constant:

        V(h) = sum_t [ h_t/2 + (y_t^2/2) e^{-h_t} ]
             + sum_t (ln RV_t - xi - h_t)^2 / (2 sigma_u2)
             + (1 - phi^2)(h_1 - mu)^2 / (2 sigma_eta2)
             + sum_{t<n} (h_{t+1} - mu - phi (h_t - mu))^2 / (2 sigma_eta2)

    Each line is scalar arithmetic on :func:`path_sums`, so V of a path
    follows from the sums the sampler carries with it (``potential_from``).
    The gradient is folded into

        dV/dh = c + A h - exp(ln(y^2/2) - h),

    where c is a per-site vector and A is tridiagonal: off-diagonal
    -phi/sigma_eta2, diagonal 1/sigma_u2 + (1 + phi^2)/sigma_eta2 inside and
    1/sigma_u2 + 1/sigma_eta2 at both ends. ``kick`` is its only
    implementation.

    Built once per theta, it holds the h-independent pieces, scaled once per
    kick coefficient, and scratch buffers reused from call to call; the
    sampler passes it to every HMC update at that theta. Its methods do not
    validate h: the caller passes a float64 path of the series length and
    checks the result for finiteness.
    """

    def __init__(self, theta: ModelParams, data: ObservedSeries):
        self.data = data
        self.phi, self.mu, self.xi = theta.phi, theta.mu, theta.xi
        self.inv_su2 = 1.0 / theta.sigma_u2
        self.inv_se2 = 1.0 / theta.sigma_eta2
        drift = theta.mu * (1.0 - theta.phi)
        # c: every h-independent term of dV/dh
        c = 0.5 - (data.ln_rv - theta.xi) * self.inv_su2
        c[1:] -= drift * self.inv_se2
        c[:-1] += self.phi * drift * self.inv_se2
        c[0] -= (1.0 - theta.phi**2) / theta.sigma_eta2 * self.mu
        self.c = c
        off = -self.phi * self.inv_se2
        self.band = np.array([off, self.inv_su2 + (1.0 + self.phi**2) * self.inv_se2, off])
        # the band's interior diagonal exceeds A's at both ends by this much
        self.end_correction = self.phi**2 * self.inv_se2
        self._scaled: dict[float, tuple] = {}
        self._ret = np.empty(data.n)

    def potential_from(self, s: PathSums) -> float:
        """V of the path whose :func:`path_sums` are ``s``."""
        return (
            0.5 * s.n * s.mean
            + s.ret
            + 0.5 * self.inv_su2 * s.measurement_ss(self.xi)
            + 0.5 * self.inv_se2 * s.transition_ss(self.phi, self.mu)
        )

    def kick(self, h: np.ndarray, p: np.ndarray, s: float) -> None:
        """p -= s dV/dh(h), in place, for a step coefficient s > 0.

        The return term is exp(ln(y^2/2) + ln s - h). It overflows to inf
        below h of about -700, and a path holding inf gives nan; callers
        see either as a non-finite p.
        """
        scaled = self._scaled.get(s)
        if scaled is None:
            scaled = self._scaled[s] = (
                s * self.c, s * self.band, s * self.end_correction,
                self.data.ln_half_y2 + math.log(s),
            )
        c, band, end, ln_ret = scaled
        ret = np.subtract(ln_ret, h, out=self._ret)
        np.exp(ret, out=ret)
        # "full" mode zero-pads both ends, so [1:-1] is s A h with the interior diagonal
        a = np.correlate(h, band, "full")
        a[1] -= end * h[0]
        a[-2] -= end * h[-1]
        f = a[1:-1]
        f += c
        f -= ret
        # one update of p: a reversed trajectory subtracts the same f
        p -= f


def potential(h, theta: ModelParams, data: ObservedSeries) -> float:
    """V(h) through a fresh :class:`LatentTarget`, for a path ``as_path`` accepts."""
    return LatentTarget(theta, data).potential_from(path_sums(as_path(h, data), data))


def grad_potential(h, theta: ModelParams, data: ObservedSeries) -> np.ndarray:
    """dV/dh through a fresh :class:`LatentTarget`, as the kick of a zero
    momentum at s = 1, negated, for a path ``as_path`` accepts."""
    p = np.zeros(data.n)
    LatentTarget(theta, data).kick(as_path(h, data), p, 1.0)
    return np.negative(p, out=p)
