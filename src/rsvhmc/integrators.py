"""Symplectic integrators for the molecular dynamics half of HMC.

Two reversible, volume-preserving schemes:

* second-order leapfrog, splitting exp(dt T/2) exp(dt V) exp(dt T/2),
  one force evaluation per step;
* second-order minimum-norm, splitting
  exp(l dt T) exp(dt V/2) exp((1-2 l) dt T) exp(dt V/2) exp(l dt T)
  with l = DEFAULT_LAMBDA, two force evaluations per step.

T-stages advance positions by momenta, V-stages kick momenta by the
(negative) force: ``kick(h, p, s)`` subtracts s dV/dh from p in place.
A scheme is its name, a key of ``SPLITTINGS``: "2lfi" or "2mni". Its value
is the scheme's table of (drift, kick) stages, after Omelyan, Mryglod &
Folk, Comput. Phys. Commun. 151 (2003) 272.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

# the 2nd-order minimum-norm scheme's lambda, which minimises its error norm
DEFAULT_LAMBDA = 0.193183327

Kick = Callable[[np.ndarray, np.ndarray, float], None]

# bytes in a cache line: on an AVX-512 Xeon (numpy 2.4), a 4000-long add
# whose output starts off this boundary took 2.5-2.8 us, against 1.4 on it
CACHE_LINE = 64


def aligned_empty(n: int) -> np.ndarray:
    """An uninitialised float64 array of length ``n`` whose data starts on a
    cache-line boundary, sliced from a buffer of n + 8. numpy's own
    allocations start at whatever multiple of 16 bytes the heap gives, so
    the speed of a pass writing into one would depend on heap layout."""
    buf = np.empty(n + CACHE_LINE // 8)
    k = (-buf.ctypes.data % CACHE_LINE) // 8
    return buf[k : k + n]


# One step of each scheme, by name, as (drift, kick) stages in units of the
# step size: drift h by drift * dt * p, then kick p by -kick * dt * dV/dh.
# A zero kick costs no force evaluation.
SPLITTINGS = {
    "2lfi": ((0.5, 1.0), (0.5, 0.0)),
    "2mni": (
        (DEFAULT_LAMBDA, 0.5), (1.0 - 2.0 * DEFAULT_LAMBDA, 0.5), (DEFAULT_LAMBDA, 0.0)
    ),
}


@dataclass(frozen=True)
class TrajectoryConfig:
    scheme: str  # a key of SPLITTINGS
    step_size: float
    n_steps: int

    def __post_init__(self):
        if self.scheme not in SPLITTINGS:
            raise ValueError(f"unknown integrator scheme {self.scheme!r}")
        if not (math.isfinite(self.step_size) and self.step_size > 0.0):
            raise ValueError(f"step_size must be finite and > 0, got {self.step_size}")
        n = self.n_steps  # numpy integers pass; floats and bools do not
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"n_steps must be an integer >= 1, got {self.n_steps!r}")

    @property
    def total_length(self) -> float:
        return self.step_size * self.n_steps

    @property
    def stages(self) -> tuple[tuple[float, float], ...]:
        return SPLITTINGS[self.scheme]

    @property
    def force_evals_per_step(self) -> int:
        return sum(1 for _, kick in self.stages if kick)

    def prewarm(self) -> "TrajectoryConfig":
        """A fifth of the step size at the same step count. A rough starting
        path can have uniformly large delta-H at the full step; this short
        trajectory accepts most, so the path can leave that start."""
        return TrajectoryConfig(self.scheme, self.step_size / 5.0, self.n_steps)

    @classmethod
    def from_length(cls, scheme: str, total_length: float, step_size: float) -> "TrajectoryConfig":
        """Fix the total length exactly: n_steps = round(l / dt), dt = l / n_steps."""
        if not all(math.isfinite(v) and v > 0.0 for v in (total_length, step_size)):
            raise ValueError(f"need finite total_length, step_size > 0, got {total_length}, {step_size}")
        n_steps = max(1, round(total_length / step_size))
        return cls(scheme, total_length / n_steps, n_steps)


def integrate(
    h: np.ndarray, p: np.ndarray, cfg: TrajectoryConfig, kick: Kick
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the configured step n_steps times and return the final (h, p).

    ``h`` and ``p`` are left unchanged; the returned pair are fresh float64
    arrays from :func:`aligned_empty`, as is the drift product, so the
    trajectory's in-place updates write on cache-line boundaries. Each stage
    with a non-zero kick calls ``kick(h, p, s)`` with s = kick * step_size,
    which must update p in place and keep neither array.
    """
    n = len(h)
    h1, p1, tmp = aligned_empty(n), aligned_empty(n), aligned_empty(n)
    h1[:], p1[:] = h, p
    h, p = h1, p1
    # drifts are not merged across steps, so n steps equal n one-step calls
    stages = [(drift * cfg.step_size, kick * cfg.step_size) for drift, kick in cfg.stages]
    held = None  # the drift whose product with the current p is in tmp
    for _ in range(cfg.n_steps):
        for drift, s in stages:
            if drift != held:
                np.multiply(drift, p, out=tmp)
            h += tmp
            held = drift
            if s:
                kick(h, p, s)
                held = None
    return h, p
