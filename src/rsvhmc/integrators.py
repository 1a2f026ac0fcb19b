"""Symplectic integrators for the molecular dynamics half of HMC.

Two reversible, volume-preserving schemes:

* second-order leapfrog, splitting exp(dt T/2) exp(dt V) exp(dt T/2),
  one force evaluation per step;
* second-order minimum-norm, splitting
  exp(lam dt T) exp(dt V/2) exp((1-2 lam) dt T) exp(dt V/2) exp(lam dt T),
  two force evaluations per step.

T-stages advance positions by momenta, V-stages kick momenta by the
(negative) force. The force evaluator returns dV/dh, so kicks subtract.
Each scheme is a table of (drift, kick) stages, after Omelyan, Mryglod &
Folk, Comput. Phys. Commun. 151 (2003) 272.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import PhaseState

# near-optimal error constant for the 2nd-order minimum-norm scheme
DEFAULT_LAMBDA = 0.193183327

Force = Callable[[np.ndarray], np.ndarray]


class Scheme(enum.Enum):
    LEAPFROG2 = "2lfi"
    MINIMUM_NORM2 = "2mni"

    @classmethod
    def parse(cls, name: str) -> "Scheme":
        key = name.strip().lower()
        aliases = {
            "2lfi": cls.LEAPFROG2,
            "leapfrog": cls.LEAPFROG2,
            "leapfrog2": cls.LEAPFROG2,
            "2mni": cls.MINIMUM_NORM2,
            "minimum_norm": cls.MINIMUM_NORM2,
            "minimum_norm2": cls.MINIMUM_NORM2,
        }
        if key not in aliases:
            raise ValueError(f"unknown integrator scheme {name!r}")
        return aliases[key]


# One step of each scheme as (drift, kick) stages in units of the step size,
# given lambda: drift h by drift * dt * p, then kick p by kick * dt * force.
# A zero kick costs no force evaluation.
SPLITTINGS = {
    Scheme.LEAPFROG2: lambda lam: ((0.5, 1.0), (0.5, 0.0)),
    Scheme.MINIMUM_NORM2: lambda lam: ((lam, 0.5), (1.0 - 2.0 * lam, 0.5), (lam, 0.0)),
}


@dataclass(frozen=True)
class TrajectoryConfig:
    scheme: Scheme
    step_size: float
    n_steps: int
    lam: float = DEFAULT_LAMBDA

    def __post_init__(self):
        if not (math.isfinite(self.step_size) and self.step_size > 0.0):
            raise ValueError(f"step_size must be finite and > 0, got {self.step_size}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.scheme is Scheme.MINIMUM_NORM2 and not (0.0 < self.lam < 0.5):
            raise ValueError(f"lambda must lie in (0, 0.5), got {self.lam}")

    @property
    def total_length(self) -> float:
        return self.step_size * self.n_steps

    @property
    def stages(self) -> tuple[tuple[float, float], ...]:
        return SPLITTINGS[self.scheme](self.lam)

    @property
    def force_evals_per_step(self) -> int:
        return sum(1 for _, kick in self.stages if kick)

    @classmethod
    def from_length(
        cls,
        scheme: Scheme,
        total_length: float,
        step_size: float,
        lam: float = DEFAULT_LAMBDA,
    ) -> "TrajectoryConfig":
        """Fix the total length exactly: n_steps = round(l / dt), dt = l / n_steps."""
        if not all(math.isfinite(v) and v > 0.0 for v in (total_length, step_size)):
            raise ValueError(f"need finite total_length, step_size > 0, got {total_length}, {step_size}")
        n_steps = max(1, round(total_length / step_size))
        return cls(scheme, total_length / n_steps, n_steps, lam)


def integrate(state: PhaseState, cfg: TrajectoryConfig, force: Force) -> PhaseState:
    """Apply the configured step n_steps times and return the final state.

    ``state`` is left unchanged. ``force`` may return a buffer it reuses, but
    must not keep the position array it is given.
    """
    h, p = state.h.copy(), state.p.copy()
    tmp = np.empty_like(h)
    # drifts are not merged across steps, so n steps equal n one-step calls
    stages = [(drift * cfg.step_size, kick * cfg.step_size) for drift, kick in cfg.stages]
    held = None  # the drift whose product with the current p is in tmp
    for _ in range(cfg.n_steps):
        for drift, kick in stages:
            if drift != held:
                np.multiply(drift, p, out=tmp)
            h += tmp
            held = drift
            if kick:
                p -= np.multiply(kick, force(h), out=tmp)
                held = None
    return PhaseState(h, p)
