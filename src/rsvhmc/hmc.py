"""HMC transition kernel for the latent path and the full MCMC driver."""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import model
from .gibbs import PriorConfig, gibbs_sweep
from .integrators import TrajectoryConfig, integrate
from .model import ModelParams, ObservedSeries, PhaseState

PARAM_NAMES = ("phi", "mu", "xi", "sigma_eta2", "sigma_u2")


@dataclass(frozen=True)
class HmcOutcome:
    h_new: np.ndarray
    delta_h: float
    accepted: bool


def hmc_update(
    h: np.ndarray,
    theta: ModelParams,
    data: ObservedSeries,
    cfg: TrajectoryConfig,
    rng: np.random.Generator,
) -> HmcOutcome:
    """One HMC update of the latent path: refresh momenta, integrate, accept/reject.

    A trajectory that leaves float64 range (a non-finite change in H) counts
    as a divergence: delta_h = +inf, rejected. ``h`` is never modified.
    """
    h = model._as_path(h)
    model._check_match(h, data)
    p = rng.standard_normal(len(h))
    target = model.LatentTarget(theta, data)
    g = np.empty(len(h))
    # overflow only shows up as a non-finite delta_h, checked once below
    with np.errstate(over="ignore", invalid="ignore"):
        h0 = target.potential(h) + 0.5 * float(p @ p)
        end = integrate(PhaseState(h, p), cfg, lambda x: target.grad_into(x, g))
        delta_h = target.potential(end.h) + 0.5 * float(end.p @ end.p) - h0
    if not math.isfinite(delta_h):
        # a divergence returns before the uniform is drawn
        return HmcOutcome(h, math.inf, False)
    u = rng.uniform()
    if delta_h <= 0.0 or u < math.exp(-delta_h):
        return HmcOutcome(end.h, delta_h, True)
    return HmcOutcome(h, delta_h, False)


def default_init(
    data: ObservedSeries, theta: ModelParams | None = None
) -> tuple[ModelParams, np.ndarray]:
    """Starting point: h from the observed log RV, theta from mild defaults."""
    if theta is None:
        theta = ModelParams(
            phi=0.5,
            mu=float(np.mean(data.ln_rv)),
            xi=0.0,
            sigma_eta2=0.1,
            sigma_u2=0.1,
        )
    h0 = data.ln_rv.copy()
    return theta, h0


@dataclass
class ChainResult:
    """Kept draws plus run-level statistics."""

    params: dict[str, np.ndarray]
    h_samples: np.ndarray  # shape (n_keep, len(h_indices))
    h_indices: tuple[int, ...]
    delta_h: np.ndarray
    accepted: np.ndarray
    acceptance_rate: float
    final_theta: ModelParams
    final_h: np.ndarray
    seed: int | None = None

    def columns(self) -> dict[str, np.ndarray]:
        cols = dict(self.params)
        for j, idx in enumerate(self.h_indices):
            cols[f"h_{idx + 1}"] = self.h_samples[:, j]
        return cols


class SinkError(RuntimeError):
    """A chain recorder failed; a checkpoint was written if configured."""

    def __init__(self, message: str, checkpoint: Path | None = None):
        super().__init__(message)
        self.checkpoint = checkpoint


@dataclass
class _ChainState:
    iteration: int  # completed iterations (burn + kept)
    theta: ModelParams
    h: np.ndarray
    rng_state: dict
    kept: list


def run_chain(
    data: ObservedSeries,
    init: tuple[ModelParams, np.ndarray],
    cfg: TrajectoryConfig,
    n_burn: int,
    n_keep: int,
    rng: np.random.Generator,
    prior: PriorConfig | None = None,
    h_indices: Sequence[int] = (9,),
    update_params: bool = True,
    sink: Callable[[dict], None] | None = None,
    checkpoint_path: str | Path | None = None,
    checkpoint_every: int = 5000,
    resume_from: "_ChainState | None" = None,
    seed: int | None = None,
) -> ChainResult:
    """Run the full sampler: one HMC path update plus one parameter sweep per iteration.

    Records theta, delta_h, the accept flag and the selected h components for
    every kept iteration. ``sink``, when given, receives each kept row as a
    dict; a sink failure aborts with a checkpoint for resumption.
    """
    if n_burn < 0 or n_keep < 1:
        raise ValueError("need n_burn >= 0 and n_keep >= 1")
    if prior is None:
        prior = PriorConfig()
    theta, h = init
    h = np.asarray(h, dtype=np.float64).copy()
    h_indices = tuple(int(i) for i in h_indices)
    for i in h_indices:
        if not 0 <= i < data.n:
            raise ValueError(f"recorded h index {i} out of range for n={data.n}")

    kept: list = []
    start_iter = 0
    if resume_from is not None:
        theta, h = resume_from.theta, resume_from.h.copy()
        rng.bit_generator.state = resume_from.rng_state
        kept = list(resume_from.kept)
        start_iter = resume_from.iteration

    total = n_burn + n_keep
    n_accept = 0
    n_attempt = 0
    for it in range(start_iter, total):
        outcome = hmc_update(h, theta, data, cfg, rng)
        h = outcome.h_new
        n_attempt += 1
        n_accept += int(outcome.accepted)
        if update_params:
            theta = gibbs_sweep(h, theta, data, prior, rng)
        if it >= n_burn:
            row = {
                "iteration": it - n_burn,
                "phi": theta.phi,
                "mu": theta.mu,
                "xi": theta.xi,
                "sigma_eta2": theta.sigma_eta2,
                "sigma_u2": theta.sigma_u2,
                "delta_h": outcome.delta_h,
                "accepted": int(outcome.accepted),
            }
            for idx in h_indices:
                row[f"h_{idx + 1}"] = h[idx]
            kept.append(row)
            if sink is not None:
                try:
                    sink(row)
                except Exception as exc:
                    ckpt = None
                    if checkpoint_path is not None:
                        ckpt = Path(checkpoint_path)
                        save_checkpoint(ckpt, _ChainState(it + 1, theta, h, rng.bit_generator.state, kept))
                    raise SinkError(f"chain recorder failed at iteration {it}: {exc}", ckpt) from exc
        if checkpoint_path is not None and (it + 1) % checkpoint_every == 0:
            save_checkpoint(
                Path(checkpoint_path),
                _ChainState(it + 1, theta, h, rng.bit_generator.state, kept),
            )

    params = {name: np.array([row[name] for row in kept]) for name in PARAM_NAMES}
    h_samples = np.array(
        [[row[f"h_{idx + 1}"] for idx in h_indices] for row in kept]
    ).reshape(len(kept), len(h_indices))
    return ChainResult(
        params=params,
        h_samples=h_samples,
        h_indices=h_indices,
        delta_h=np.array([row["delta_h"] for row in kept]),
        accepted=np.array([row["accepted"] for row in kept], dtype=bool),
        acceptance_rate=n_accept / max(1, n_attempt),
        final_theta=theta,
        final_h=h,
        seed=seed,
    )


def save_checkpoint(path: Path, state: _ChainState):
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        pickle.dump(state, fh)
    tmp.replace(path)


def load_checkpoint(path: str | Path) -> _ChainState:
    with open(path, "rb") as fh:
        state = pickle.load(fh)
    if not isinstance(state, _ChainState):
        raise ValueError(f"{path} is not a chain checkpoint")
    return state
