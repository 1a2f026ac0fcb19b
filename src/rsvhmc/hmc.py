"""HMC transition kernel for the latent path and the full MCMC driver."""

from __future__ import annotations

import hashlib
import json
import math
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import chainio, model
from .gibbs import PriorConfig, gibbs_sweep
from .integrators import TrajectoryConfig, integrate
from .model import PARAM_NAMES, ModelParams, ObservedSeries


@dataclass(frozen=True)
class HmcOutcome:
    h_new: np.ndarray
    sums: model.PathSums  # path_sums(h_new): V under any theta, and the parameter draws
    delta_h: float
    accepted: bool


def hmc_update(
    h: np.ndarray,
    sums: model.PathSums,
    target: model.LatentTarget,
    cfg: TrajectoryConfig,
    rng: np.random.Generator,
) -> HmcOutcome:
    """One HMC update of the latent path at the theta of ``target``.

    ``sums`` is ``path_sums(h, data)``; the outcome carries the sums of the
    path it returns, from one ``path_sums`` of the trajectory's end. V at
    either end is scalar arithmetic on them. Nothing is validated: ``h`` is a
    finite float64 path of the series length. A trajectory that leaves
    float64 range (a non-finite change in H) counts as a divergence: delta_h
    = +inf, rejected. ``h`` is never modified.
    """
    p = rng.standard_normal(len(h))
    # overflow in the return term, and inf - inf further on, only show up as
    # a non-finite delta_h, checked once below
    with np.errstate(over="ignore", invalid="ignore"):
        h1, p1 = integrate(h, p, cfg, target.kick)
        sums1 = model.path_sums(h1, target.data)
        delta_h = target.potential_from(sums1) + 0.5 * float(p1 @ p1) - (
            target.potential_from(sums) + 0.5 * float(p @ p)
        )
    if not math.isfinite(delta_h):
        # a divergence returns before the uniform is drawn
        return HmcOutcome(h, sums, math.inf, False)
    u = rng.uniform()
    if delta_h <= 0.0 or u < math.exp(-delta_h):
        return HmcOutcome(h1, sums1, delta_h, True)
    return HmcOutcome(h, sums, delta_h, False)


def default_init(data: ObservedSeries) -> tuple[ModelParams, np.ndarray]:
    """Starting point: h from the observed log RV, theta from mild defaults."""
    theta = ModelParams(
        phi=0.5,
        mu=float(np.mean(data.ln_rv)),
        xi=0.0,
        sigma_eta2=0.1,
        sigma_u2=0.1,
    )
    return theta, data.ln_rv.copy()


@dataclass
class ChainResult:
    """Kept draws plus run-level statistics.

    ``draws`` maps each draw column's name, ``phi`` ... ``sigma_u2`` in
    ``PARAM_NAMES`` order and then ``h_<i + 1>`` for each recorded index i, to
    its row of one preallocated (5 + len(h_indices), n_keep) array.
    """

    draws: dict[str, np.ndarray]
    delta_h: np.ndarray
    accepted: np.ndarray
    acceptance_rate: float
    n_divergent: int  # trajectories with delta_h = +inf, burn-in included
    final_theta: ModelParams
    final_h: np.ndarray
    wall_time_seconds: float  # summed over every resumed piece of the run


@dataclass(frozen=True)
class GibbsSweep:
    """The move that draws theta from its full conditionals given h."""

    prior: PriorConfig

    def __call__(self, h, sums, theta, rng):
        return h, sums, gibbs_sweep(sums, theta, self.prior, rng)


def iterate(h, sums, theta, target, cfg, moves, rng):
    """One sampler iteration: the HMC update of h at the theta of ``target``, then each move in order."""
    outcome = hmc_update(h, sums, target, cfg, rng)
    h, sums = outcome.h_new, outcome.sums
    for move in moves:
        h, sums, theta = move(h, sums, theta, rng)
    return outcome, h, sums, theta


# burn-in iterations at a fifth of the step and with no moves
_WARM_START = 20


def run_chain(
    data: ObservedSeries,
    init: tuple[ModelParams, np.ndarray],
    cfg: TrajectoryConfig,
    n_burn: int,
    n_keep: int,
    rng: np.random.Generator,
    moves: tuple = (GibbsSweep(PriorConfig()),),
    h_indices: Sequence[int] = (9,),
    checkpoint_path: str | Path | None = None,
    checkpoint_every: int = 5000,
) -> ChainResult:
    """Run the sampler: one ``iterate`` per iteration, recorded once kept.

    Each move is callable as ``(h, sums, theta, rng) -> (h, sums, theta)``;
    the default is one parameter sweep, and with ``moves=()`` theta stays at
    ``init``'s. The target is rebuilt only when theta is a new object.
    The first ``min(20, n_burn)`` iterations are a warm start: the HMC update
    alone, at ``cfg.prewarm()``, with no moves. Without it, a start whose
    first trajectory is rejected hands the sweep zero measurement residuals
    (``default_init`` sets h = ln RV); sigma_u2 then falls near 0 and puts
    every later trajectory past the integrator's stability limit.

    Records theta, delta_h, the accept flag and the selected h components for
    every kept iteration, and counts the divergent trajectories of every
    iteration, the warm start's included. With
    ``checkpoint_path``, the state is saved there every ``checkpoint_every``
    iterations, and a run that finds that file continues from it; a file
    unreadable or written for other data, settings or seed is refused and kept.
    """
    if n_burn < 0 or n_keep < 1:
        raise ValueError("need n_burn >= 0 and n_keep >= 1")
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    if moves and data.n < 2:  # before the warm start writes a checkpoint
        raise ValueError(f"the parameter sweep needs n >= 2, got {data.n}")
    theta, h = init
    h = model.as_path(h, data)
    h_indices = tuple(int(i) for i in h_indices)
    # the one place the draw columns are named
    names = (*PARAM_NAMES, *(f"h_{i + 1}" for i in h_indices))
    n_par = len(PARAM_NAMES)
    for i, name in zip(h_indices, names[n_par:]):
        if not 0 <= i < data.n:
            raise ValueError(f"recorded h index {i} (column {name}) out of range for n={data.n}")
        if names.count(name) > 1:
            raise ValueError(f"recorded h index {i} (column {name}) given twice")

    draws = np.empty((len(names), n_keep))
    delta_h = np.empty(n_keep)
    accepted = np.empty(n_keep, dtype=bool)
    records = {"draws": draws, "delta_h": delta_h, "accepted": accepted}
    fingerprint = _fingerprint(
        data, init, cfg, n_burn, n_keep, moves, h_indices, rng.bit_generator.state
    )
    start, n_accept, n_divergent, elapsed = 0, 0, 0, 0.0
    if checkpoint_path is not None and Path(checkpoint_path).exists():
        state, saved = _load_checkpoint(Path(checkpoint_path), fingerprint)
        start, n_accept, n_divergent = state["iteration"], state["n_accept"], state["n_divergent"]
        theta, h = ModelParams(**state["theta"]), saved["h"].copy()
        rng.bit_generator.state = state["rng"]
        elapsed = float(saved["elapsed"])
        filled = max(0, start - n_burn)
        for name, arr in records.items():
            arr[..., :filled] = saved[name]

    t0 = time.perf_counter()
    h_at = np.array(h_indices, dtype=np.intp)
    total = n_burn + n_keep
    # the path carries its sums: they give V under each new theta and feed the moves
    sums = model.path_sums(h, data)
    # the warm start goes by iteration, so a resumed run replays it
    n_warm = min(_WARM_START, n_burn)
    warm_cfg = cfg.prewarm()
    built_for = None
    for it in range(start, total):
        if theta is not built_for:
            target, built_for = model.LatentTarget(theta, data), theta
        step = (warm_cfg, ()) if it < n_warm else (cfg, moves)
        outcome, h, sums, theta = iterate(h, sums, theta, target, *step, rng)
        n_accept += int(outcome.accepted)
        n_divergent += outcome.delta_h == math.inf
        if it >= n_burn:
            k = it - n_burn
            # in PARAM_NAMES order; a tuple of attributes is the cheapest per-draw write
            draws[:n_par, k] = (theta.phi, theta.mu, theta.xi, theta.sigma_eta2, theta.sigma_u2)
            draws[n_par:, k] = h[h_at]
            delta_h[k] = outcome.delta_h
            accepted[k] = outcome.accepted
        if checkpoint_path is not None and (it + 1) % checkpoint_every == 0:
            filled = max(0, it + 1 - n_burn)
            save_checkpoint(
                Path(checkpoint_path),
                {
                    "fingerprint": fingerprint,
                    "iteration": it + 1,
                    "n_accept": n_accept,
                    "n_divergent": n_divergent,
                    "theta": theta.as_dict(),
                    "rng": rng.bit_generator.state,
                },
                h=h,
                elapsed=np.float64(elapsed + time.perf_counter() - t0),
                **{name: arr[..., :filled] for name, arr in records.items()},
            )

    return ChainResult(
        draws=dict(zip(names, draws)),
        delta_h=delta_h,
        accepted=accepted,
        acceptance_rate=n_accept / total,
        n_divergent=n_divergent,
        final_theta=theta,
        final_h=h,
        wall_time_seconds=elapsed + time.perf_counter() - t0,
    )


def _fingerprint(data, init, cfg, n_burn, n_keep, moves, h_indices, rng_state) -> str:
    """sha256 of everything that determines the chain, the starting rng state included."""
    digest = hashlib.sha256()
    for arr in (data.y, data.ln_rv, init[1]):
        digest.update(np.asarray(arr, dtype=np.float64).tobytes())
    settings = (init[0], cfg, n_burn, n_keep, moves, h_indices, rng_state)
    digest.update(repr(settings).encode())
    return digest.hexdigest()


def save_checkpoint(path: Path, state: dict, **arrays: np.ndarray) -> None:
    """Write ``state`` as JSON plus ``arrays`` to one .npz at ``path``, creating its directory."""
    with chainio.atomic_write(path, "wb") as fh:
        np.savez(fh, state=np.array(json.dumps(state)), **arrays)


def _load_checkpoint(path: Path, fingerprint: str) -> tuple[dict, dict[str, np.ndarray]]:
    start_over = "delete it, or choose another output path, to start over"
    try:
        with np.load(path, allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
        state = json.loads(str(arrays.pop("state")))
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        # numpy refuses pickled data with advice to unpickle it, which this program never does
        reason = "it holds pickled data, which is never loaded" if "pickle" in str(exc) else exc
        raise ValueError(f"cannot resume: {path} is not a readable chain checkpoint ({reason}); {start_over}") from exc
    if not isinstance(state, dict) or state.get("fingerprint") != fingerprint:
        raise ValueError(f"cannot resume: {path} was written for other data, settings or seed; {start_over}")
    return state, arrays
