"""Chain analysis: autocorrelation, integrated autocorrelation time,
posterior summaries, delta-H statistics, and the step-size efficiency scan."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .hmc import default_init, hmc_update
from .integrators import TrajectoryConfig
from .model import ModelParams, ObservedSeries


# Sokal's window closes at the first lag W >= WINDOW_FACTOR * 2 tau_int(W)
WINDOW_FACTOR = 5.0
# leave-one-bin-out jackknife bins for the error of 2 tau_int
N_BINS = 20


class DegenerateSeriesError(ValueError):
    """Series has zero variance; autocorrelation is undefined."""


@dataclass(frozen=True)
class ActEstimate:
    two_tau_int: float
    error: float
    window: int


@dataclass(frozen=True)
class ScanRow:
    step_size: float
    n_steps: int
    acceptance: float
    rms_dh: float
    efficiency: float  # acceptance * step_size


@dataclass(frozen=True)
class ScanResult:
    rows: tuple[ScanRow, ...]
    optimum: ScanRow
    force_evals_per_step: int
    warnings: tuple[str, ...] = ()


def acf(series, max_lag: int) -> np.ndarray:
    """Sample autocorrelation function at lags 0..max_lag.

    C(t) = (1/(N-t)) sum_i (x_i - xbar)(x_{i+t} - xbar), normalized by C(0).
    """
    x = np.asarray(series, dtype=np.float64)
    n = len(x)
    if max_lag < 1 or n <= max_lag:
        raise ValueError(f"need len(series) > max_lag >= 1, got {n}, {max_lag}")
    if not np.isfinite(x).all():
        raise ValueError("series has non-finite values (nan or inf)")
    d = x - np.mean(x)
    c0 = float(np.mean(d * d))
    if c0 <= 0.0:
        raise DegenerateSeriesError("series has zero variance")
    rho = _lag_sums(d, max_lag) / ((n - np.arange(max_lag + 1)) * c0)
    rho[0] = 1.0
    return rho


def _lag_sums(d: np.ndarray, max_lag: int) -> np.ndarray:
    """sum_i d[..., i] d[..., i + t] for t = 0..max_lag, along the last axis."""
    # every lag at once from the power spectrum; zero-padding to at least
    # len + max_lag keeps the circular correlation from wrapping those lags around
    m = _fft_length(d.shape[-1] + max_lag)
    f = np.fft.rfft(d, m)
    return np.fft.irfft(f.real**2 + f.imag**2, m)[..., : max_lag + 1]


def _fft_length(m: int) -> int:
    """Smallest 2^a 3^b 5^c >= m: numpy's FFT is many times slower on a
    length with a large prime factor."""
    odd = (3**i * 5**j for i in range(m.bit_length()) for j in range(m.bit_length()))
    # each odd part times the smallest power of two that reaches m
    return min(p << (-(-m // p) - 1).bit_length() for p in odd)


def integrated_act(series) -> ActEstimate:
    """Integrated autocorrelation time 2*tau_int = 1 + 2 sum_{t<=W} ACF(t).

    The window W is the smallest lag with W >= WINDOW_FACTOR * running
    estimate (Madras & Sokal, J. Stat. Phys. 50 (1988) 109); the error is a
    jackknife over N_BINS leave-one-bin-out re-estimates at the same window.
    """
    x = np.asarray(series, dtype=np.float64)
    n = len(x)
    if n < 100:
        raise ValueError(f"need at least 100 samples, got {n}")
    rho = acf(x, n // 2)
    # running[t] = 1 + 2 (rho(1) + ... + rho(t)), as rho(0) = 1
    running = 2.0 * np.cumsum(rho) - 1.0
    # the first lag that closes the window; lag 0 never does, so 0 means none
    window = int(np.argmax(np.arange(len(rho)) >= WINDOW_FACTOR * running))
    if window == 0:
        raise ValueError(
            f"no self-consistent window up to lag {n // 2}; series too short "
            "for its correlation length"
        )
    estimate = float(running[window])

    bin_len = n // N_BINS
    if bin_len < window:
        raise ValueError(
            f"bin length {bin_len} shorter than window {window}; "
            "series too short for a jackknife error"
        )
    reps = _jackknife_reps(x, rho, window)
    err = math.sqrt((N_BINS - 1) * float(np.var(reps)))
    return ActEstimate(two_tau_int=estimate, error=err, window=window)


def _jackknife_reps(x: np.ndarray, rho: np.ndarray, window: int) -> np.ndarray:
    """2 tau_int at ``window`` of the series with each of N_BINS bins left out.

    ``rho`` is the full series' ACF up to at least ``window``. Each replicate's
    lag sums are downdated from the full series' ones: for a bin [s, e) and
    lags t <= window <= bin length, every pair with an end in the bin lies in
    the neighbourhood z[s-W : e+W], and every new pair across the closed gap
    in the joined margins z[s-W : s] ++ z[e : e+W]. Pairs inside one margin are
    in both, so kept = full - neighbourhood + joined. Cumulative sums then
    re-centre each replicate on its own mean. Every array is O(bin length)
    per bin.
    """
    n, w = len(x), window
    bin_len = n // N_BINS
    z = x - np.mean(x)
    t = np.arange(w + 1)
    starts = bin_len * np.arange(N_BINS)
    ends = starts + bin_len
    lo, hi = np.maximum(starts - w, 0), np.minimum(ends + w, n)
    near = np.zeros((N_BINS, bin_len + 2 * w))
    joined = np.zeros((N_BINS, 2 * w))
    for b, (a, s, e, c) in enumerate(zip(lo, starts, ends, hi)):
        near[b, : c - a] = z[a:c]
        joined[b, : s - a] = z[a:s]
        joined[b, s - a : s - a + c - e] = z[e:c]
    full = rho[: w + 1] * ((n - t) * float(np.mean(z * z)))
    sums = full - _lag_sums(near, w) + _lag_sums(joined, w)

    # re-centre: the kept values' total, and the sums of their first and last t
    m = n - bin_len
    csum = np.concatenate(([0.0], np.cumsum(z)))
    s, e = starts[:, None], ends[:, None]
    after = n - e
    total = csum[s] + csum[n] - csum[e]
    head = csum[np.minimum(t, s)] + csum[e + np.maximum(t - s, 0)] - csum[e]
    tail = csum[n] - csum[n - np.minimum(t, after)] + csum[s] - csum[s - np.maximum(t - after, 0)]
    mean = total / m
    sums += mean * (head + tail - 2.0 * total) + (m - t) * mean**2
    # a replicate variance within rounding of zero is a constant kept series
    if np.any(sums[:, 0] <= 1e-12 * full[0]):
        raise DegenerateSeriesError("a jackknife replicate has zero variance")
    rho_reps = sums / ((m - t) * (sums[:, :1] / m))
    return 2.0 * rho_reps.sum(axis=1) - 1.0


def rms_dh(dh_samples) -> float:
    """Root mean square of the Hamiltonian violations."""
    dh = np.asarray(dh_samples, dtype=np.float64)
    if len(dh) == 0:
        raise ValueError("need at least one sample")
    return math.sqrt(float(np.mean(dh**2)))


@dataclass(frozen=True)
class ParamSummary:
    name: str
    mean: float
    sd: float
    act: ActEstimate | None
    note: str = ""


def posterior_summary(columns: dict[str, np.ndarray]) -> list[ParamSummary]:
    """Mean, standard deviation (n-1 denominator) and ACT per chain column; a
    column whose ACT cannot be estimated gets a note instead."""
    out = []
    for name, col in columns.items():
        col = np.asarray(col, dtype=np.float64)
        if len(col) < 2 or not np.isfinite(col).all():
            # the sd of fewer than 2 values, and the moments of a series
            # holding nan or inf, are undefined (and warn)
            if len(col) < 2:
                note = f"need at least 2 samples, got {len(col)}"
            else:
                note = "series has non-finite values (nan or inf)"
            out.append(ParamSummary(name=name, mean=math.nan, sd=math.nan, act=None, note=note))
            continue
        mean = float(np.mean(col))
        sd = float(np.std(col, ddof=1))
        try:
            act = integrated_act(col)
            note = ""
        except DegenerateSeriesError:
            act, note = None, "degenerate column"
        except ValueError as exc:
            act, note = None, str(exc)
        out.append(ParamSummary(name=name, mean=mean, sd=sd, act=act, note=note))
    return out


def stepsize_scan(
    data: ObservedSeries,
    theta: ModelParams,
    scheme: str,
    grid,
    total_length: float = 2.0,
    n_traj: int = 2000,
    n_warm: int = 500,
    seed: int = 0,
    h0: np.ndarray | None = None,
) -> ScanResult:
    """Acceptance, RMS delta-H and efficiency over a grid of step sizes.

    At fixed theta the target does not depend on the step size, so the
    chain is warmed once, before the first measured point: ``min(100,
    n_warm)`` pre-warm trajectories at a fifth of the grid's smallest step
    size, then ``n_warm`` at that step size, which accepts most. Each grid
    point, in the given order, then runs only its ``n_traj`` measured
    trajectories; the latent path and its sums carry over between
    trajectories and grid points.
    """
    grid = [float(g) for g in grid]
    if not grid:
        raise ValueError("grid must be non-empty")
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if n_warm < 0:
        raise ValueError(f"n_warm must be >= 0, got {n_warm}")
    h = model.as_path(default_init(data)[1] if h0 is None else h0, data)
    rng = np.random.default_rng(seed)
    cfgs = [TrajectoryConfig.from_length(scheme, total_length, dt) for dt in grid]
    target = model.LatentTarget(theta, data)
    sums = model.path_sums(h, data)
    # warm at the smallest step (the first on a tie), which accepts most, so
    # an oversized step anywhere in the grid cannot stall the warm-up
    warm = min(cfgs, key=lambda c: c.step_size)
    # short pre-warm at a fifth of the step size: a rough starting path can
    # have uniformly large delta-H at the target step, stalling the warm-up
    pre_cfg = TrajectoryConfig(scheme, warm.step_size / 5.0, warm.n_steps)
    for _ in range(min(100, n_warm)):
        out = hmc_update(h, sums, target, pre_cfg, rng)
        h, sums = out.h_new, out.sums
    for _ in range(n_warm):
        out = hmc_update(h, sums, target, warm, rng)
        h, sums = out.h_new, out.sums
    rows = []
    warnings = []
    for cfg in cfgs:
        dh = np.empty(n_traj)
        acc = np.empty(n_traj, dtype=bool)
        for i in range(n_traj):
            out = hmc_update(h, sums, target, cfg, rng)
            h, sums = out.h_new, out.sums
            dh[i] = out.delta_h
            acc[i] = out.accepted
        p = float(np.mean(acc))
        finite = dh[np.isfinite(dh)]
        if len(finite) < len(dh):
            warnings.append(
                f"step_size={cfg.step_size:.6g}: {len(dh) - len(finite)} "
                "trajectories left float64 range (counted as rejections)"
            )
        rows.append(
            ScanRow(
                step_size=cfg.step_size,
                n_steps=cfg.n_steps,
                acceptance=p,
                rms_dh=rms_dh(finite) if len(finite) else math.inf,
                efficiency=p * cfg.step_size,
            )
        )
        warn = _acceptance_trend_warning(acc, cfg.step_size)
        if warn:
            warnings.append(warn)
    optimum = max(rows, key=lambda r: r.efficiency)
    return ScanResult(
        rows=tuple(rows),
        optimum=optimum,
        force_evals_per_step=cfgs[0].force_evals_per_step,
        warnings=tuple(warnings),
    )


def _acceptance_trend_warning(acc: np.ndarray, step_size: float) -> str | None:
    """Flag a drifting acceptance rate (sign of unfinished warm-up)."""
    m = len(acc) // 2
    if m < 50:
        return None
    p1, p2 = float(np.mean(acc[:m])), float(np.mean(acc[m:]))
    p = (p1 + p2) / 2.0
    se = math.sqrt(max(p * (1.0 - p), 1e-12) * 2.0 / m)
    if abs(p1 - p2) > 4.0 * se:
        return (
            f"step_size={step_size:.6g}: acceptance drifted from {p1:.3f} to "
            f"{p2:.3f}; warm-up may be insufficient"
        )
    return None
