"""Chain analysis: autocorrelation, integrated autocorrelation time,
posterior summaries, delta-H statistics, and the step-size efficiency scan."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# hmc_update is not called here; perfbench's WRAPPED looks it up in traced runs
from .hmc import hmc_update, run_chain  # noqa: F401
from .integrators import TrajectoryConfig
from .model import ModelParams, ObservedSeries


@dataclass(frozen=True)
class ActEstimate:
    two_tau_int: float
    error: float
    window: int
    ess: float  # effective sample size n / two_tau_int


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
    A constant series, or one whose C(0) underflows, is a "degenerate column".
    """
    x = np.asarray(series, dtype=np.float64)
    n = len(x)
    if max_lag < 1 or n <= max_lag:
        raise ValueError(f"need len(series) > max_lag >= 1, got {n}, {max_lag}")
    if not np.isfinite(x).all():
        raise ValueError("series has non-finite values (nan or inf)")
    d = x - np.mean(x)
    c0 = float(np.mean(d * d))
    # constancy is read off the values: when a constant series' mean rounds, c0 > 0
    if c0 <= 0.0 or x.min() == x.max():
        raise ValueError("degenerate column")
    # every lag's sum_i d_i d_{i+t} at once from the power spectrum; zero-padding
    # to at least n + max_lag keeps the circular correlation from wrapping those
    # lags around
    m = _fft_length(n + max_lag)
    f = np.fft.rfft(d, m)
    lag_sums = np.fft.irfft(f.real**2 + f.imag**2, m)[: max_lag + 1]
    rho = lag_sums / ((n - np.arange(max_lag + 1)) * c0)
    rho[0] = 1.0
    return rho


def _fft_length(m: int) -> int:
    """Smallest 2^a 3^b 5^c >= m: numpy's FFT is many times slower on a
    length with a large prime factor."""
    odd = (3**i * 5**j for i in range(m.bit_length()) for j in range(m.bit_length()))
    # each odd part times the smallest power of two that reaches m
    return min(p << (-(-m // p) - 1).bit_length() for p in odd)


def integrated_act(series) -> ActEstimate:
    """Integrated autocorrelation time 2*tau_int = 1 + 2 sum_{t>=1} ACF(t).

    Geyer's initial monotone sequence (Stat. Sci. 7 (1992) 473): the pair
    sums Gamma_k = ACF(2k) + ACF(2k+1) are summed up to the first one <= 0,
    each replaced by the least of those before it, and 2*tau_int =
    2 sum Gamma_k - 1; the window W = 2k - 1 is the last lag summed. The
    error is Madras & Sokal's 2*tau_int * sqrt(2 (2W + 1) / n) (J. Stat.
    Phys. 50 (1988) 109). A series is refused when its pair sums stay
    positive up to lag n/2, when the estimate is not positive, or when it
    holds fewer than 20 effective samples (n < 20 * 2*tau_int).
    """
    x = np.asarray(series, dtype=np.float64)
    n = len(x)
    if n < 100:
        raise ValueError(f"need at least 100 samples, got {n}")
    rho = acf(x, n // 2)
    pairs = rho[: len(rho) // 2 * 2].reshape(-1, 2).sum(axis=1)
    # the first pair sum <= 0 ends the sequence; argmax gives 0 when none is
    k = int(np.argmax(pairs <= 0.0))
    if pairs[k] > 0.0:
        raise ValueError(
            f"pair sums stay positive up to lag {n // 2}; series too short "
            "for its correlation length"
        )
    estimate = 2.0 * float(np.sum(np.minimum.accumulate(pairs[:k]))) - 1.0
    if estimate <= 0.0:
        raise ValueError(f"2 tau_int estimate {estimate:.3g} is not positive")
    if n < 20.0 * estimate:
        raise ValueError(
            f"{n} samples are fewer than 20 per 2 tau_int ({estimate:.1f}); "
            "series too short for its correlation length"
        )
    window = 2 * k - 1
    err = estimate * math.sqrt(2.0 * (2 * window + 1) / n)
    return ActEstimate(two_tau_int=estimate, error=err, window=window, ess=n / estimate)


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
    column whose ACT cannot be estimated gets the refusing check's message as a
    note instead (mean and sd read nan for fewer than 2 values or nan/inf)."""
    out = []
    for name, col in columns.items():
        col = np.asarray(col, dtype=np.float64)
        act, mean, sd = None, math.nan, math.nan
        try:
            # the sd of fewer than 2 values, and the moments of a series
            # holding nan or inf, are undefined (and warn)
            if len(col) < 2:
                raise ValueError(f"need at least 2 samples, got {len(col)}")
            if not np.isfinite(col).all():
                raise ValueError("series has non-finite values (nan or inf)")
            mean = float(np.mean(col))
            sd = float(np.std(col, ddof=1))
            act, note = integrated_act(col), ""
        except ValueError as exc:
            note = str(exc)
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
    n_warm)`` pre-warm trajectories at the ``prewarm()`` config of the grid's
    smallest step size (a fifth of it, with its step count), then ``n_warm``
    at that step size, which accepts most. Each grid point, in the given
    order, then runs only its ``n_traj`` measured trajectories. Each phase is a ``run_chain`` at fixed theta
    (``prior=None``) that starts from the previous phase's final path.
    """
    grid = [float(g) for g in grid]
    if not grid:
        raise ValueError("grid must be non-empty")
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if n_warm < 0:
        raise ValueError(f"n_warm must be >= 0, got {n_warm}")
    h = data.ln_rv if h0 is None else h0
    rng = np.random.default_rng(seed)
    cfgs = [TrajectoryConfig.from_length(scheme, total_length, dt) for dt in grid]
    # warm at the smallest step (the first on a tie), which accepts most, so
    # an oversized step anywhere in the grid cannot stall the warm-up
    warm = min(cfgs, key=lambda c: c.step_size)
    # (config, trajectories) in the order run; the two warm-up phases come first
    phases = [(warm.prewarm(), min(100, n_warm)), (warm, n_warm), *((cfg, n_traj) for cfg in cfgs)]
    rows = []
    warnings = []
    for k, (cfg, count) in enumerate(phases):
        if count == 0:
            continue
        res = run_chain(data, (theta, h), cfg, 0, count, rng, prior=None, h_indices=())
        h = res.final_h
        if k < 2:
            continue
        p = res.acceptance_rate
        finite = res.delta_h[np.isfinite(res.delta_h)]
        if res.n_divergent:
            warnings.append(
                f"step_size={cfg.step_size:.6g}: {res.n_divergent} of {n_traj} trajectories diverged"
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
        warn = _acceptance_trend_warning(res.accepted, cfg.step_size)
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
