"""Realized volatility construction from intraday data.

Daily RV is the sum of squared grid-sampled intraday log returns, with
previous-tick interpolation onto a regular grid anchored at the session
open. The Hansen-Lunde factor c rescales average RV to the sample
variance of the daily returns; if the model's bias term explains the same
distortion, xi = -log(c).
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

COVERAGE_THRESHOLD = 0.5


class RvError(ValueError):
    pass


@dataclass(frozen=True)
class IntradayDay:
    """One trading day of time-ordered (timestamp, log-price) observations."""

    date: dt.date
    timestamps: np.ndarray  # seconds, monotone increasing
    log_prices: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.float64)
        lp = np.asarray(self.log_prices, dtype=np.float64)
        if len(ts) != len(lp):
            raise RvError(f"{self.date}: timestamp/price length mismatch")
        if len(ts) < 2:
            raise RvError(f"{self.date}: need at least 2 observations")
        if np.any(np.diff(ts) <= 0.0):
            raise RvError(f"{self.date}: timestamps must be strictly increasing")
        if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(lp))):
            raise RvError(f"{self.date}: non-finite tick data")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "log_prices", lp)


@dataclass(frozen=True)
class RvSeries:
    dates: tuple[dt.date, ...]
    rv: np.ndarray
    y: np.ndarray  # daily open-to-close log returns

    def __post_init__(self):
        rv = np.asarray(self.rv, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if not (len(self.dates) == len(rv) == len(y)):
            raise RvError("dates, rv and y must be aligned")
        for prev, date in zip(self.dates, self.dates[1:]):
            if date <= prev:
                raise RvError(f"dates must be strictly increasing: {date} follows {prev}")
        if np.any(rv <= 0.0):
            raise RvError("rv must be strictly positive for retained days")
        object.__setattr__(self, "rv", rv)
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class RejectedDay:
    date: dt.date
    reason: str


@dataclass(frozen=True)
class BuildReport:
    series: RvSeries
    rejected: tuple[RejectedDay, ...]


def _grid_sample(day: IntradayDay, grid_seconds: int) -> tuple[np.ndarray, np.ndarray]:
    """Previous-tick log prices on a regular grid anchored at the session
    open, and the grid itself."""
    t0, t1 = day.timestamps[0], day.timestamps[-1]
    grid = np.arange(t0, t1 + 1e-9, float(grid_seconds))
    if len(grid) < 2:
        raise RvError(
            f"{day.date}: fewer than 2 grid points at {grid_seconds}s spacing"
        )
    pos = np.searchsorted(day.timestamps, grid, side="right") - 1
    return day.log_prices[pos], grid


def daily_rv(day: IntradayDay, grid_seconds: int) -> float:
    """Realized variance: sum of squared grid log returns for one day."""
    if grid_seconds < 1:
        raise RvError("grid_seconds must be >= 1")
    prices, _ = _grid_sample(day, grid_seconds)
    r = np.diff(prices)
    return float(np.sum(r**2))


def grid_coverage(day: IntradayDay, grid_seconds: int) -> float:
    """Fraction of grid intervals containing at least one tick."""
    _, grid = _grid_sample(day, grid_seconds)
    counts = np.histogram(day.timestamps, bins=grid)[0]
    return float(np.mean(counts > 0))


def daily_return(day: IntradayDay) -> float:
    """Open-to-close log return."""
    return float(day.log_prices[-1] - day.log_prices[0])


def hansen_lunde_c(y, rv) -> float:
    """Adjustment factor c = sum (y_t - ybar)^2 / sum RV_t.

    With this convention mean(c * RV) equals the n-denominator sample
    variance of y exactly.
    """
    y = np.asarray(y, dtype=np.float64)
    rv = np.asarray(rv, dtype=np.float64)
    if len(y) != len(rv) or len(y) < 2:
        raise RvError("need equal-length series with n >= 2")
    if np.any(rv <= 0.0):
        raise RvError("rv must be strictly positive")
    total = float(np.sum(rv))
    if total <= 0.0:
        raise RvError("rv sum must be positive")
    return float(np.sum((y - np.mean(y)) ** 2)) / total


def build_series(days, grid_seconds: int) -> BuildReport:
    """Assemble aligned (date, y, RV) series from per-day tick data.

    Days with zero RV or grid coverage below ``COVERAGE_THRESHOLD`` are
    dropped and reported; duplicate dates and a grid spacing below one
    second are errors.
    """
    if grid_seconds < 1:
        raise RvError("grid_seconds must be >= 1")
    days = list(days)
    if not days:
        raise RvError("no days supplied")
    seen: dict[dt.date, int] = {}
    for d in days:
        if d.date in seen:
            raise RvError(f"duplicate date {d.date}")
        seen[d.date] = 1
    ordered = sorted(days, key=lambda d: d.date)

    dates, rvs, ys, rejected = [], [], [], []
    for day in ordered:
        try:
            cov = grid_coverage(day, grid_seconds)
            if cov < COVERAGE_THRESHOLD:
                rejected.append(
                    RejectedDay(day.date, f"grid coverage {cov:.2f} below threshold")
                )
                continue
            rv = daily_rv(day, grid_seconds)
        except RvError as exc:
            rejected.append(RejectedDay(day.date, str(exc)))
            continue
        if rv <= 0.0:
            rejected.append(RejectedDay(day.date, "zero realized variance"))
            continue
        dates.append(day.date)
        rvs.append(rv)
        ys.append(daily_return(day))
    if not dates:
        raise RvError("all days rejected: " + "; ".join(r.reason for r in rejected))
    series = RvSeries(dates=tuple(dates), rv=np.array(rvs), y=np.array(ys))
    return BuildReport(series=series, rejected=tuple(rejected))
