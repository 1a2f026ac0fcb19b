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
    """One trading day of (timestamp, log-price) observations. Whether they
    are in strictly increasing time order is judged by ``build_series``."""

    date: dt.date
    timestamps: np.ndarray  # seconds
    log_prices: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.float64)
        lp = np.asarray(self.log_prices, dtype=np.float64)
        if len(ts) != len(lp):
            raise RvError(f"{self.date}: timestamp/price length mismatch")
        if len(ts) == 0:
            raise RvError(f"{self.date}: no observations")
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
        for name, arr in (("y", y), ("rv", rv)):
            bad = np.flatnonzero(~np.isfinite(arr))
            if len(bad):
                raise RvError(f"{name} must be finite, got {arr[bad[0]]} on {self.dates[bad[0]]}")
        for prev, date in zip(self.dates, self.dates[1:]):
            if date <= prev:
                raise RvError(f"dates must be strictly increasing: {date} follows {prev}")
        if np.any(rv <= 0.0):
            raise RvError("rv must be strictly positive for retained days")
        object.__setattr__(self, "rv", rv)
        object.__setattr__(self, "y", y)


def _grid_sample(day: IntradayDay, grid_seconds: int) -> tuple[np.ndarray, np.ndarray]:
    """Previous-tick log prices on a regular grid anchored at the session
    open, and the grid itself."""
    if np.any(np.diff(day.timestamps) <= 0.0):
        raise RvError("timestamps must be strictly increasing")
    t0, t1 = day.timestamps[0], day.timestamps[-1]
    grid = np.arange(t0, t1 + 1e-9, float(grid_seconds))
    if len(grid) < 2:
        raise RvError(f"fewer than 2 grid points at {grid_seconds}s spacing")
    pos = np.searchsorted(day.timestamps, grid, side="right") - 1
    return day.log_prices[pos], grid


def hansen_lunde_c(y, rv) -> float:
    """Adjustment factor c = sum (y_t - ybar)^2 / sum RV_t.

    With this convention mean(c * RV) equals the n-denominator sample
    variance of y exactly. Constant returns are refused, since c would be 0.
    """
    y = np.asarray(y, dtype=np.float64)
    rv = np.asarray(rv, dtype=np.float64)
    if len(y) != len(rv) or len(y) < 2:
        raise RvError("need equal-length series with n >= 2")
    if np.any(rv <= 0.0):
        raise RvError("rv must be strictly positive")
    c = float(np.sum((y - np.mean(y)) ** 2)) / float(np.sum(rv))
    # constancy is read off the values: when constant returns' mean rounds, c > 0
    if c <= 0.0 or y.min() == y.max():
        raise RvError("daily returns have zero variance; c is degenerate")
    return c


def build_series(days, grid_seconds: int) -> tuple[RvSeries, tuple[tuple[dt.date, str], ...]]:
    """``(series, rejected)``: the aligned (date, y, RV) series of per-day
    tick data, and a ``(date, reason)`` pair for each day dropped.

    Days whose timestamps are not strictly increasing, or with fewer than 2
    grid points, grid coverage below ``COVERAGE_THRESHOLD`` or zero RV are
    dropped; a date given twice and a grid spacing below one second are
    errors.
    """
    if grid_seconds < 1:
        raise RvError("grid_seconds must be >= 1")
    ordered = sorted(days, key=lambda d: d.date)
    if not ordered:
        raise RvError("no days supplied")
    for prev, day in zip(ordered, ordered[1:]):
        if day.date == prev.date:
            raise RvError(f"duplicate date {day.date}")

    dates, rvs, ys, rejected = [], [], [], []
    for day in ordered:
        try:
            prices, grid = _grid_sample(day, grid_seconds)
        except RvError as exc:
            rejected.append((day.date, str(exc)))
            continue
        # the fraction of grid intervals holding at least one tick
        cov = float(np.mean(np.histogram(day.timestamps, bins=grid)[0] > 0))
        if cov < COVERAGE_THRESHOLD:
            rejected.append((day.date, f"grid coverage {cov:.2f} below threshold"))
            continue
        rv = float(np.sum(np.diff(prices) ** 2))
        if rv <= 0.0:
            rejected.append((day.date, "zero realized variance"))
            continue
        dates.append(day.date)
        rvs.append(rv)
        ys.append(float(day.log_prices[-1] - day.log_prices[0]))  # open to close
    if not dates:
        raise RvError("all days rejected: " + "; ".join(f"{date}: {reason}" for date, reason in rejected))
    return RvSeries(dates=tuple(dates), rv=np.array(rvs), y=np.array(ys)), tuple(rejected)
