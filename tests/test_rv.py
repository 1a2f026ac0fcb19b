import datetime as dt
import math

import numpy as np
import pytest

import rsvhmc.rv
from rsvhmc.rv import (
    IntradayDay,
    RvError,
    RvSeries,
    build_series,
    hansen_lunde_c,
)


def make_day(date, seconds, log_prices):
    return IntradayDay(
        date=date, timestamps=np.asarray(seconds, float), log_prices=np.asarray(log_prices, float)
    )


D1 = dt.date(2024, 1, 2)
D2 = dt.date(2024, 1, 3)
D3 = dt.date(2024, 1, 4)


def rv_of(day):
    """The day's RV at a 60 s grid, as ``build_series`` keeps it."""
    return build_series([day], 60)[0].rv[0]


def rejection_of(day):
    """Why ``build_series`` drops the day at a 60 s grid, next to a day it keeps."""
    series, rejected = build_series([make_day(D3, [0, 60], [0.0, 0.01]), day], 60)
    assert series.dates == (D3,)
    ((date, reason),) = rejected
    assert date == day.date
    return reason


class TestDailyRv:
    def test_constant_price_gives_zero(self):
        day = make_day(D1, [0, 60, 120, 180], [1.0, 1.0, 1.0, 1.0])
        assert rejection_of(day) == "zero realized variance"

    def test_two_grid_points(self):
        day = make_day(D1, [0, 60], [0.0, 0.01])
        assert rv_of(day) == pytest.approx(1e-4)

    def test_linear_path(self):
        # total rise r over m intervals: RV = m * (r/m)^2 = r^2 / m
        m, r = 10, 0.05
        seconds = np.arange(m + 1) * 60.0
        day = make_day(D1, seconds, np.linspace(0.0, r, m + 1))
        assert rv_of(day) == pytest.approx(r**2 / m)

    def test_previous_tick_ignores_intragrid_ticks(self):
        base = make_day(D1, [0, 60, 120], [0.0, 0.01, 0.03])
        # extra ticks strictly inside grid intervals, grid-point prices intact
        padded = make_day(
            D1, [0, 10, 50, 60, 95, 120], [0.0, 0.5, -0.2, 0.01, 0.9, 0.03]
        )
        assert rv_of(padded) == rv_of(base)

    def test_too_few_grid_points(self):
        day = make_day(D1, [0, 5], [0.0, 0.01])
        assert rejection_of(day) == "fewer than 2 grid points at 60s spacing"

    def test_validation(self):
        # non-increasing timestamps
        assert rejection_of(make_day(D1, [0, 0], [1.0, 1.0])) == "timestamps must be strictly increasing"
        with pytest.raises(RvError, match="no observations"):
            make_day(D1, [], [])  # empty day

    @pytest.mark.parametrize(
        "seconds,log_prices,message",
        [
            ([0, 60, 120], [0.0, 0.01], "2024-01-02: timestamp/price length mismatch"),
            ([0, 60], [0.0, np.nan], "2024-01-02: non-finite tick data"),
            ([0, np.inf], [0.0, 0.01], "2024-01-02: non-finite tick data"),
        ],
        ids=["length_mismatch", "nan_price", "infinite_time"],
    )
    def test_day_refused(self, seconds, log_prices, message):
        with pytest.raises(RvError) as exc:
            make_day(D1, seconds, log_prices)
        assert str(exc.value) == message


class TestHansenLunde:
    def test_population_matched_rv(self):
        rng = np.random.default_rng(0)
        y = rng.normal(0.0, 1.5, 250)
        rv = np.full(250, np.var(y, ddof=1))
        # with the sum-over-sum convention c = (n-1)/n exactly
        assert hansen_lunde_c(y, rv) == pytest.approx(249 / 250, rel=1e-12)

    def test_scale_homogeneity(self):
        rng = np.random.default_rng(1)
        y = rng.normal(0.0, 1.0, 100)
        rv = rng.uniform(0.5, 2.0, 100)
        assert hansen_lunde_c(3.0 * y, rv) == pytest.approx(9.0 * hansen_lunde_c(y, rv))

    def test_rescaled_rv_matches_return_variance(self):
        rng = np.random.default_rng(2)
        y = rng.normal(0.0, 1.0, 300)
        rv = rng.uniform(0.5, 2.0, 300)
        c = hansen_lunde_c(y, rv)
        assert c * np.mean(rv) == pytest.approx(np.var(y), rel=1e-12)

    def test_validation(self):
        with pytest.raises(RvError):
            hansen_lunde_c([1.0], [1.0])
        with pytest.raises(RvError):
            hansen_lunde_c([1.0, 2.0], [1.0, -1.0])

    def test_constant_returns_refused(self):
        # c = 0 would make -log(c) and every adjusted RV meaningless
        with pytest.raises(RvError) as exc:
            hansen_lunde_c([0.01, 0.01, 0.01], [1e-4, 2e-4, 3e-4])
        assert str(exc.value) == "daily returns have zero variance; c is degenerate"
        # constant returns whose mean rounds, so their squared deviations are not 0
        for y, n in [(0.1, 100), (-0.003, 4000)]:
            with pytest.raises(RvError, match="^daily returns have zero variance; c is degenerate$"):
                hansen_lunde_c(np.full(n, y), np.linspace(1e-4, 2e-4, n))


class TestRvSeries:
    @pytest.mark.parametrize("dates", [(D1, D1), (D2, D1)], ids=["repeated", "out_of_order"])
    def test_dates_must_increase(self, dates):
        with pytest.raises(RvError, match="strictly increasing"):
            RvSeries(dates=dates, rv=[1e-4, 2e-4], y=[0.01, -0.01])

    @pytest.mark.parametrize(
        "rv,y,message",
        [
            ([1e-4], [0.01, -0.01], "dates, rv and y must be aligned"),
            ([1e-4, 2e-4], [0.01], "dates, rv and y must be aligned"),
            ([1e-4, 0.0], [0.01, -0.01], "rv must be strictly positive for retained days"),
            ([-1e-4, 2e-4], [0.01, -0.01], "rv must be strictly positive for retained days"),
            ([1e-4, 2e-4], [0.01, math.nan], f"y must be finite, got nan on {D2}"),
            ([1e-4, math.inf], [0.01, -0.01], f"rv must be finite, got inf on {D2}"),
            ([math.nan, 2e-4], [0.01, -0.01], f"rv must be finite, got nan on {D1}"),
        ],
        ids=["short_rv", "short_y", "zero_rv", "negative_rv", "nan_y", "inf_rv", "nan_rv"],
    )
    def test_series_refused(self, rv, y, message):
        with pytest.raises(RvError) as exc:
            RvSeries(dates=(D1, D2), rv=rv, y=y)
        assert str(exc.value) == message


class TestBuildSeries:
    def test_single_day_hand_values(self):
        day = make_day(D1, [0, 60, 120], [0.0, 0.01, 0.03])
        series, rejected = build_series([day], 60)
        assert series.dates == (D1,)
        assert series.y[0] == pytest.approx(0.03)
        assert series.rv[0] == pytest.approx(0.01**2 + 0.02**2)
        assert rejected == ()

    def test_out_of_order_days_resorted(self):
        days = [
            make_day(D2, [0, 60], [0.0, 0.01]),
            make_day(D1, [0, 60], [0.0, 0.02]),
        ]
        series, _ = build_series(days, 60)
        assert series.dates == (D1, D2)

    def test_duplicate_dates_rejected(self):
        days = [make_day(D1, [0, 60], [0.0, 0.01]), make_day(D1, [0, 60], [0.0, 0.02])]
        with pytest.raises(RvError, match="duplicate"):
            build_series(days, 60)

    def test_duplicate_dates_apart_in_input_rejected(self):
        days = [make_day(d, [0, 60], [0.0, 0.01]) for d in (D1, D2, D1)]
        with pytest.raises(RvError, match=f"duplicate date {D1}"):
            build_series(days, 60)

    def test_single_tick_day_dropped_with_reason(self):
        days = [make_day(D1, [0, 60], [0.0, 0.01]), make_day(D2, [30], [0.0])]
        series, rejected = build_series(days, 60)
        assert series.dates == (D1,)
        assert rejected == ((D2, "fewer than 2 grid points at 60s spacing"),)

    @pytest.mark.parametrize(
        "seconds", [[0, 60, 60, 120], [0, 120, 60]], ids=["repeated", "out_of_order"]
    )
    def test_unordered_day_dropped_with_reason(self, seconds):
        days = [
            make_day(D1, [0, 60], [0.0, 0.01]),
            make_day(D2, seconds, np.linspace(0.0, 0.02, len(seconds))),
            make_day(D3, [0, 60], [0.0, -0.01]),
        ]
        series, rejected = build_series(days, 60)
        assert series.dates == (D1, D3)
        assert rejected == ((D2, "timestamps must be strictly increasing"),)

    def test_all_rejected_names_each_date_once(self):
        days = [make_day(D1, [0], [0.0]), make_day(D2, [0, 60, 120], [1.0, 1.0, 1.0])]
        with pytest.raises(RvError) as exc:
            build_series(days, 60)
        assert str(exc.value) == (
            f"all days rejected: {D1}: fewer than 2 grid points at 60s spacing; "
            f"{D2}: zero realized variance"
        )

    def test_flat_day_dropped_with_reason(self):
        days = [
            make_day(D1, [0, 60], [0.0, 0.01]),
            make_day(D2, [0, 60, 120], [1.0, 1.0, 1.0]),
        ]
        series, rejected = build_series(days, 60)
        assert series.dates == (D1,)
        assert len(rejected) == 1
        assert rejected[0][0] == D2
        assert "zero realized" in rejected[0][1]

    def test_sparse_day_dropped_by_coverage(self):
        # ticks only at the session edges: 2 of 10 intervals covered
        days = [
            make_day(D1, [0, 60], [0.0, 0.01]),
            make_day(D2, [0, 600], [0.0, 0.05]),
        ]
        series, rejected = build_series(days, 60)
        assert series.dates == (D1,)
        assert "coverage" in rejected[0][1]

    def test_no_days_refused(self):
        with pytest.raises(RvError) as exc:
            build_series([], 60)
        assert str(exc.value) == "no days supplied"

    def test_all_days_rejected(self):
        days = [make_day(D1, [0, 60, 120], [1.0, 1.0, 1.0])]
        with pytest.raises(RvError, match="all days rejected"):
            build_series(days, 60)

    @pytest.mark.parametrize("grid_seconds", [0, -60])
    def test_grid_below_one_second_refused_before_any_day_is_read(self, grid_seconds):
        read = []

        def days():
            read.append(D1)
            yield make_day(D1, [0, 60, 120], [0.0, 0.01, 0.03])

        with pytest.raises(RvError, match=r"^grid_seconds must be >= 1$"):
            build_series(days(), grid_seconds)
        assert read == []

    def test_each_day_resampled_once(self, monkeypatch):
        # one grid sample gives both a day's coverage and its RV
        grid_sample, sampled = rsvhmc.rv._grid_sample, []

        def counting(day, grid_seconds):
            sampled.append(day.date)
            return grid_sample(day, grid_seconds)

        monkeypatch.setattr(rsvhmc.rv, "_grid_sample", counting)
        days = [
            make_day(D1, [0, 60, 120], [0.0, 0.01, 0.03]),  # kept
            make_day(D2, [0, 600], [0.0, 0.05]),  # sparse
            make_day(D3, [0, 60, 120], [1.0, 1.0, 1.0]),  # flat
        ]
        series, _ = build_series(days, 60)
        assert series.dates == (D1,)
        assert sampled == [D1, D2, D3]

    def test_open_to_close_return(self):
        day = make_day(D1, [0, 30, 60], [0.5, 0.9, 0.2])
        assert build_series([day], 60)[0].y[0] == pytest.approx(-0.3)
