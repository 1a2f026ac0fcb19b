import datetime as dt

import numpy as np
import pytest

from rsvhmc.rv import (
    IntradayDay,
    RvError,
    RvSeries,
    build_series,
    daily_return,
    daily_rv,
    hansen_lunde_c,
)


def make_day(date, seconds, log_prices):
    return IntradayDay(
        date=date, timestamps=np.asarray(seconds, float), log_prices=np.asarray(log_prices, float)
    )


D1 = dt.date(2024, 1, 2)
D2 = dt.date(2024, 1, 3)
D3 = dt.date(2024, 1, 4)


class TestDailyRv:
    def test_constant_price_gives_zero(self):
        day = make_day(D1, [0, 60, 120, 180], [1.0, 1.0, 1.0, 1.0])
        assert daily_rv(day, 60) == 0.0

    def test_two_grid_points(self):
        day = make_day(D1, [0, 60], [0.0, 0.01])
        assert daily_rv(day, 60) == pytest.approx(1e-4)

    def test_linear_path(self):
        # total rise r over m intervals: RV = m * (r/m)^2 = r^2 / m
        m, r = 10, 0.05
        seconds = np.arange(m + 1) * 60.0
        day = make_day(D1, seconds, np.linspace(0.0, r, m + 1))
        assert daily_rv(day, 60) == pytest.approx(r**2 / m)

    def test_previous_tick_ignores_intragrid_ticks(self):
        base = make_day(D1, [0, 60, 120], [0.0, 0.01, 0.03])
        # extra ticks strictly inside grid intervals, grid-point prices intact
        padded = make_day(
            D1, [0, 10, 50, 60, 95, 120], [0.0, 0.5, -0.2, 0.01, 0.9, 0.03]
        )
        assert daily_rv(padded, 60) == daily_rv(base, 60)

    def test_too_few_grid_points(self):
        day = make_day(D1, [0, 5], [0.0, 0.01])
        with pytest.raises(RvError):
            daily_rv(day, 60)

    def test_validation(self):
        with pytest.raises(RvError):
            make_day(D1, [0, 0], [1.0, 1.0])  # non-increasing timestamps
        with pytest.raises(RvError):
            make_day(D1, [0], [1.0])  # single observation


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


class TestRvSeries:
    @pytest.mark.parametrize("dates", [(D1, D1), (D2, D1)], ids=["repeated", "out_of_order"])
    def test_dates_must_increase(self, dates):
        with pytest.raises(RvError, match="strictly increasing"):
            RvSeries(dates=dates, rv=[1e-4, 2e-4], y=[0.01, -0.01])


class TestBuildSeries:
    def test_single_day_hand_values(self):
        day = make_day(D1, [0, 60, 120], [0.0, 0.01, 0.03])
        report = build_series([day], 60)
        series = report.series
        assert series.dates == (D1,)
        assert series.y[0] == pytest.approx(0.03)
        assert series.rv[0] == pytest.approx(0.01**2 + 0.02**2)
        assert report.rejected == ()

    def test_out_of_order_days_resorted(self):
        days = [
            make_day(D2, [0, 60], [0.0, 0.01]),
            make_day(D1, [0, 60], [0.0, 0.02]),
        ]
        report = build_series(days, 60)
        assert report.series.dates == (D1, D2)

    def test_duplicate_dates_rejected(self):
        days = [make_day(D1, [0, 60], [0.0, 0.01]), make_day(D1, [0, 60], [0.0, 0.02])]
        with pytest.raises(RvError, match="duplicate"):
            build_series(days, 60)

    def test_flat_day_dropped_with_reason(self):
        days = [
            make_day(D1, [0, 60], [0.0, 0.01]),
            make_day(D2, [0, 60, 120], [1.0, 1.0, 1.0]),
        ]
        report = build_series(days, 60)
        assert report.series.dates == (D1,)
        assert len(report.rejected) == 1
        assert report.rejected[0].date == D2
        assert "zero realized" in report.rejected[0].reason

    def test_sparse_day_dropped_by_coverage(self):
        # ticks only at the session edges: 2 of 10 intervals covered
        days = [
            make_day(D1, [0, 60], [0.0, 0.01]),
            make_day(D2, [0, 600], [0.0, 0.05]),
        ]
        report = build_series(days, 60)
        assert report.series.dates == (D1,)
        assert "coverage" in report.rejected[0].reason

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

    def test_open_to_close_return(self):
        day = make_day(D1, [0, 30, 60], [0.5, 0.9, 0.2])
        assert daily_return(day) == pytest.approx(-0.3)
