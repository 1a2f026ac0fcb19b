import math
import warnings

import numpy as np
import pytest

from rsvhmc.diagnostics import (
    N_BINS,
    DegenerateSeriesError,
    _fft_length,
    _jackknife_reps,
    acf,
    integrated_act,
    posterior_summary,
    rms_dh,
    stepsize_scan,
)
from rsvhmc.synth import STUDY_PARAMS, simulate


def ar1(rho, n, seed, sd=1.0):
    rng = np.random.default_rng(seed)
    x = np.empty(n)
    x[0] = rng.normal(0.0, sd / math.sqrt(1 - rho**2))
    eps = rng.normal(0.0, sd, n - 1)
    for t in range(n - 1):
        x[t + 1] = rho * x[t] + eps[t]
    return x


def acf_by_definition(x, max_lag):
    """C(t) / C(0) with C(t) = mean of (x_i - xbar)(x_{i+t} - xbar), one lag at a time."""
    d = np.asarray(x, dtype=np.float64) - np.mean(x)
    n = len(d)
    c0 = np.mean(d * d)
    return np.array([1.0] + [np.mean(d[: n - t] * d[t:]) / c0 for t in range(1, max_lag + 1)])


def jackknife_by_concatenation(x, window):
    """2 tau_int at ``window`` of each leave-one-bin-out series, built and
    transformed in full, one bin at a time."""
    bin_len = len(x) // N_BINS
    reps = np.empty(N_BINS)
    for b in range(N_BINS):
        keep = np.concatenate([x[: b * bin_len], x[(b + 1) * bin_len :]])
        reps[b] = 2.0 * float(np.sum(acf(keep, window))) - 1.0
    return reps


class TestAcf:
    @pytest.mark.parametrize("n", [2, 7, 64, 101, 257, 1000])
    def test_matches_definition_at_every_lag(self, n):
        # the last lags are where too little zero-padding would wrap around
        x = ar1(0.7, n, seed=n) + 3.0
        expected = acf_by_definition(x, n - 1)
        for max_lag in range(1, n):
            np.testing.assert_allclose(acf(x, max_lag), expected[: max_lag + 1], rtol=0, atol=1e-12)

    def test_fft_length_is_smallest_5_smooth(self):
        def smooth(k):
            for q in (2, 3, 5):
                while k % q == 0:
                    k //= q
            return k == 1

        for m in [*range(1, 400), 99_999, 38_001]:
            length = _fft_length(m)
            assert length >= m and smooth(length)
            assert not any(smooth(k) for k in range(m, length))

    def test_alternating_series(self):
        x = np.tile([1.0, -1.0], 500)
        rho = acf(x, 3)
        assert rho[0] == 1.0
        assert rho[1] == pytest.approx(-1.0, abs=1e-2)

    def test_white_noise_is_uncorrelated(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=100_000)
        rho = acf(x, 50)
        assert np.all(np.abs(rho[1:]) < 4.0 / math.sqrt(len(x)))

    def test_ar1_matches_analytic_decay(self):
        x = ar1(0.9, 1_000_000, seed=9)
        rho = acf(x, 20)
        for t in range(1, 21):
            assert rho[t] == pytest.approx(0.9**t, abs=0.01)

    def test_zero_variance_raises(self):
        with pytest.raises(DegenerateSeriesError):
            acf(np.ones(100), 5)

    def test_bad_max_lag(self):
        with pytest.raises(ValueError):
            acf(np.arange(10.0), 10)


class TestIntegratedAct:
    def test_iid_series_is_one(self):
        failures = 0
        for seed in range(50):
            x = np.random.default_rng(seed).normal(size=10_000)
            est = integrated_act(x)
            if abs(est.two_tau_int - 1.0) > max(3 * est.error, 0.2):
                failures += 1
        assert failures <= 2  # 3-sigma outliers are expected occasionally

    def test_ar1_matches_analytic_value(self):
        # 2 tau_int of AR(1) with coefficient rho is (1 + rho) / (1 - rho)
        x = ar1(0.9, 200_000, seed=10)
        est = integrated_act(x)
        assert est.two_tau_int == pytest.approx(19.0, abs=max(3 * est.error, 2.0))

    def test_too_short_series(self):
        with pytest.raises(ValueError):
            integrated_act(np.arange(50.0))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_series_named(self, value):
        x = np.random.default_rng(3).normal(size=1000)
        x[500] = value
        with pytest.raises(ValueError, match="non-finite"):
            integrated_act(x)

    def test_strongly_correlated_short_series_errors(self):
        x = np.cumsum(np.random.default_rng(0).normal(size=200))
        with pytest.raises(ValueError):
            integrated_act(x)


class TestJackknife:
    @pytest.mark.parametrize("n", [100, 119, 2000, 50_000, 50_013])
    def test_downdate_matches_concatenation(self, n):
        # n % 20 == 0 leaves nothing after the last bin; otherwise a short tail
        x = ar1(0.8, n, seed=n) + 3.0
        bin_len = n // N_BINS
        if n <= 2000:
            windows = range(1, bin_len + 1)
        else:
            windows = (1, 2, 7, 100, bin_len // 2, bin_len - 1, bin_len)
        rho = acf(x, n // 2)
        for window in windows:
            expected = jackknife_by_concatenation(x, window)
            got = _jackknife_reps(x, rho, window)
            assert np.all(np.abs(got - expected) <= 1e-11 * np.maximum(1.0, np.abs(expected))), window

    @pytest.mark.parametrize("level", [0.0, 0.1])
    @pytest.mark.parametrize("b", [0, 7, 19])
    def test_constant_outside_one_bin_is_degenerate(self, level, b):
        # leaving that bin out leaves a constant series, as in the oracle
        x = np.full(2000, level)
        x[b * 100 : (b + 1) * 100] = np.random.default_rng(1).normal(size=100)
        with pytest.raises(DegenerateSeriesError):
            jackknife_by_concatenation(x, 5)
        with pytest.raises(DegenerateSeriesError):
            integrated_act(x)


class TestRmsDh:
    def test_zeros(self):
        assert rms_dh(np.zeros(10)) == 0.0

    def test_hand_value(self):
        assert rms_dh([3.0, -4.0]) == pytest.approx(math.sqrt(12.5))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=500)
        assert rms_dh(x) == pytest.approx(rms_dh(rng.permutation(x)), rel=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rms_dh([])


class TestStepsizeScan:
    def test_single_grid_point(self):
        ds = simulate(STUDY_PARAMS, 150, seed=12)
        result = stepsize_scan(
            ds.data,
            ds.theta_true,
            "2mni",
            [0.25],
            total_length=1.0,
            n_traj=200,
            n_warm=50,
            seed=0,
        )
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.efficiency == row.acceptance * row.step_size
        assert 0.0 <= row.acceptance <= 1.0
        assert row.rms_dh >= 0.0
        assert result.force_evals_per_step == 2

    def test_efficiency_identity_across_grid(self):
        ds = simulate(STUDY_PARAMS, 100, seed=13)
        result = stepsize_scan(
            ds.data,
            ds.theta_true,
            "2lfi",
            [0.1, 0.3, 0.6],
            total_length=1.0,
            n_traj=150,
            n_warm=50,
            seed=1,
        )
        for row in result.rows:
            assert row.efficiency == row.acceptance * row.step_size
        assert result.optimum.efficiency == max(r.efficiency for r in result.rows)

    def test_empty_grid_rejected(self):
        ds = simulate(STUDY_PARAMS, 50, seed=14)
        with pytest.raises(ValueError):
            stepsize_scan(ds.data, ds.theta_true, "2lfi", [])

    def test_negative_n_warm_rejected(self):
        ds = simulate(STUDY_PARAMS, 50, seed=14)
        with pytest.raises(ValueError, match="n_warm"):
            stepsize_scan(ds.data, ds.theta_true, "2lfi", [0.2], n_warm=-5)


class TestPosteriorSummary:
    def test_basic_moments(self):
        rng = np.random.default_rng(15)
        cols = {"a": rng.normal(2.0, 0.5, 5000)}
        (summary,) = posterior_summary(cols)
        assert summary.mean == pytest.approx(2.0, abs=0.05)
        assert summary.sd == pytest.approx(0.5, abs=0.05)
        assert summary.act is not None
        assert summary.act.two_tau_int == pytest.approx(1.0, abs=0.3)

    def test_degenerate_column(self):
        (summary,) = posterior_summary({"c": np.full(2000, 3.14)})
        assert summary.sd == 0.0
        assert summary.act is None
        assert summary.note == "degenerate column"

    def test_non_finite_column_named(self):
        col = np.random.default_rng(17).normal(size=2000)
        col[7] = math.nan
        (summary,) = posterior_summary({"a": col})
        assert summary.act is None
        assert "non-finite" in summary.note

    @pytest.mark.parametrize("bad", [[math.inf], [math.inf, -math.inf], [math.nan]])
    def test_non_finite_column_warns_nothing(self, bad):
        col = np.random.default_rng(18).normal(size=2000)
        col[3 : 3 + len(bad)] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (summary,) = posterior_summary({"a": col})
        assert summary.note == "series has non-finite values (nan or inf)"
        assert summary.act is None
        assert math.isnan(summary.mean) and math.isnan(summary.sd)

    def test_too_few_samples(self):
        for n in (0, 1):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                (summary,) = posterior_summary({"a": np.arange(float(n))})
            assert summary.note == f"need at least 2 samples, got {n}"
            assert summary.act is None
            assert math.isnan(summary.mean) and math.isnan(summary.sd)

    def test_short_column_gets_the_act_refusal_as_note(self):
        (summary,) = posterior_summary({"a": np.arange(50.0)})
        assert summary.mean == 24.5
        assert summary.act is None
        assert summary.note == "need at least 100 samples, got 50"

    def test_replication_between_seeds(self):
        # two independent chains over the same target must agree within errors
        ds = simulate(STUDY_PARAMS, 150, seed=16)
        from rsvhmc.hmc import default_init, run_chain
        from rsvhmc.integrators import TrajectoryConfig
        from rsvhmc.model import PARAM_NAMES

        cfg = TrajectoryConfig.from_length("2mni", 2.0, 0.25)
        summaries = []
        for seed in (21, 22):
            res = run_chain(
                ds.data,
                default_init(ds.data),
                cfg,
                500,
                6000,
                np.random.default_rng(seed),
            )
            summaries.append(posterior_summary({k: res.draws[k] for k in PARAM_NAMES}))
        compared = 0
        for s1, s2 in zip(*summaries):
            if s1.act is None or s2.act is None:
                continue  # too autocorrelated for a reliable error at this length
            n = 6000
            se1 = s1.sd * math.sqrt((s1.act.two_tau_int + s1.act.error) / n)
            se2 = s2.sd * math.sqrt((s2.act.two_tau_int + s2.act.error) / n)
            assert abs(s1.mean - s2.mean) < 3 * math.hypot(se1, se2), s1.name
            compared += 1
        assert compared >= 3
