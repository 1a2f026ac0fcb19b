import math
import warnings

import numpy as np
import pytest
from scipy.signal import lfilter

from rsvhmc.diagnostics import (
    _fft_length,
    acf,
    integrated_act,
    posterior_summary,
    rms_dh,
    stepsize_scan,
)
from rsvhmc.model import ObservedSeries
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


def ar1_lfilter(two_tau, n, seed):
    """Stationary AR(1) with 2 tau_int = two_tau, i.e. coefficient
    (two_tau - 1) / (two_tau + 1), and unit innovations."""
    phi = (two_tau - 1.0) / (two_tau + 1.0)
    e = np.random.default_rng(seed).standard_normal(n)
    e[0] /= math.sqrt(1.0 - phi**2)
    return lfilter([1.0], [1.0, -phi], e)


# the perfbench ``diagnose`` workload's chain: 8 AR(1) columns of known 2 tau_int
DIAGNOSE_TWO_TAUS = (3, 6, 12, 25, 50, 100, 175, 250)


def diagnose_columns(seed, n=50_000):
    rng = np.random.default_rng(int(np.random.SeedSequence(seed).generate_state(2)[0]))
    phi = np.array([(t - 1.0) / (t + 1.0) for t in DIAGNOSE_TWO_TAUS])
    e = rng.standard_normal((n, len(phi)))
    x = np.empty_like(e)
    x[0] = e[0] / np.sqrt(1.0 - phi**2)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + e[t]
    return dict(zip(DIAGNOSE_TWO_TAUS, x.T))


# constant columns whose mean rounds, so that their centred values and
# variance are not 0: (value, length)
CONSTANT_WITH_ROUNDED_MEAN = [(0.1, 2000), (1.1, 50_000), (123.456, 8000)]


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
        with pytest.raises(ValueError, match="degenerate column"):
            acf(np.ones(100), 5)
        for c, n in CONSTANT_WITH_ROUNDED_MEAN:
            with pytest.raises(ValueError, match="degenerate column"):
                acf(np.full(n, c), n // 2)

    def test_underflowing_variance_raises(self):
        # not constant, but every centred square underflows to 0
        with pytest.raises(ValueError, match="degenerate column"):
            acf(np.tile([0.0, 1e-200], 50), 5)

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

    def test_pair_sums_positive_to_half_length_refused(self):
        # alternation with a growing amplitude: every rho(2k) exceeds rho(2k + 1)
        with pytest.raises(ValueError) as exc:
            integrated_act((-1.0) ** np.arange(100) * np.arange(1.0, 101.0))
        assert str(exc.value) == (
            "pair sums stay positive up to lag 50; series too short for its correlation length"
        )

    def test_strongly_correlated_short_series_errors(self):
        x = np.cumsum(np.random.default_rng(0).normal(size=200))
        with pytest.raises(ValueError):
            integrated_act(x)

    @pytest.mark.parametrize("seed", [33, 703])
    def test_diagnose_workload_slow_columns(self, seed):
        # seeds on which a self-consistent-window estimator with a 20-bin
        # jackknife error misses ar175 by 5.6 errors (33) and cannot estimate ar250 (703)
        columns = diagnose_columns(seed)
        for two_tau in (175, 250):
            est = integrated_act(columns[two_tau])
            assert abs(est.two_tau_int - two_tau) <= 5 * est.error, (two_tau, est)

    @pytest.mark.parametrize("two_tau", [3, 25, 250])
    def test_error_is_calibrated(self, two_tau):
        z = np.array([
            (est.two_tau_int - two_tau) / est.error
            for est in (integrated_act(ar1_lfilter(two_tau, 50_000, seed)) for seed in range(40))
        ])
        assert np.all(np.abs(z) <= 5.0), z
        # an inflated error would pass the line above too
        assert 0.6 <= np.std(z, ddof=1) <= 1.3, z

    def test_anticorrelated_series_reads_below_one(self):
        # 2 tau_int = 1/3 at coefficient -0.5; no clamp at 1
        est = integrated_act(ar1_lfilter(1.0 / 3.0, 50_000, seed=4))
        assert est.two_tau_int < 1.0
        assert abs(est.two_tau_int - 1.0 / 3.0) <= 3 * est.error

    def test_non_positive_first_pair_sum_refused(self):
        # rho(0) + rho(1) = 0: nothing to sum, so no positive estimate
        with pytest.raises(ValueError, match="not positive"):
            integrated_act(np.tile([1.0, -1.0], 500))

    def test_window_is_last_lag_summed(self):
        x = ar1(0.5, 10_000, seed=5)
        est = integrated_act(x)
        rho = acf(x, est.window + 2)
        pairs = rho[0::2] + rho[1::2]
        assert est.window % 2 == 1
        assert np.all(pairs[: (est.window + 1) // 2] > 0.0)
        assert pairs[(est.window + 1) // 2] <= 0.0


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

    def test_oversized_step_counted_as_divergences(self):
        ds = simulate(STUDY_PARAMS, 300, seed=5)
        result = stepsize_scan(
            ds.data, ds.theta_true, "2lfi", [0.05, 0.1, 0.6], n_traj=60, n_warm=20
        )
        last = result.rows[-1]
        assert last.step_size == 2.0 / 3.0
        assert last.acceptance == 0.0
        assert last.rms_dh == math.inf
        diverged = [w for w in result.warnings if "diverged" in w]
        assert diverged == ["step_size=0.666667: 60 of 60 trajectories diverged"]

    def test_series_of_one(self):
        # at fixed theta no sweep runs, so the scan needs no n >= 2; a lone
        # site still has a prior and a measurement term to move against
        one = ObservedSeries(y=np.array([0.3]), ln_rv=np.array([-1.0]))
        result = stepsize_scan(one, STUDY_PARAMS, "2lfi", [0.5], n_traj=60, n_warm=10, seed=1)
        assert result.rows == (result.optimum,)
        assert (result.optimum.step_size, result.optimum.n_steps) == (0.5, 4)
        assert result.optimum.acceptance == 0.9  # 54 of 60
        assert 0.0 < result.optimum.rms_dh < math.inf
        assert result.warnings == ()

    def test_empty_grid_rejected(self):
        ds = simulate(STUDY_PARAMS, 50, seed=14)
        with pytest.raises(ValueError):
            stepsize_scan(ds.data, ds.theta_true, "2lfi", [])

    def test_zero_n_traj_rejected(self):
        ds = simulate(STUDY_PARAMS, 50, seed=14)
        with pytest.raises(ValueError) as exc:
            stepsize_scan(ds.data, ds.theta_true, "2lfi", [0.2], n_traj=0)
        assert str(exc.value) == "n_traj must be >= 1"

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
        for c, n in CONSTANT_WITH_ROUNDED_MEAN:
            (summary,) = posterior_summary({"c": np.full(n, c)})
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
        # a constant column too: integrated_act checks the length before acf
        (summary,) = posterior_summary({"c": np.full(50, 0.1)})
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
