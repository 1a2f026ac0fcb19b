import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from rsvhmc.gibbs import (
    PriorConfig,
    gibbs_sweep,
    sample_mu,
    sample_phi,
    sample_sigma_eta2,
    sample_sigma_u2,
    sample_xi,
)
from rsvhmc.hmc import default_init, run_chain
from rsvhmc.integrators import TrajectoryConfig
from rsvhmc.model import PARAM_NAMES, ModelParams, ObservedSeries, path_sums
from rsvhmc.synth import STUDY_PARAMS, simulate

from conftest import RecordingRng, gibbs_sweep_by_residuals, random_instance

N_DRAWS = 100_000
KS_P = 0.01


@pytest.fixture
def fixed_instance():
    rng = np.random.default_rng(5150)
    theta, h, data = random_instance(rng, 5)
    return theta, h, data


def grid_cdf(grid, log_density):
    """Normalized CDF on a grid from an unnormalized log density (trapezoid)."""
    logd = log_density - np.max(log_density)
    dens = np.exp(logd)
    cum = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(grid))])
    cum /= cum[-1]
    return lambda x: np.interp(x, grid, cum)


def ks_against_grid(samples, grid, log_density):
    return stats.kstest(samples, grid_cdf(grid, log_density)).pvalue


class TestXi:
    def test_standard_normal_reduction(self):
        # ln RV = h and sigma_u2 = n makes the conditional exactly N(0, 1)
        n = 8
        h = np.linspace(-1.0, 1.0, n)
        theta = ModelParams(phi=0.5, mu=0.0, xi=0.0, sigma_eta2=1.0, sigma_u2=float(n))
        data = ObservedSeries(y=np.zeros(n), ln_rv=h)
        rng = np.random.default_rng(0)
        s = path_sums(h, data)
        draws = np.array([sample_xi(s, theta.sigma_u2, PriorConfig(), rng) for _ in range(N_DRAWS)])
        assert stats.kstest(draws, stats.norm.cdf).pvalue > KS_P

    def test_grid_oracle(self, fixed_instance):
        theta, h, data = fixed_instance
        rng = np.random.default_rng(1)
        s = path_sums(h, data)
        draws = np.array([sample_xi(s, theta.sigma_u2, PriorConfig(), rng) for _ in range(N_DRAWS)])
        center = np.mean(data.ln_rv - h)
        sd = math.sqrt(theta.sigma_u2 / data.n)
        grid = np.linspace(center - 8 * sd, center + 8 * sd, 4001)
        logd = np.array(
            [-np.sum((data.ln_rv - x - h) ** 2) / (2 * theta.sigma_u2) for x in grid]
        )
        assert ks_against_grid(draws, grid, logd) > KS_P


class TestSigmaU2:
    def test_conditional_parameters(self, fixed_instance):
        theta, h, data = fixed_instance
        prior = PriorConfig(a_u=1e-8, b_u=1e-8)
        data0 = ObservedSeries(y=data.y, ln_rv=h)  # zero residuals at xi = 0
        rng = RecordingRng()
        scale = sample_sigma_u2(path_sums(h, data0), 0.0, prior, rng)
        (_, shape), = rng.calls
        assert shape == pytest.approx(data.n / 2.0 + 1e-8)
        assert scale == pytest.approx(1e-8)

    def test_grid_oracle(self, fixed_instance):
        theta, h, data = fixed_instance
        prior = PriorConfig()
        rng = np.random.default_rng(2)
        s = path_sums(h, data)
        draws = np.array([sample_sigma_u2(s, theta.xi, prior, rng) for _ in range(N_DRAWS)])
        # quadrature on log sigma_u2 with the Jacobian folded in
        resid2 = float(np.sum((data.ln_rv - theta.xi - h) ** 2))
        log_grid = np.linspace(np.log(draws.min()) - 1, np.log(draws.max()) + 1, 4001)

        def logd(ls):
            # density of log sigma_u2: the sigma2 Jacobian cancels one power
            s2 = np.exp(ls)
            return -(data.n / 2.0 + prior.a_u) * ls - (prior.b_u + resid2 / 2.0) / s2

        p = stats.kstest(np.log(draws), grid_cdf(log_grid, logd(log_grid))).pvalue
        assert p > KS_P


class TestSigmaEta2:
    def test_conditional_at_flat_path(self):
        theta = ModelParams(phi=0.4, mu=1.3, xi=0.0, sigma_eta2=0.5, sigma_u2=0.5)
        prior = PriorConfig(a_eta=2.5, b_eta=0.025)
        h = np.full(6, theta.mu)
        rng = RecordingRng()
        s = path_sums(h, ObservedSeries(y=np.zeros(6), ln_rv=h))
        scale = sample_sigma_eta2(s, theta.phi, theta.mu, prior, rng)
        (_, shape), = rng.calls
        assert shape == pytest.approx(6 / 2.0 + 2.5)
        assert scale == pytest.approx(0.025)

    def test_grid_oracle(self, fixed_instance):
        theta, h, data = fixed_instance
        prior = PriorConfig()
        rng = np.random.default_rng(3)
        s = path_sums(h, data)
        draws = np.array(
            [sample_sigma_eta2(s, theta.phi, theta.mu, prior, rng) for _ in range(N_DRAWS)]
        )
        ss = (1 - theta.phi**2) * (h[0] - theta.mu) ** 2 + np.sum(
            (h[1:] - theta.mu - theta.phi * (h[:-1] - theta.mu)) ** 2
        )
        log_grid = np.linspace(np.log(draws.min()) - 1, np.log(draws.max()) + 1, 4001)
        logd = (
            -(len(h) / 2.0 + prior.a_eta) * log_grid
            - (prior.b_eta + ss / 2.0) / np.exp(log_grid)
        )
        p = stats.kstest(np.log(draws), grid_cdf(log_grid, logd)).pvalue
        assert p > KS_P


class TestMu:
    def test_phi_zero_reduces_to_path_mean(self):
        theta = ModelParams(phi=0.0, mu=0.0, xi=0.0, sigma_eta2=0.3, sigma_u2=0.3)
        h = np.array([0.2, -0.4, 1.1, 0.3, -0.9])
        rng = RecordingRng()
        s = path_sums(h, ObservedSeries(y=h, ln_rv=h))
        sample_mu(s, theta.phi, theta.sigma_eta2, PriorConfig(), rng)
        (_, m, sd), = rng.calls
        assert sd == pytest.approx(math.sqrt(theta.sigma_eta2 / len(h)))
        assert m == pytest.approx(np.mean(h))

    def test_grid_oracle(self, fixed_instance):
        theta, h, data = fixed_instance
        rng = np.random.default_rng(4)
        s = path_sums(h, data)
        draws = np.array(
            [sample_mu(s, theta.phi, theta.sigma_eta2, PriorConfig(), rng) for _ in range(N_DRAWS)]
        )
        grid = np.linspace(draws.min() - 1, draws.max() + 1, 4001)

        def logd(mu):
            r = h[1:] - mu - theta.phi * (h[:-1] - mu)
            quad = (1 - theta.phi**2) * (h[0] - mu) ** 2 + np.sum(r**2)
            return -quad / (2 * theta.sigma_eta2)

        assert ks_against_grid(draws, grid, np.array([logd(m) for m in grid])) > KS_P


class TestPhi:
    def test_trivial_acceptance(self):
        # h_1 = mu and |phi'| = |phi| make the correction ratio exactly 1:
        # the proposal is taken without drawing a uniform
        h = np.array([0.0, 0.5, -0.3, 0.8])
        s = path_sums(h, ObservedSeries(y=h, ln_rv=h))
        rng = RecordingRng(normal_value=-0.6)
        assert sample_phi(s, 0.6, 0.0, 0.2, rng) == -0.6
        assert [call[0] for call in rng.calls] == ["normal"]

    def test_grid_oracle(self, fixed_instance):
        theta, h, data = fixed_instance
        rng = np.random.default_rng(5)
        s = path_sums(h, data)
        cur = theta.phi
        draws = np.empty(N_DRAWS)
        for i in range(N_DRAWS):
            cur = sample_phi(s, cur, theta.mu, theta.sigma_eta2, rng)
            draws[i] = cur
        grid = np.linspace(-1 + 1e-9, 1 - 1e-9, 8001)

        def logd(phi):
            r = h[1:] - theta.mu - phi * (h[:-1] - theta.mu)
            quad = (1 - phi**2) * (h[0] - theta.mu) ** 2 + np.sum(r**2)
            return 0.5 * math.log(1 - phi**2) - quad / (2 * theta.sigma_eta2)

        logd_grid = np.array([logd(p) for p in grid])
        # MH draws are weakly dependent; thin to keep the KS test honest
        assert ks_against_grid(draws[::5], grid, logd_grid) > KS_P

    def test_overdispersed_starts_converge(self, fixed_instance):
        theta, h, data = fixed_instance
        s = path_sums(h, data)
        means = []
        for start, seed in ((-0.95, 11), (0.95, 12)):
            rng = np.random.default_rng(seed)
            cur = start
            draws = np.empty(20_000)
            for i in range(len(draws)):
                cur = sample_phi(s, cur, theta.mu, theta.sigma_eta2, rng)
                draws[i] = cur
            means.append(np.mean(draws[1000:]))
        assert means[0] == pytest.approx(means[1], abs=0.02)

    @pytest.mark.parametrize("mu", [1.0, 0.1, -1.3, 50.3])
    @pytest.mark.parametrize("last", [None, 2.0])
    def test_zero_regression_denominator_refused(self, mu, last):
        # h[:-1] equal to mu: the AR proposal has no denominator
        h = np.full(5, mu)
        if last is not None:
            h[-1] = last
        theta = ModelParams(phi=0.2, mu=mu, xi=0.0, sigma_eta2=0.1, sigma_u2=0.1)
        data = ObservedSeries(y=np.zeros(5), ln_rv=h)
        with pytest.raises(ValueError, match="denominator"):
            gibbs_sweep(path_sums(h, data), theta, PriorConfig(), np.random.default_rng(6))


class TestSweep:
    def test_draws_respect_invariants(self, rng):
        theta, h, data = random_instance(rng, 30)
        prior = PriorConfig()
        for _ in range(500):
            theta = gibbs_sweep(path_sums(h, data), theta, prior, rng)
            assert abs(theta.phi) < 1.0
            assert theta.sigma_eta2 > 0.0
            assert theta.sigma_u2 > 0.0

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            PriorConfig(a_eta=0.0)
        with pytest.raises(ValueError):
            PriorConfig(mu_prior=(0.0, -1.0))

    @pytest.mark.parametrize("name", ["a_eta", "b_eta", "a_u", "b_u"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_hyperparameter_refused(self, name, value):
        with pytest.raises(ValueError, match=name):
            PriorConfig(**{name: value})

    @pytest.mark.parametrize("name", ["mu_prior", "xi_prior"])
    @pytest.mark.parametrize(
        "pair", [(math.nan, 1.0), (math.inf, 1.0), (0.0, math.nan), (0.0, math.inf)]
    )
    def test_non_finite_gaussian_prior_refused(self, name, pair):
        with pytest.raises(ValueError, match=name):
            PriorConfig(**{name: pair})

    def test_series_of_one_refused(self):
        ds = simulate(STUDY_PARAMS, 2, seed=1)
        data = ObservedSeries(y=ds.data.y[:1], ln_rv=ds.data.ln_rv[:1])
        h = data.ln_rv
        with pytest.raises(ValueError, match="n >= 2"):
            gibbs_sweep(path_sums(h, data), STUDY_PARAMS, PriorConfig(), np.random.default_rng(0))
        cfg = TrajectoryConfig.from_length("2lfi", 1.0, 0.2)
        with pytest.raises(ValueError, match="n >= 2"):
            run_chain(data, default_init(data), cfg, 0, 1, np.random.default_rng(0), h_indices=(0,))


class TestAgainstResidualSweep:
    """``gibbs_sweep`` against ``gibbs_sweep_by_residuals`` with the same rng."""

    @staticmethod
    def assert_coupled(h, theta, data, prior, n_sweeps, seed):
        """Equal rng use, and every draw within 1e-12 of its parameter's
        largest magnitude along the chain (a draw can land near 0)."""
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        sums = path_sums(h, data)
        a = b = theta
        got, want = np.empty((n_sweeps, 5)), np.empty((n_sweeps, 5))
        for k in range(n_sweeps):
            a = gibbs_sweep(sums, a, prior, rng_a)
            b = gibbs_sweep_by_residuals(h, b, data, prior, rng_b)
            assert all(type(v) is float for v in a.as_dict().values())
            got[k], want[k] = list(a.as_dict().values()), list(b.as_dict().values())
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        rel = np.max(np.abs(got - want), axis=0) / np.max(np.abs(want), axis=0)
        assert np.all(rel <= 1e-12), dict(zip(PARAM_NAMES, rel))

    def test_study_path(self):
        ds = simulate(STUDY_PARAMS, 4000, seed=2024)
        self.assert_coupled(ds.h_true, STUDY_PARAMS, ds.data, PriorConfig(), 300, 7)

    def test_criterion_7_instance(self):
        theta, h, data = random_instance(np.random.default_rng(5150), 5)
        self.assert_coupled(h, theta, data, PriorConfig(), 2000, 701)

    def test_gaussian_priors(self):
        ds = simulate(STUDY_PARAMS, 400, seed=31)
        prior = PriorConfig(
            a_eta=3.0, b_eta=0.3, a_u=3.0, b_u=0.3,
            mu_prior=(-0.5, 0.2), xi_prior=(0.2, 0.2),
        )
        self.assert_coupled(ds.h_true, STUDY_PARAMS, ds.data, prior, 300, 71)


def exact_conditionals(h, ln_rv, theta, prior):
    """name -> (value, error scale) for each conditional's parameters, in exact
    rational arithmetic on the float inputs. The scale is the larger of |value|
    and the conditional sd; an sd is the float root of an exact variance."""
    h = [Fraction(float(x)) for x in h]
    e = [Fraction(float(r)) - x for r, x in zip(ln_rv, h)]
    phi, mu, xi = Fraction(theta.phi), Fraction(theta.mu), Fraction(theta.xi)
    se2, su2 = Fraction(theta.sigma_eta2), Fraction(theta.sigma_u2)
    n = len(h)
    lag, lead = [x - mu for x in h[:-1]], [x - mu for x in h[1:]]
    denom = sum(x * x for x in lag)
    a = (1 - phi**2) + (n - 1) * (1 - phi) ** 2
    mu_mean = ((1 - phi**2) * h[0] + (1 - phi) * sum(y - phi * x for x, y in zip(h, h[1:]))) / a
    ss_eta = (1 - phi**2) * lag[0] ** 2 + sum((y - phi * x) ** 2 for x, y in zip(lag, lead))
    ss_u = sum((x - xi) ** 2 for x in e)
    phi_sd, mu_sd, xi_sd = math.sqrt(se2 / denom), math.sqrt(se2 / a), math.sqrt(su2 / n)

    def entry(value, sd=0.0):
        return Fraction(value), max(abs(float(value)), sd)

    return {
        "phi_hat": entry(sum(x * y for x, y in zip(lag, lead)) / denom, phi_sd),
        "phi_sd": entry(phi_sd),
        "mu_mean": entry(mu_mean, mu_sd),
        "mu_sd": entry(mu_sd),
        "xi_mean": entry(sum(e) / n, xi_sd),
        "eta_scale": entry(Fraction(prior.b_eta) + ss_eta / 2),
        "u_scale": entry(Fraction(prior.b_u) + ss_u / 2),
    }


class TestExactConditionals:
    """Every conditional's parameters against exact rational arithmetic, to
    1e-12 of the larger of the value and the conditional sd."""

    @staticmethod
    def assert_exact(h, data, theta, prior):
        phi, mu, se2 = theta.phi, theta.mu, theta.sigma_eta2
        s = path_sums(h, data)
        got = {}
        rng = RecordingRng(normal_value=phi)  # proposing the current phi draws no uniform
        sample_phi(s, phi, mu, se2, rng)
        (_, got["phi_hat"], got["phi_sd"]), = rng.calls
        rng = RecordingRng()
        sample_mu(s, phi, se2, prior, rng)
        (_, got["mu_mean"], got["mu_sd"]), = rng.calls
        rng = RecordingRng()
        sample_xi(s, theta.sigma_u2, prior, rng)
        (_, got["xi_mean"], _), = rng.calls
        got["eta_scale"] = sample_sigma_eta2(s, phi, mu, prior, RecordingRng())
        got["u_scale"] = sample_sigma_u2(s, theta.xi, prior, RecordingRng())
        for name, (want, scale) in exact_conditionals(h, data.ln_rv, theta, prior).items():
            err = float(abs(Fraction(got[name]) - want)) / scale
            assert err <= 1e-12, (name, phi, mu, se2, err)

    @pytest.mark.parametrize("n", [2, 3, 50, 4000])
    def test_grid(self, n):
        prior = PriorConfig()
        grid = [
            (phi, mu, se2)
            for phi in (-0.999, -0.5, 0.0, 0.5, 0.999)
            for mu in (-50.0, 0.0, 50.0)
            for se2 in (1e-3, 2.0)
        ]
        for k, (phi, mu, se2) in enumerate(grid):
            theta = ModelParams(phi=phi, mu=mu, xi=0.3, sigma_eta2=se2, sigma_u2=0.2)
            ds = simulate(theta, n, seed=1000 * n + k)
            self.assert_exact(ds.h_true, ds.data, theta, prior)

    @pytest.mark.parametrize("mu,phi", [(50.0, 0.999), (50.0, 0.9999), (0.0, -0.999)])
    def test_smooth_path(self, mu, phi):
        # one slow cycle (alternating in sign for phi < 0) plus 1e-4 noise:
        # the transition residuals are ~1e-4 of the path, so an expanded
        # sum (h1 - mu)^2 - 2 phi (h1 - mu)(h0 - mu) + ... loses ~1e-11
        n = 4000
        t = np.arange(n)
        wave = 0.5 * np.sin(2 * np.pi * t / n) * (1.0 if phi > 0 else (-1.0) ** t)
        h = mu + wave + 1e-4 * np.random.default_rng(3).standard_normal(n)
        data = ObservedSeries(y=np.zeros(n), ln_rv=h + 0.3)
        theta = ModelParams(phi=phi, mu=mu, xi=0.3, sigma_eta2=1e-3, sigma_u2=0.2)
        self.assert_exact(h, data, theta, PriorConfig(b_eta=1e-12, b_u=1e-12))
