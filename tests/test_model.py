import dataclasses
import math

import numpy as np
import pytest
from scipy import optimize, stats

from rsvhmc.model import (
    LatentTarget,
    ModelParams,
    ObservedSeries,
    grad_potential,
    path_sums,
    potential,
)

from rsvhmc.synth import simulate

from conftest import fd_gradient, hamiltonian, random_instance


def oracle_log_density(h, theta, data):
    """Term-by-term sum of the three Gaussian log densities plus the
    stationary initial-state density. Independent of the vectorized code."""
    n = len(h)
    lp = 0.0
    for t in range(n):
        lp += stats.norm.logpdf(data.y[t], 0.0, math.exp(h[t] / 2.0))
        lp += stats.norm.logpdf(data.ln_rv[t], theta.xi + h[t], math.sqrt(theta.sigma_u2))
    lp += stats.norm.logpdf(
        h[0], theta.mu, math.sqrt(theta.sigma_eta2 / (1.0 - theta.phi**2))
    )
    for t in range(n - 1):
        lp += stats.norm.logpdf(
            h[t + 1],
            theta.mu + theta.phi * (h[t] - theta.mu),
            math.sqrt(theta.sigma_eta2),
        )
    return lp


def grad_by_residuals(h, theta, data):
    """dV/dh in residual form, as the kernel computed it before the
    h-independent terms were folded into one vector.

    Also returns the scale of the rounding error: the largest magnitude of a
    single term, in this form or in the kernel's c + A h - (y^2/2) e^{-h}.
    """
    phi, mu, se2, su2 = theta.phi, theta.mu, theta.sigma_eta2, theta.sigma_u2
    ell = data.ln_rv - theta.xi
    returns = 0.5 * data.y**2 * np.exp(-h)
    r = h[1:] - mu - phi * (h[:-1] - mu)
    grad = 0.5 - returns - (ell - h) / su2
    grad[0] += (1.0 - phi**2) * (h[0] - mu) / se2
    grad[1:] += r / se2
    grad[:-1] -= phi * r / se2
    terms = (
        0.5, returns, (ell - h) / su2, (1.0 - phi**2) * (h[0] - mu) / se2, r / se2,
        ell / su2, mu / se2, (1.0 / su2 + (1.0 + phi**2) / se2) * h,
    )
    return grad, max(float(np.max(np.abs(t), initial=0.0)) for t in terms)


def potential_by_terms(h, theta, data):
    """V(h) in residual form, summed term by term with ``math.fsum``."""
    phi, mu, se2, su2 = theta.phi, theta.mu, theta.sigma_eta2, theta.sigma_u2
    terms = [(1.0 - phi**2) * (h[0] - mu) ** 2 / (2.0 * se2)]
    for t in range(len(h)):
        terms += [h[t] / 2.0, 0.5 * data.y[t] ** 2 * math.exp(-h[t])]
        terms.append((data.ln_rv[t] - theta.xi - h[t]) ** 2 / (2.0 * su2))
    for t in range(len(h) - 1):
        terms.append((h[t + 1] - mu - phi * (h[t] - mu)) ** 2 / (2.0 * se2))
    return math.fsum(terms)


class TestParamValidation:
    def test_rejects_nonstationary_phi(self):
        with pytest.raises(ValueError):
            ModelParams(phi=1.0, mu=0.0, xi=0.0, sigma_eta2=1.0, sigma_u2=1.0)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            ModelParams(phi=0.5, mu=0.0, xi=0.0, sigma_eta2=0.0, sigma_u2=1.0)
        with pytest.raises(ValueError):
            ModelParams(phi=0.5, mu=0.0, xi=0.0, sigma_eta2=1.0, sigma_u2=-1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ModelParams(phi=0.5, mu=math.nan, xi=0.0, sigma_eta2=1.0, sigma_u2=1.0)

    def test_series_length_mismatch(self):
        with pytest.raises(ValueError):
            ObservedSeries(y=np.zeros(3), ln_rv=np.zeros(2))


class TestPotential:
    def test_single_point_at_mean(self):
        # y=0, ln RV = xi + h, h = mu: every quadratic vanishes, V = mu/2
        theta = ModelParams(phi=0.5, mu=0.8, xi=0.3, sigma_eta2=0.2, sigma_u2=0.1)
        data = ObservedSeries(y=[0.0], ln_rv=[theta.xi + theta.mu])
        assert potential([theta.mu], theta, data) == pytest.approx(theta.mu / 2.0)

    def test_all_zero_instance(self):
        theta = ModelParams(phi=0.0, mu=0.0, xi=0.0, sigma_eta2=1.0, sigma_u2=1.0)
        data = ObservedSeries(y=[0.0, 0.0], ln_rv=[0.0, 0.0])
        assert potential([0.0, 0.0], theta, data) == 0.0

    def test_matches_term_by_term_oracle(self, rng):
        for _ in range(20):
            theta, h, data = random_instance(rng, 5)
            v = potential(h, theta, data)
            # shift by the value at a reference point so constants cancel
            h_ref = np.full(5, theta.mu)
            v_ref = potential(h_ref, theta, data)
            lp = oracle_log_density(h, theta, data)
            lp_ref = oracle_log_density(h_ref, theta, data)
            assert v - v_ref == pytest.approx(-(lp - lp_ref), rel=1e-10, abs=1e-10)

    def test_deterministic(self, rng):
        theta, h, data = random_instance(rng, 50)
        assert potential(h, theta, data) == potential(h.copy(), theta, data)

    def test_confinement(self, rng):
        theta, h, data = random_instance(rng, 20)
        res = optimize.minimize(
            lambda x: potential(x, theta, data),
            h,
            jac=lambda x: grad_potential(x, theta, data),
            method="BFGS",
        )
        v_mode = res.fun
        for value in (50.0, -50.0):
            h_far = h.copy()
            h_far[7] = value
            assert potential(h_far, theta, data) > v_mode + 1e3

    @pytest.mark.parametrize("fn", [potential, grad_potential], ids=["potential", "grad_potential"])
    def test_non_finite_path_refused(self, rng, fn):
        theta, h, data = random_instance(rng, 10)
        h[4] = np.nan
        with pytest.raises(ValueError, match="non-finite value at index 4"):
            fn(h, theta, data)


class TestGradient:
    def test_all_zero_instance(self):
        theta = ModelParams(phi=0.0, mu=0.0, xi=0.0, sigma_eta2=1.0, sigma_u2=1.0)
        data = ObservedSeries(y=[0.0, 0.0], ln_rv=[0.0, 0.0])
        np.testing.assert_allclose(grad_potential([0.0, 0.0], theta, data), [0.5, 0.5])

    @pytest.mark.parametrize("n", [2, 5, 50])
    def test_matches_finite_differences(self, rng, n):
        for _ in range(34):
            theta, h, data = random_instance(rng, n)
            g = grad_potential(h, theta, data)
            fd = fd_gradient(lambda x: potential(x, theta, data), h)
            np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)

    def test_vanishes_at_minimum(self, rng):
        theta, h, data = random_instance(rng, 5)
        res = optimize.minimize(
            lambda x: potential(x, theta, data),
            h,
            jac=lambda x: grad_potential(x, theta, data),
            method="BFGS",
            options={"gtol": 1e-12},
        )
        assert np.linalg.norm(grad_potential(res.x, theta, data)) < 1e-8


class TestLatentTarget:
    @pytest.mark.parametrize("n", [1, 2, 50])
    def test_matches_public_functions(self, rng, n):
        theta, h, data = random_instance(rng, n)
        target = LatentTarget(theta, data)
        v_ref = target.potential_from(path_sums(h, data))
        lp_ref = oracle_log_density(h, theta, data)
        # many paths on one target; differences from the value at h cancel
        # the constants V drops from the log density
        for _ in range(20):
            x = h + rng.normal(0.0, 0.5, n)
            dlp = oracle_log_density(x, theta, data) - lp_ref
            v = target.potential_from(path_sums(x, data))
            assert v - v_ref == pytest.approx(-dlp, rel=1e-10, abs=1e-10)
        assert potential(h, theta, data) == v_ref

    @pytest.mark.parametrize("n", [1, 2, 3, 50])
    def test_gradient_matches_residual_form(self, rng, n):
        theta, h, data = random_instance(rng, n)
        for _ in range(20):
            x = h + rng.normal(0.0, 0.5, n)
            expected, scale = grad_by_residuals(x, theta, data)
            np.testing.assert_allclose(grad_potential(x, theta, data), expected, rtol=0.0, atol=1e-13 * scale)

    @pytest.mark.parametrize("phi", [-0.999, 0.999])
    @pytest.mark.parametrize("sigma_eta2", [1e-3, 2.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 50])
    def test_gradient_at_extreme_parameters(self, rng, phi, sigma_eta2, n):
        theta, h, data = random_instance(rng, n)
        theta = dataclasses.replace(theta, phi=phi, sigma_eta2=sigma_eta2)
        expected, scale = grad_by_residuals(h, theta, data)
        got = grad_potential(h, theta, data)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-13 * scale)

    def test_gradient_where_exp_h_overflows(self):
        # exp(h) is inf above h = 709; the return term is then exactly zero
        theta = ModelParams(phi=0.5, mu=0.1, xi=0.2, sigma_eta2=0.3, sigma_u2=0.4)
        data = ObservedSeries(y=[1.0, 1.0, 1.0], ln_rv=[0.0, 0.0, 0.0])
        h = np.array([0.0, 720.0, 0.0])
        expected, scale = grad_by_residuals(h, theta, data)
        np.testing.assert_allclose(grad_potential(h, theta, data), expected, rtol=0.0, atol=1e-13 * scale)


class TestKick:
    """``kick(h, p, s)`` is p - s dV/dh, with dV/dh from the residual form."""

    @pytest.mark.parametrize("n", [1, 2, 3, 50])
    def test_matches_residual_gradient(self, rng, n):
        for _ in range(10):
            theta, h, data = random_instance(rng, n)
            y = data.y.copy()
            y[rng.integers(n)] = 0.0  # a site without a return term
            data = ObservedSeries(y=y, ln_rv=data.ln_rv)
            target = LatentTarget(theta, data)
            expected, scale = grad_by_residuals(h, theta, data)
            # several coefficients on one target, one of them twice
            for s in (0.5 * 0.222, 1.0, 0.037, 0.5 * 0.222):
                p = rng.normal(0.0, 1.0, n)
                kicked = p.copy()
                target.kick(h, kicked, s)
                tol = 1e-13 * max(s * scale, float(np.max(np.abs(p))))
                # every site, both ends included
                np.testing.assert_allclose(kicked, p - s * expected, rtol=0.0, atol=tol)
                np.testing.assert_allclose(kicked, p - s * grad_potential(h, theta, data), rtol=0.0, atol=tol)

    def test_leaves_position_alone(self, rng):
        theta, h, data = random_instance(rng, 20)
        kept = h.copy()
        LatentTarget(theta, data).kick(h, rng.normal(0.0, 1.0, 20), 0.1)
        np.testing.assert_array_equal(h, kept)

    def test_return_term_overflow_gives_non_finite_momentum(self):
        # exp(ln(y^2/2) + ln s - h) overflows below h of about -700
        theta = ModelParams(phi=0.5, mu=0.1, xi=0.2, sigma_eta2=0.3, sigma_u2=0.4)
        data = ObservedSeries(y=[1.0, 1.0, 1.0], ln_rv=[0.0, 0.0, 0.0])
        p = np.zeros(3)
        with np.errstate(over="ignore"):
            LatentTarget(theta, data).kick(np.array([0.0, -800.0, 0.0]), p, 0.1)
        assert p[1] == math.inf


class TestPotentialFromSums:
    """V from ``path_sums`` against the residual form summed term by term."""

    @staticmethod
    def assert_matches(h, theta, data):
        target = LatentTarget(theta, data)
        want = potential_by_terms(h, theta, data)
        got = target.potential_from(path_sums(h, data))
        assert got == pytest.approx(want, rel=1e-10, abs=0.0), (theta, got, want)
        assert potential(h, theta, data) == got

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 4000])
    def test_random_instances(self, rng, n):
        for _ in range(10):
            theta, h, data = random_instance(rng, n)
            self.assert_matches(h, theta, data)

    @pytest.mark.parametrize("phi", [-0.999, 0.0, 0.999])
    @pytest.mark.parametrize("mu", [-50.0, 0.0, 50.0])
    @pytest.mark.parametrize("n", [2, 50, 4000])
    def test_extreme_parameters(self, phi, mu, n):
        theta = ModelParams(phi=phi, mu=mu, xi=0.3, sigma_eta2=1e-3, sigma_u2=0.2)
        ds = simulate(theta, n, seed=n)
        self.assert_matches(ds.h_true, theta, ds.data)

    def test_return_sum(self, rng):
        theta, h, data = random_instance(rng, 30)
        s = path_sums(h, data)
        assert s.ret == pytest.approx(float(np.sum(0.5 * data.y**2 * np.exp(-h))), rel=1e-13)


class TestHamiltonian:
    def test_zero_momenta(self, rng):
        theta, h, data = random_instance(rng, 8)
        target = LatentTarget(theta, data)
        assert hamiltonian(h, np.zeros(8), target) == potential(h, theta, data)

    def test_unit_momenta(self, rng):
        theta, h, data = random_instance(rng, 8)
        expected = 8 / 2.0 + potential(h, theta, data)
        assert hamiltonian(h, np.ones(8), LatentTarget(theta, data)) == pytest.approx(expected)

    def test_kinetic_potential_split(self, rng):
        theta, h, data = random_instance(rng, 8)
        p = rng.normal(0.0, 1.0, 8)
        total = hamiltonian(h, p, LatentTarget(theta, data))
        assert total == pytest.approx(0.5 * np.sum(p**2) + potential(h, theta, data))
