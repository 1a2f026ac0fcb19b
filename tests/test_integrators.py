import math

import numpy as np
import pytest

from rsvhmc.integrators import (
    DEFAULT_LAMBDA,
    SPLITTINGS,
    Scheme,
    TrajectoryConfig,
    integrate,
)
from rsvhmc.model import LatentTarget

from conftest import (
    CountingForce,
    hamiltonian,
    integrate_by_stages,
    leapfrog_step,
    minimum_norm_step,
    random_instance,
)


def harmonic_force(h):
    return h


def drift_matrix(a):
    return np.array([[1.0, a], [0.0, 1.0]])


def kick_matrix(b):
    # for V = h^2/2 the kick is p -> p - b*h
    return np.array([[1.0, 0.0], [-b, 1.0]])


def leapfrog_matrix(dt):
    """Linear map of one leapfrog step on the unit harmonic oscillator."""
    return drift_matrix(dt / 2) @ kick_matrix(dt) @ drift_matrix(dt / 2)


def minimum_norm_matrix(dt, lam):
    return (
        drift_matrix(lam * dt)
        @ kick_matrix(dt / 2)
        @ drift_matrix((1 - 2 * lam) * dt)
        @ kick_matrix(dt / 2)
        @ drift_matrix(lam * dt)
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrajectoryConfig(Scheme.LEAPFROG2, step_size=0.0, n_steps=1)
        with pytest.raises(ValueError):
            TrajectoryConfig(Scheme.LEAPFROG2, step_size=0.1, n_steps=0)
        with pytest.raises(ValueError):
            TrajectoryConfig(Scheme.MINIMUM_NORM2, step_size=0.1, n_steps=1, lam=0.6)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                TrajectoryConfig(Scheme.LEAPFROG2, step_size=bad, n_steps=5)
            with pytest.raises(ValueError):
                TrajectoryConfig.from_length(Scheme.LEAPFROG2, 2.0, bad)
            with pytest.raises(ValueError):
                TrajectoryConfig.from_length(Scheme.LEAPFROG2, bad, 0.1)

    def test_from_length_hits_exact_length(self):
        cfg = TrajectoryConfig.from_length(Scheme.LEAPFROG2, 2.0, 0.222)
        assert cfg.n_steps == 9
        assert cfg.total_length == pytest.approx(2.0, abs=1e-15)

    def test_scheme_parse(self):
        assert Scheme.parse("2mni") is Scheme.MINIMUM_NORM2
        assert Scheme.parse("leapfrog") is Scheme.LEAPFROG2
        with pytest.raises(ValueError):
            Scheme.parse("rk4")


class TestLeapfrog:
    def test_free_particle(self):
        h, p = leapfrog_step(np.array([0.0]), np.array([1.0]), 0.5, lambda h: np.zeros_like(h))
        assert h[0] == pytest.approx(0.5)
        assert p[0] == pytest.approx(1.0)

    def test_harmonic_single_step(self):
        # expected values from the independent matrix composition
        h, p = leapfrog_step(np.array([1.0]), np.array([0.0]), 0.1, harmonic_force)
        expected = leapfrog_matrix(0.1) @ np.array([1.0, 0.0])
        assert h[0] == pytest.approx(expected[0], rel=1e-15)
        assert p[0] == pytest.approx(expected[1], rel=1e-15)
        assert h[0] == pytest.approx(1.0 - 0.1**2 / 2.0)
        assert p[0] == pytest.approx(-0.1)

    def test_reversibility_single_step(self, rng):
        theta, h, data = random_instance(rng, 10)
        force = LatentTarget(theta, data).grad
        p = rng.normal(0.0, 1.0, 10)
        fwd_h, fwd_p = leapfrog_step(h, p, 0.3, force)
        back_h, back_p = leapfrog_step(fwd_h, -fwd_p, 0.3, force)
        np.testing.assert_allclose(back_h, h, rtol=1e-12)
        np.testing.assert_allclose(-back_p, p, rtol=1e-12)


class TestMinimumNorm:
    def test_free_particle_quarter_lambda(self):
        free = lambda h: np.zeros_like(h)
        h, p = minimum_norm_step(np.array([0.0]), np.array([2.0]), 0.5, 0.25, free)
        assert h[0] == pytest.approx(1.0)
        assert p[0] == pytest.approx(2.0)

    def test_harmonic_matches_matrix_composition(self):
        h, p = minimum_norm_step(
            np.array([1.0]), np.array([0.0]), 0.1, DEFAULT_LAMBDA, harmonic_force
        )
        expected = minimum_norm_matrix(0.1, DEFAULT_LAMBDA) @ np.array([1.0, 0.0])
        assert h[0] == pytest.approx(expected[0], rel=1e-14)
        assert p[0] == pytest.approx(expected[1], rel=1e-14)

    def test_reversibility_single_step(self, rng):
        theta, h, data = random_instance(rng, 10)
        force = LatentTarget(theta, data).grad
        p = rng.normal(0.0, 1.0, 10)
        fwd_h, fwd_p = minimum_norm_step(h, p, 0.3, DEFAULT_LAMBDA, force)
        back_h, back_p = minimum_norm_step(fwd_h, -fwd_p, 0.3, DEFAULT_LAMBDA, force)
        np.testing.assert_allclose(back_h, h, rtol=1e-12)
        np.testing.assert_allclose(-back_p, p, rtol=1e-12)


class TestIntegrate:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_single_step_equivalence(self, rng, scheme):
        theta, h, data = random_instance(rng, 6)
        force = LatentTarget(theta, data).grad
        p = rng.normal(0.0, 1.0, 6)
        cfg = TrajectoryConfig(scheme, 0.2, 1)
        via_integrate = integrate(h, p, cfg, force)
        if scheme is Scheme.LEAPFROG2:
            direct = leapfrog_step(h, p, 0.2, force)
        else:
            direct = minimum_norm_step(h, p, 0.2, cfg.lam, force)
        np.testing.assert_array_equal(via_integrate[0], direct[0])
        np.testing.assert_array_equal(via_integrate[1], direct[1])

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_half_trajectories_compose(self, rng, scheme):
        theta, h, data = random_instance(rng, 6)
        force = LatentTarget(theta, data).grad
        p = rng.normal(0.0, 1.0, 6)
        full = integrate(h, p, TrajectoryConfig(scheme, 0.1, 8), force)
        half_cfg = TrajectoryConfig(scheme, 0.1, 4)
        two_halves = integrate(*integrate(h, p, half_cfg, force), half_cfg, force)
        np.testing.assert_array_equal(full[0], two_halves[0])
        np.testing.assert_array_equal(full[1], two_halves[1])

    @pytest.mark.parametrize("n_steps", [1, 2, 7])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_shared_drift_products_match_stagewise_loop(self, rng, scheme, n_steps):
        theta, h, data = random_instance(rng, 6)
        force = LatentTarget(theta, data).grad
        p = rng.normal(0.0, 1.0, 6)
        cfg = TrajectoryConfig(scheme, 0.1, n_steps)
        shared = integrate(h, p, cfg, force)
        reference = integrate_by_stages(h, p, cfg, force)
        np.testing.assert_array_equal(shared[0], reference[0])
        np.testing.assert_array_equal(shared[1], reference[1])

    def test_unequal_adjacent_drifts_form_fresh_products(self, rng, monkeypatch):
        # the last drift (0.7) differs from the next step's first (0.3)
        monkeypatch.setitem(SPLITTINGS, Scheme.LEAPFROG2, lambda lam: ((0.3, 1.0), (0.7, 0.0)))
        theta, h, data = random_instance(rng, 6)
        force = LatentTarget(theta, data).grad
        p = rng.normal(0.0, 1.0, 6)
        cfg = TrajectoryConfig(Scheme.LEAPFROG2, 0.1, 7)
        shared = integrate(h, p, cfg, force)
        reference = integrate_by_stages(h, p, cfg, force)
        np.testing.assert_array_equal(shared[0], reference[0])
        np.testing.assert_array_equal(shared[1], reference[1])

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_full_period_harmonic_return(self, scheme):
        errors = []
        for dt in (0.02, 0.01):
            cfg = TrajectoryConfig.from_length(scheme, 2.0 * math.pi, dt)
            h, p = integrate(np.array([1.0]), np.array([0.0]), cfg, harmonic_force)
            errors.append(abs(h[0] - 1.0) + abs(p[0]))
        assert errors[1] < errors[0]
        # second-order scheme: halving dt shrinks the error ~4x
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.3)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_trajectory_reversibility(self, rng, scheme):
        theta, h, data = random_instance(rng, 20)
        force = LatentTarget(theta, data).grad
        p = rng.normal(0.0, 1.0, 20)
        cfg = TrajectoryConfig(scheme, 0.15, 12)
        fwd_h, fwd_p = integrate(h, p, cfg, force)
        back_h, back_p = integrate(fwd_h, -fwd_p, cfg, force)
        np.testing.assert_allclose(back_h, h, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(-back_p, p, rtol=1e-10, atol=1e-12)


class TestStructure:
    @pytest.mark.parametrize(
        "scheme,evals", [(Scheme.LEAPFROG2, 1), (Scheme.MINIMUM_NORM2, 2)]
    )
    def test_force_evaluations_per_step(self, rng, scheme, evals):
        theta, h, data = random_instance(rng, 6)
        counter = CountingForce(LatentTarget(theta, data).grad)
        p = rng.normal(0.0, 1.0, 6)
        n_steps = 7
        integrate(h, p, TrajectoryConfig(scheme, 0.1, n_steps), counter)
        assert counter.calls == evals * n_steps

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_volume_preservation(self, rng, scheme):
        # single-site instance: 2-dimensional phase space, numeric Jacobian
        theta, h, data = random_instance(rng, 1)
        force = LatentTarget(theta, data).grad

        def step(z):
            h, p = np.array([z[0]]), np.array([z[1]])
            if scheme is Scheme.LEAPFROG2:
                h, p = leapfrog_step(h, p, 0.2, force)
            else:
                h, p = minimum_norm_step(h, p, 0.2, DEFAULT_LAMBDA, force)
            return np.array([h[0], p[0]])

        z0 = np.array([h[0], 0.7])
        eps = 1e-6
        jac = np.empty((2, 2))
        for j in range(2):
            zp, zm = z0.copy(), z0.copy()
            zp[j] += eps
            zm[j] -= eps
            jac[:, j] = (step(zp) - step(zm)) / (2.0 * eps)
        assert abs(np.linalg.det(jac) - 1.0) < 1e-8

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_delta_h_scales_quadratically(self, scheme, rng):
        # RMS of delta-H over random momenta should scale as dt^2
        theta, h, data = random_instance(rng, 100)
        target = LatentTarget(theta, data)
        step_sizes = [0.02, 0.04, 0.08]
        rms = []
        for dt in step_sizes:
            cfg = TrajectoryConfig.from_length(scheme, 1.0, dt)
            dh = []
            for _ in range(200):
                p = rng.normal(0.0, 1.0, 100)
                end = integrate(h, p, cfg, target.grad)
                dh.append(hamiltonian(*end, target) - hamiltonian(h, p, target))
            rms.append(math.sqrt(np.mean(np.square(dh))))
        slope = np.polyfit(np.log(step_sizes), np.log(rms), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)
