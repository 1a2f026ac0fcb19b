"""End-to-end acceptance suite.

Each test prints one pass/fail line (run with ``pytest -s`` to see them
as they complete). The heavyweight fixtures (the full 55k-iteration
chain and the efficiency scans) are shared across criteria.
"""

import dataclasses
import math

import numpy as np
import pytest

import rsvhmc.gibbs
from rsvhmc.cli import main as cli_main
from rsvhmc.diagnostics import integrated_act, rms_dh, stepsize_scan
from rsvhmc.gibbs import (
    PriorConfig,
    sample_mu,
    sample_phi,
    sample_sigma_eta2,
    sample_sigma_u2,
    sample_xi,
)
from rsvhmc.hmc import default_init, hmc_update, run_chain
from rsvhmc.integrators import SPLITTINGS, TrajectoryConfig, integrate
from rsvhmc.model import (
    PARAM_NAMES,
    LatentTarget,
    grad_potential,
    path_sums,
    potential,
)
from rsvhmc.rv import hansen_lunde_c
from rsvhmc.synth import STUDY_PARAMS, simulate

from conftest import fd_gradient, getting_it_right, getting_it_right_stats, hamiltonian, random_instance
from test_gibbs import ks_against_grid

# minutes of chains and scans: `pytest -m "not slow"` leaves this module out
pytestmark = pytest.mark.slow

# wrong sweeps that criterion 7's statistic must refuse: (gibbs function, replacement)
PLANTED_BUGS = {
    # sigma_eta2's inverse-gamma shape one too large
    "sigma_eta2_shape": (
        "sample_sigma_eta2",
        lambda s, phi, mu, prior, rng: (prior.b_eta + 0.5 * s.transition_ss(phi, mu))
        / rng.gamma(s.n / 2.0 + prior.a_eta + 1.0),
    ),
    # xi drawn as under the flat prior although a Gaussian one is set
    "xi_prior_dropped": (
        "sample_xi",
        lambda s, sigma_u2, prior, rng: sample_xi(s, sigma_u2, dataclasses.replace(prior, xi_prior=None), rng),
    ),
}

PAPER_MEANS = {"phi": 0.926, "mu": -0.97, "xi": 0.31, "sigma_eta2": 0.097, "sigma_u2": 0.203}
PAPER_SDS = {"phi": 0.007, "mu": 0.10, "xi": 0.03, "sigma_eta2": 0.006, "sigma_u2": 0.010}
TRUE = STUDY_PARAMS.as_dict()


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def study_dataset():
    return simulate(STUDY_PARAMS, 4000, seed=2024)


@pytest.fixture(scope="module")
def study_chain(study_dataset):
    """The full synthetic-recovery run: 2MNI, l=2, dt=0.222, 5000/50000."""
    ds = study_dataset
    cfg = TrajectoryConfig.from_length("2mni", 2.0, 0.222)
    return run_chain(
        ds.data,
        default_init(ds.data),
        cfg,
        n_burn=5000,
        n_keep=50000,
        rng=np.random.default_rng(7),
        h_indices=(9,),
    )


@pytest.fixture(scope="module")
def equilibrated_h(study_dataset):
    """A latent path in equilibrium at the true parameters."""
    ds = study_dataset
    cfg = TrajectoryConfig.from_length("2mni", 2.0, 0.2)
    rng = np.random.default_rng(11)
    h = ds.data.ln_rv - STUDY_PARAMS.xi
    target = LatentTarget(STUDY_PARAMS, ds.data)
    sums = path_sums(h, ds.data)
    for _ in range(400):
        out = hmc_update(h, sums, target, cfg, rng)
        h, sums = out.h_new, out.sums
    return h


@pytest.fixture(scope="module")
def efficiency_scans(study_dataset, equilibrated_h):
    ds = study_dataset
    lfi = stepsize_scan(
        ds.data, STUDY_PARAMS, "2lfi",
        [0.01, 0.015, 0.02, 0.027, 0.035, 0.045, 0.06, 0.08],
        total_length=2.0, n_traj=1200, n_warm=300, seed=21, h0=equilibrated_h,
    )
    mni = stepsize_scan(
        ds.data, STUDY_PARAMS, "2mni",
        [0.1, 0.14, 0.18, 0.2, 0.22, 0.25, 0.29],
        total_length=2.0, n_traj=1200, n_warm=300, seed=22, h0=equilibrated_h,
    )
    return lfi, mni


class TestCriterion1Recovery:
    def test_full_study(self, study_chain):
        details = []
        ok = True
        for name in PARAM_NAMES:
            draws = study_chain.draws[name]
            mean, sd = float(np.mean(draws)), float(np.std(draws, ddof=1))
            within_posterior = abs(mean - TRUE[name]) <= 3 * sd
            within_paper = abs(mean - PAPER_MEANS[name]) <= 3 * PAPER_SDS[name]
            ok = ok and within_posterior and within_paper
            details.append(f"{name}={mean:.4f} (sd {sd:.4f}, true {TRUE[name]})")
        report(1, ok, "; ".join(details))

    def test_fast_ci_variant(self):
        ds = simulate(STUDY_PARAMS, 1000, seed=31)
        cfg = TrajectoryConfig.from_length("2mni", 2.0, 0.222)
        res = run_chain(
            ds.data, default_init(ds.data), cfg,
            n_burn=1000, n_keep=10000, rng=np.random.default_rng(32),
        )
        ok = True
        details = []
        for name in PARAM_NAMES:
            draws = res.draws[name]
            mean, sd = float(np.mean(draws)), float(np.std(draws, ddof=1))
            ok = ok and abs(mean - TRUE[name]) <= 3 * sd
            details.append(f"{name}={mean:.3f}±{sd:.3f}")
        report("1 (fast CI)", ok, "; ".join(details))


class TestCriterion2DhScaling:
    @pytest.mark.parametrize(
        "scheme,grid",
        [
            ("2lfi", [0.01, 0.015, 0.022, 0.033, 0.05]),
            ("2mni", [0.004, 0.006, 0.009, 0.0135, 0.02]),
        ],
        ids=["2lfi", "2mni"],
    )
    def test_slope_is_two(self, study_dataset, equilibrated_h, scheme, grid):
        ds = study_dataset
        rng = np.random.default_rng(41)
        target = LatentTarget(STUDY_PARAMS, ds.data)
        rms = []
        for dt in grid:
            cfg = TrajectoryConfig.from_length(scheme, 2.0, dt)
            dh = []
            for _ in range(300):
                p = rng.standard_normal(ds.data.n)
                end = integrate(equilibrated_h, p, cfg, target.kick)
                dh.append(hamiltonian(*end, target) - hamiltonian(equilibrated_h, p, target))
            rms.append(rms_dh(dh))
        slope = float(np.polyfit(np.log(grid), np.log(rms), 1)[0])
        report(f"2 ({scheme})", abs(slope - 2.0) <= 0.1, f"log-log slope {slope:.3f}")


class TestCriterion3OptimalAcceptance:
    def test_leapfrog_optimum(self, efficiency_scans):
        lfi, _ = efficiency_scans
        p = lfi.optimum.acceptance
        report(
            "3 (2lfi)", 0.55 <= p <= 0.75,
            f"optimum at dt={lfi.optimum.step_size:.4f}, acceptance {p:.3f}",
        )

    def test_minimum_norm_optimum(self, efficiency_scans):
        _, mni = efficiency_scans
        p = mni.optimum.acceptance
        report(
            "3 (2mni)", 0.75 <= p <= 0.95,
            f"optimum at dt={mni.optimum.step_size:.4f}, acceptance {p:.3f}",
        )


class TestCriterion4EfficiencyRatio:
    def test_raw_and_cost_normalized(self, efficiency_scans):
        lfi, mni = efficiency_scans
        raw = mni.optimum.efficiency / lfi.optimum.efficiency
        cost = (mni.optimum.efficiency / mni.force_evals_per_step) / (
            lfi.optimum.efficiency / lfi.force_evals_per_step
        )
        report(
            4, raw >= 3.0 and cost >= 1.5,
            f"efficiency ratio {raw:.2f} (>=3), cost-normalized {cost:.2f} (>=1.5)",
        )


class TestCriterion5Autocorrelation:
    def test_h10_act(self, study_chain):
        est = integrated_act(study_chain.draws["h_10"])
        report(
            "5 (h_10)", est.two_tau_int <= 60.0,
            f"2 tau_int = {est.two_tau_int:.1f} ± {est.error:.1f} (window {est.window})",
        )

    def test_iid_control(self):
        x = np.random.default_rng(51).normal(size=50_000)
        est = integrated_act(x)
        report(
            "5 (iid control)", abs(est.two_tau_int - 1.0) <= 3 * est.error,
            f"2 tau_int = {est.two_tau_int:.3f} ± {est.error:.3f}",
        )


class TestCriterion6Exactness:
    def test_energy_identity(self, study_chain):
        vals = np.where(
            np.isfinite(study_chain.delta_h), np.exp(-study_chain.delta_h), 0.0
        )
        mean = float(np.mean(vals))
        bins = vals.reshape(20, -1).mean(axis=1)
        err = float(np.std(bins, ddof=1) / math.sqrt(20))
        report(
            "6 (energy identity)", abs(mean - 1.0) <= 3 * err,
            f"<exp(-dH)> = {mean:.4f} ± {err:.4f} over {len(vals)} trajectories",
        )

    def test_reversibility(self, rng):
        worst = 0.0
        for scheme in SPLITTINGS:
            for _ in range(10):
                theta, h, data = random_instance(rng, 50)
                kick = LatentTarget(theta, data).kick
                p = rng.standard_normal(50)
                cfg = TrajectoryConfig(scheme, 0.12, 10)
                fwd_h, fwd_p = integrate(h, p, cfg, kick)
                back_h, back_p = integrate(fwd_h, -fwd_p, cfg, kick)
                scale = np.maximum(np.abs(h), 1.0)
                worst = max(worst, float(np.max(np.abs(back_h - h) / scale)))
                worst = max(
                    worst,
                    float(np.max(np.abs(-back_p - p) / np.maximum(np.abs(p), 1.0))),
                )
        report("6 (reversibility)", worst < 1e-10, f"worst relative defect {worst:.2e}")

    def test_gradient_vs_finite_differences(self, rng):
        worst = 0.0
        for i in range(100):
            n = (2, 5, 50)[i % 3]
            theta, h, data = random_instance(rng, n)
            g = grad_potential(h, theta, data)
            fd = fd_gradient(lambda x: potential(x, theta, data), h)
            worst = max(worst, float(np.max(np.abs(g - fd) / np.maximum(np.abs(fd), 1e-2))))
        report("6 (gradient)", worst < 1e-6, f"worst relative error {worst:.2e}")


class TestCriterion7Samplers:
    def test_conditionals_against_grid_oracles(self):
        n_draws = 100_000
        rng0 = np.random.default_rng(5150)
        theta, h, data = random_instance(rng0, 5)
        prior = PriorConfig()
        sums = path_sums(h, data)
        pvals = {}

        rng = np.random.default_rng(701)
        draws = np.array([sample_xi(sums, theta.sigma_u2, prior, rng) for _ in range(n_draws)])
        center = float(np.mean(data.ln_rv - h))
        sd = math.sqrt(theta.sigma_u2 / data.n)
        grid = np.linspace(center - 8 * sd, center + 8 * sd, 4001)
        logd = np.array(
            [-np.sum((data.ln_rv - x - h) ** 2) / (2 * theta.sigma_u2) for x in grid]
        )
        pvals["xi"] = ks_against_grid(draws, grid, logd)

        rng = np.random.default_rng(702)
        draws = np.array(
            [sample_mu(sums, theta.phi, theta.sigma_eta2, prior, rng) for _ in range(n_draws)]
        )
        grid = np.linspace(draws.min() - 1, draws.max() + 1, 4001)

        def mu_logd(mu):
            r = h[1:] - mu - theta.phi * (h[:-1] - mu)
            return -((1 - theta.phi**2) * (h[0] - mu) ** 2 + np.sum(r**2)) / (
                2 * theta.sigma_eta2
            )

        pvals["mu"] = ks_against_grid(draws, grid, np.array([mu_logd(m) for m in grid]))

        rng = np.random.default_rng(703)
        draws = np.array(
            [sample_sigma_u2(sums, theta.xi, prior, rng) for _ in range(n_draws)]
        )
        resid2 = float(np.sum((data.ln_rv - theta.xi - h) ** 2))
        lg = np.linspace(np.log(draws.min()) - 1, np.log(draws.max()) + 1, 4001)
        logd = -(data.n / 2.0 + prior.a_u) * lg - (prior.b_u + resid2 / 2.0) / np.exp(lg)
        pvals["sigma_u2"] = ks_against_grid(np.log(draws), lg, logd)

        rng = np.random.default_rng(714)
        draws = np.array(
            [sample_sigma_eta2(sums, theta.phi, theta.mu, prior, rng) for _ in range(n_draws)]
        )
        ss = (1 - theta.phi**2) * (h[0] - theta.mu) ** 2 + float(
            np.sum((h[1:] - theta.mu - theta.phi * (h[:-1] - theta.mu)) ** 2)
        )
        lg = np.linspace(np.log(draws.min()) - 1, np.log(draws.max()) + 1, 4001)
        logd = -(len(h) / 2.0 + prior.a_eta) * lg - (prior.b_eta + ss / 2.0) / np.exp(lg)
        pvals["sigma_eta2"] = ks_against_grid(np.log(draws), lg, logd)

        rng = np.random.default_rng(705)
        cur = theta.phi
        draws = np.empty(n_draws)
        for i in range(n_draws):
            cur = sample_phi(sums, cur, theta.mu, theta.sigma_eta2, rng)
            draws[i] = cur
        grid = np.linspace(-1 + 1e-9, 1 - 1e-9, 8001)

        def phi_logd(phi):
            r = h[1:] - theta.mu - phi * (h[:-1] - theta.mu)
            quad = (1 - phi**2) * (h[0] - theta.mu) ** 2 + np.sum(r**2)
            return 0.5 * math.log(1 - phi**2) - quad / (2 * theta.sigma_eta2)

        pvals["phi"] = ks_against_grid(
            draws[::5], grid, np.array([phi_logd(p) for p in grid])
        )

        ok = all(p > 0.01 for p in pvals.values())
        report(
            "7 (grid oracles)", ok,
            "KS p-values " + ", ".join(f"{k}={v:.3f}" for k, v in pvals.items()),
        )

    def test_getting_it_right(self):
        stats = getting_it_right_stats(getting_it_right(71, 50_000))
        ok = all(dev <= 3 * se for dev, se in stats.values())
        details = [f"{name}: |mean-prior|={dev:.4f} (3se={3 * se:.4f})" for name, (dev, se) in stats.items()]
        report("7 (getting it right)", ok, "; ".join(details))

    # 2000 iterations: the shortest run tried (1000, 1500, 2000) at which the
    # sweep as written passed at every seed used while choosing it; both bugs
    # were caught there at each of them
    @pytest.mark.parametrize("seed", [601, 611, 621])
    @pytest.mark.parametrize(
        "bug,caught_by",
        [(None, None), ("sigma_eta2_shape", "sigma_eta2"), ("xi_prior_dropped", "xi")],
        ids=["none", "sigma_eta2", "xi"],
    )
    def test_planted_bug_is_caught(self, monkeypatch, bug, caught_by, seed):
        if bug is not None:
            monkeypatch.setattr(rsvhmc.gibbs, *PLANTED_BUGS[bug])
        stats = getting_it_right_stats(getting_it_right(seed, 2000))
        failed = [name for name, (dev, se) in stats.items() if not dev <= 3 * se]
        if bug is None:
            assert failed == []
        else:
            assert caught_by in failed


class TestCriterion8HansenLunde:
    def test_neg_log_c_recovers_xi(self):
        # small measurement noise so the lognormal-mean bias (sigma_u2/2)
        # is negligible next to the sampling error
        theta = dataclasses.replace(STUDY_PARAMS, sigma_u2=1e-4)
        ds = simulate(theta, 4000, seed=81)
        rv = np.exp(ds.data.ln_rv)
        y = ds.data.y
        stat = -math.log(hansen_lunde_c(y, rv))
        # delta-method error via leave-one-block-out jackknife on the log ratio
        n_blocks = 40
        block = len(y) // n_blocks
        reps = []
        for b in range(n_blocks):
            keep = np.concatenate([np.arange(0, b * block), np.arange((b + 1) * block, len(y))])
            reps.append(-math.log(hansen_lunde_c(y[keep], rv[keep])))
        reps = np.array(reps)
        se = math.sqrt((n_blocks - 1) / n_blocks * float(np.sum((reps - reps.mean()) ** 2)))
        ok = abs(stat - theta.xi) <= 3 * se
        report(8, ok, f"-log(c) = {stat:.4f}, xi = {theta.xi}, 3se = {3 * se:.4f}")


class TestCriterion9Determinism:
    def test_byte_identical_chain_files(self, tmp_path):
        data = tmp_path / "data.csv"
        assert cli_main(["simulate", "--out", str(data), "--n", "300", "--seed", "91"]) == 0
        digests = []
        for name in ("a", "b"):
            rc = cli_main([
                "estimate", "--data", str(data), "--out", str(tmp_path / name),
                "--scheme", "2mni", "--step-size", "0.25", "--total-length", "2.0",
                "--n-burn", "200", "--n-keep", "2000", "--seed", "92",
            ])
            assert rc == 0
            digests.append((tmp_path / name / "chain.csv").read_bytes())
        report(9, digests[0] == digests[1], "identical seed/config gives byte-identical chains")
