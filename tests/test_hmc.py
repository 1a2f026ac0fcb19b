import math
import time
import warnings

import numpy as np
import pytest

import rsvhmc.hmc
import rsvhmc.model
from rsvhmc.diagnostics import stepsize_scan
from rsvhmc.gibbs import PriorConfig, gibbs_sweep
from rsvhmc.hmc import GibbsSweep, default_init, hmc_update, run_chain
from rsvhmc.integrators import SPLITTINGS, TrajectoryConfig
from rsvhmc.model import PARAM_NAMES, LatentTarget, ObservedSeries, path_sums
from rsvhmc.synth import STUDY_PARAMS, simulate

from conftest import hmc_update_recomputing, scheme_id

SWEEP = (GibbsSweep(PriorConfig()),)  # run_chain's default moves

def small_dataset(n=200, seed=17):
    return simulate(STUDY_PARAMS, n, seed=seed)


def update(h, target, cfg, rng):
    """One update from a path whose sums are not known yet."""
    return hmc_update(h, path_sums(h, target.data), target, cfg, rng)


class TestHmcUpdate:
    def test_tiny_step_is_accepted(self):
        ds = small_dataset()
        target = LatentTarget(ds.theta_true, ds.data)
        cfg = TrajectoryConfig("2lfi", 1e-6, 1)
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = update(ds.h_true, target, cfg, rng)
            assert abs(out.delta_h) < 1e-8
            assert out.accepted

    def test_rejection_returns_input_unchanged(self):
        ds = small_dataset()
        target = LatentTarget(ds.theta_true, ds.data)
        # an absurd step size guarantees rejection
        cfg = TrajectoryConfig("2lfi", 50.0, 3)
        rng = np.random.default_rng(1)
        rejected = 0
        for _ in range(20):
            h0 = ds.h_true.copy()
            out = update(h0, target, cfg, rng)
            if not out.accepted:
                rejected += 1
                np.testing.assert_array_equal(out.h_new, ds.h_true)
        assert rejected > 0

    @pytest.mark.parametrize("scheme", list(SPLITTINGS), ids=scheme_id)
    def test_domain_failure_counts_as_rejection(self, scheme):
        ds = small_dataset()
        cfg = TrajectoryConfig(scheme, 1e6, 2)
        rng = np.random.default_rng(2)
        out = update(ds.h_true, LatentTarget(ds.theta_true, ds.data), cfg, rng)
        assert not out.accepted
        assert out.delta_h == math.inf
        np.testing.assert_array_equal(out.h_new, ds.h_true)

    @pytest.mark.parametrize("scheme", list(SPLITTINGS), ids=scheme_id)
    def test_divergence_emits_no_warning(self, scheme):
        ds = small_dataset()
        target = LatentTarget(ds.theta_true, ds.data)
        cfg = TrajectoryConfig(scheme, 1e6, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = update(ds.h_true, target, cfg, np.random.default_rng(2))
        assert out.delta_h == math.inf

    def test_return_term_overflow_is_a_divergence(self):
        # below h of about -700 the force's exp(ln(y^2/2) + ln s - h) overflows
        ds = small_dataset()
        target = LatentTarget(ds.theta_true, ds.data)
        h = ds.h_true - 690.0
        sums = path_sums(h, ds.data)
        cfg = TrajectoryConfig("2mni", 0.2, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = hmc_update(h, sums, target, cfg, np.random.default_rng(9))
        assert out.delta_h == math.inf and not out.accepted
        assert out.sums is sums
        np.testing.assert_array_equal(out.h_new, h)

    @pytest.mark.parametrize("step_size,accepted", [(1e-6, True), (50.0, False)])
    def test_input_path_is_not_modified(self, step_size, accepted):
        ds = small_dataset()
        cfg = TrajectoryConfig("2mni", step_size, 3)
        h = ds.h_true.copy()
        out = update(h, LatentTarget(ds.theta_true, ds.data), cfg, np.random.default_rng(5))
        assert out.accepted is accepted
        np.testing.assert_array_equal(h, ds.h_true)

    def test_accepted_path_survives_next_update(self):
        ds = small_dataset()
        target = LatentTarget(ds.theta_true, ds.data)
        cfg = TrajectoryConfig("2lfi", 1e-3, 4)
        rng = np.random.default_rng(6)
        first = update(ds.h_true, target, cfg, rng)
        assert first.accepted
        kept = first.h_new.copy()
        hmc_update(first.h_new, first.sums, target, cfg, rng)
        np.testing.assert_array_equal(first.h_new, kept)

    @pytest.mark.parametrize(
        "step_size,kind", [(0.1, "accepted"), (0.5, "rejected"), (1e6, "divergent")]
    )
    def test_outcome_carries_potential_of_returned_path(self, step_size, kind):
        ds = small_dataset()
        target = LatentTarget(ds.theta_true, ds.data)
        cfg = TrajectoryConfig("2mni", step_size, 3)
        out = update(ds.h_true, target, cfg, np.random.default_rng(8))
        if kind == "divergent":
            assert out.delta_h == math.inf
        else:
            assert math.isfinite(out.delta_h) and out.accepted is (kind == "accepted")
        assert out.sums == path_sums(out.h_new, ds.data)
        assert target.potential_from(out.sums) == rsvhmc.model.potential(out.h_new, ds.theta_true, ds.data)

    def test_energy_identity_in_equilibrium(self):
        # <exp(-delta H)> = 1 for a reversible volume-preserving proposal
        ds = small_dataset()
        target = LatentTarget(ds.theta_true, ds.data)
        cfg = TrajectoryConfig.from_length("2mni", 2.0, 0.25)
        rng = np.random.default_rng(3)
        h = ds.h_true.copy()
        sums = path_sums(h, ds.data)
        for _ in range(300):  # equilibrate
            out = hmc_update(h, sums, target, cfg, rng)
            h, sums = out.h_new, out.sums
        vals = np.empty(4000)
        for i in range(len(vals)):
            out = hmc_update(h, sums, target, cfg, rng)
            h, sums = out.h_new, out.sums
            vals[i] = math.exp(-out.delta_h) if math.isfinite(out.delta_h) else 0.0
        mean = np.mean(vals)
        # jackknife over 20 bins
        bins = vals.reshape(20, -1).mean(axis=1)
        err = math.sqrt(19 / 20 * np.sum((bins - np.mean(bins)) ** 2)) / math.sqrt(20)
        se = np.std(bins, ddof=1) / math.sqrt(20)
        assert abs(mean - 1.0) < 3 * max(se, err)

    def test_acceptance_decreases_with_step_size(self):
        ds = small_dataset()
        target = LatentTarget(ds.theta_true, ds.data)
        rng = np.random.default_rng(4)
        h = ds.h_true.copy()
        sums = path_sums(h, ds.data)
        rates = []
        for dt in (0.1, 0.3, 0.6, 1.0):
            cfg = TrajectoryConfig.from_length("2lfi", 2.0, dt)
            acc = []
            for _ in range(400):
                out = hmc_update(h, sums, target, cfg, rng)
                h, sums = out.h_new, out.sums
                acc.append(out.accepted)
            rates.append(np.mean(acc))
        # statistical check with generous slack
        for lo, hi in zip(rates[1:], rates[:-1]):
            assert lo <= hi + 0.1


class TestRunChain:
    def test_single_keep_is_reproducible(self):
        ds = small_dataset(n=60)
        cfg = TrajectoryConfig.from_length("2mni", 1.0, 0.2)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            runs.append(
                run_chain(ds.data, default_init(ds.data), cfg, 5, 1, rng, h_indices=(9,))
            )
        assert runs[0].draws["phi"][0] == runs[1].draws["phi"][0]
        np.testing.assert_array_equal(runs[0].draws["h_10"], runs[1].draws["h_10"])

    def test_chains_bit_identical_for_same_seed(self):
        ds = small_dataset(n=120)
        cfg = TrajectoryConfig.from_length("2mni", 1.0, 0.2)
        a = run_chain(ds.data, default_init(ds.data), cfg, 10, 50, np.random.default_rng(7))
        b = run_chain(ds.data, default_init(ds.data), cfg, 10, 50, np.random.default_rng(7))
        for name in a.draws:
            np.testing.assert_array_equal(a.draws[name], b.draws[name])
        np.testing.assert_array_equal(a.delta_h, b.delta_h)
        np.testing.assert_array_equal(a.accepted, b.accepted)

    def test_fixed_params_posterior_mean_matches_reference(self):
        # latent-only sampling at the true parameters: a medium run must agree
        # with a longer independent reference run on the h_10 posterior mean
        ds = small_dataset(n=150, seed=23)
        cfg = TrajectoryConfig.from_length("2mni", 2.0, 0.25)
        target = LatentTarget(ds.theta_true, ds.data)

        def h10_draws(n_burn, n_keep, rng):
            h = ds.data.ln_rv - ds.theta_true.xi
            sums = path_sums(h, ds.data)
            draws = np.empty(n_keep)
            for it in range(n_burn + n_keep):
                out = hmc_update(h, sums, target, cfg, rng)
                h, sums = out.h_new, out.sums
                if it >= n_burn:
                    draws[it - n_burn] = h[9]
            return draws

        short = h10_draws(500, 8000, np.random.default_rng(1))
        ref = h10_draws(500, 24000, np.random.default_rng(2))

        def mean_and_se(x):
            from rsvhmc.diagnostics import integrated_act

            est = integrated_act(x)
            # guard against an underestimated window on the shorter chain
            act = est.two_tau_int + est.error
            return np.mean(x), np.std(x, ddof=1) * math.sqrt(act / len(x))

        m1, s1 = mean_and_se(short)
        m2, s2 = mean_and_se(ref)
        assert abs(m1 - m2) < 3 * math.hypot(s1, s2)

    def test_recorded_h_indices(self):
        ds = small_dataset(n=40)
        cfg = TrajectoryConfig.from_length("2lfi", 1.0, 0.2)
        res = run_chain(
            ds.data,
            default_init(ds.data),
            cfg,
            0,
            20,
            np.random.default_rng(0),
            h_indices=(0, 9, 39),
        )
        assert list(res.draws) == [*PARAM_NAMES, "h_1", "h_10", "h_40"]
        assert all(col.shape == (20,) for col in res.draws.values())

    def test_bad_h_index_rejected(self):
        ds = small_dataset(n=40)
        cfg = TrajectoryConfig.from_length("2lfi", 1.0, 0.2)
        with pytest.raises(ValueError, match=r"h index 40 \(column h_41\) out of range"):
            run_chain(
                ds.data,
                default_init(ds.data),
                cfg,
                0,
                1,
                np.random.default_rng(0),
                h_indices=(40,),
            )

    def test_duplicate_h_index_rejected(self):
        ds = small_dataset(n=40)
        cfg = TrajectoryConfig.from_length("2lfi", 1.0, 0.2)
        with pytest.raises(ValueError, match=r"h index 9 \(column h_10\) given twice"):
            run_chain(
                ds.data, default_init(ds.data), cfg, 0, 1, np.random.default_rng(0),
                h_indices=(9, 0, 9),
            )

    def test_series_of_one_refused_before_any_checkpoint(self, tmp_path):
        # run_chain refuses it for the parameter sweep before the first
        # checkpoint, which the warm start would otherwise write
        one = ObservedSeries(y=np.array([0.3]), ln_rv=np.array([-1.0]))
        cfg = TrajectoryConfig.from_length("2lfi", 1.0, 0.2)
        ckpt = tmp_path / "c.npz"
        with pytest.raises(ValueError, match="n >= 2"):
            run_chain(
                one, default_init(one), cfg, 0, 5, np.random.default_rng(0),
                moves=SWEEP, h_indices=(0,), checkpoint_path=ckpt, checkpoint_every=1,
            )
        assert not list(tmp_path.iterdir())

    def test_checkpoint_every_below_one_rejected(self, tmp_path):
        ds = small_dataset(n=40)
        cfg = TrajectoryConfig.from_length("2lfi", 1.0, 0.2)
        with pytest.raises(ValueError, match="checkpoint_every"):
            run_chain(
                ds.data, default_init(ds.data), cfg, 0, 5, np.random.default_rng(0),
                checkpoint_path=tmp_path / "c.npz", checkpoint_every=0,
            )


class TestWarmStart:
    """The first min(20, n_burn) iterations move h alone, at fixed theta and a
    fifth of the step, so a start whose first update is rejected is left."""

    def test_rejected_first_update_does_not_freeze_the_chain(self):
        # without the warm start: acceptance 0, nearly every trajectory
        # diverged, and sigma_u2 sank to 1.7e-4 (truth 0.2); the fixed-theta
        # scan accepts 0.93 at this step size
        ds = simulate(STUDY_PARAMS, 300, seed=91)
        cfg = TrajectoryConfig.from_length("2lfi", 2.0, 0.044)
        res = run_chain(ds.data, default_init(ds.data), cfg, 100, 300, np.random.default_rng(1))
        assert res.acceptance_rate >= 0.8
        assert res.n_divergent == 0
        assert 0.1 <= float(np.mean(res.draws["sigma_u2"])) <= 0.3

    @pytest.mark.parametrize(
        "n_burn,moves",
        [(0, SWEEP), (7, SWEEP), (20, SWEEP), (50, SWEEP), (30, ())],
        ids=["0", "7", "20", "50", "fixed_theta"],
    )
    def test_warm_start_runs_no_sweep_at_a_fifth_of_the_step(self, monkeypatch, n_burn, moves):
        ds = small_dataset(n=60)
        cfg = TrajectoryConfig.from_length("2mni", 1.0, 0.2)
        steps, sweeps = [], []
        update, sweep = rsvhmc.hmc.hmc_update, rsvhmc.hmc.gibbs_sweep

        def recording_update(h, sums, target, cfg, rng):
            steps.append(cfg.step_size)
            return update(h, sums, target, cfg, rng)

        def counting_sweep(*args):
            sweeps.append(1)
            return sweep(*args)

        monkeypatch.setattr(rsvhmc.hmc, "hmc_update", recording_update)
        monkeypatch.setattr(rsvhmc.hmc, "gibbs_sweep", counting_sweep)
        run_chain(ds.data, default_init(ds.data), cfg, n_burn, 30, np.random.default_rng(0), moves=moves)
        # the warm start is the same with or without moves
        n_warm = min(20, n_burn)
        assert steps == [cfg.step_size / 5.0] * n_warm + [cfg.step_size] * (n_burn + 30 - n_warm)
        assert len(sweeps) == (n_burn + 30 - n_warm) * len(moves)


class TestResume:
    """A run aborted after a checkpoint and rerun unchanged equals an uninterrupted run."""

    N_BURN, N_KEEP, EVERY = 30, 100, 20  # checkpoints after 20, 40, ..., 120 of 130

    def run(self, ds, ckpt, rng_seed=5, step_size=0.2, length=1.0, every=EVERY):
        cfg = TrajectoryConfig.from_length("2mni", length, step_size)
        return run_chain(
            ds.data, default_init(ds.data), cfg, self.N_BURN, self.N_KEEP,
            np.random.default_rng(rng_seed), h_indices=(0, 9),
            checkpoint_path=ckpt, checkpoint_every=every,
        )

    def abort_at(self, monkeypatch, iteration):
        """Make the HMC update of ``iteration`` (0-based) raise; every
        iteration has one, the warm start's included."""
        update, calls = rsvhmc.hmc.hmc_update, []

        def aborting(*args, **kwargs):
            calls.append(1)
            if len(calls) == iteration + 1:
                raise KeyboardInterrupt
            return update(*args, **kwargs)

        monkeypatch.setattr(rsvhmc.hmc, "hmc_update", aborting)

    # in burn-in, mid-keep, right after a checkpoint boundary, after the last checkpoint
    @pytest.mark.parametrize("abort", [25, 70, 80, 125])
    def test_resumed_run_matches_uninterrupted(self, tmp_path, monkeypatch, abort):
        ds = small_dataset(n=60)
        unbroken = self.run(ds, None)
        ckpt = tmp_path / "chain.npz"
        with monkeypatch.context() as m:
            self.abort_at(m, abort)
            with pytest.raises(KeyboardInterrupt):
                self.run(ds, ckpt)
        # a stored elapsed time longer than any piece shows that the pieces add up
        with np.load(ckpt, allow_pickle=False) as npz:
            saved = dict(npz)
        stored = float(saved["elapsed"]) + 1000.0
        np.savez(ckpt, **{**saved, "elapsed": np.float64(stored)})
        t0 = time.perf_counter()
        resumed = self.run(ds, ckpt)
        piece = time.perf_counter() - t0
        assert list(resumed.draws) == list(unbroken.draws)
        for name in unbroken.draws:
            np.testing.assert_array_equal(resumed.draws[name], unbroken.draws[name])
        np.testing.assert_array_equal(resumed.delta_h, unbroken.delta_h)
        np.testing.assert_array_equal(resumed.accepted, unbroken.accepted)
        np.testing.assert_array_equal(resumed.final_h, unbroken.final_h)
        assert resumed.acceptance_rate == unbroken.acceptance_rate
        assert resumed.n_divergent == unbroken.n_divergent
        assert resumed.final_theta == unbroken.final_theta
        assert stored <= resumed.wall_time_seconds <= stored + piece

    def test_run_resumed_in_warm_start_matches_uninterrupted(self, tmp_path, monkeypatch):
        # checkpoints after 7 and 14 of the warm start's 20 iterations; the
        # resumed run replays its last 6 from the iteration count alone
        ds = small_dataset(n=60)
        unbroken = self.run(ds, None)
        ckpt = tmp_path / "chain.npz"
        with monkeypatch.context() as m:
            self.abort_at(m, 17)
            with pytest.raises(KeyboardInterrupt):
                self.run(ds, ckpt, every=7)
        with np.load(ckpt, allow_pickle=False) as npz:
            assert '"iteration": 14' in str(npz["state"])
        resumed = self.run(ds, ckpt, every=7)
        for name in unbroken.draws:
            np.testing.assert_array_equal(resumed.draws[name], unbroken.draws[name])
        np.testing.assert_array_equal(resumed.delta_h, unbroken.delta_h)
        np.testing.assert_array_equal(resumed.final_h, unbroken.final_h)
        assert resumed.final_theta == unbroken.final_theta

    def test_resumed_run_counts_earlier_divergences(self, tmp_path, monkeypatch):
        # dt 5 is far past the integrator's stability limit, and so is the warm
        # start's dt 1: every trajectory diverges
        ds = small_dataset(n=60)
        unbroken = self.run(ds, None, step_size=5.0, length=10.0)
        assert unbroken.n_divergent == self.N_BURN + self.N_KEEP
        ckpt = tmp_path / "chain.npz"
        with monkeypatch.context() as m:
            self.abort_at(m, 70)
            with pytest.raises(KeyboardInterrupt):
                self.run(ds, ckpt, step_size=5.0, length=10.0)
        resumed = self.run(ds, ckpt, step_size=5.0, length=10.0)
        assert resumed.n_divergent == unbroken.n_divergent
        np.testing.assert_array_equal(resumed.delta_h, unbroken.delta_h)

    def test_checkpoint_of_other_seed_refused(self, tmp_path, monkeypatch):
        ds = small_dataset(n=60)
        ckpt = tmp_path / "chain.npz"
        with monkeypatch.context() as m:
            self.abort_at(m, 50)
            with pytest.raises(KeyboardInterrupt):
                self.run(ds, ckpt)
        before = ckpt.read_bytes()
        with pytest.raises(ValueError) as exc:
            self.run(ds, ckpt, rng_seed=6)
        assert str(exc.value) == (
            f"cannot resume: {ckpt} was written for other data, settings or seed; "
            "delete it, or choose another output path, to start over"
        )
        assert ckpt.read_bytes() == before

    def test_failed_checkpoint_write_keeps_previous_file(self, tmp_path, monkeypatch):
        ds = small_dataset(n=60)
        ckpt = tmp_path / "chain.npz"
        with monkeypatch.context() as m:
            self.abort_at(m, 50)
            with pytest.raises(KeyboardInterrupt):
                self.run(ds, ckpt)
        before = ckpt.read_bytes()

        def disk_full(fh, **arrays):
            fh.write(b"PK\x03\x04 partial")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(np, "savez", disk_full)
        with pytest.raises(OSError, match="No space"):
            self.run(ds, ckpt)
        assert ckpt.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["chain.npz"]

    def test_checkpoint_directory_created(self, tmp_path):
        ds = small_dataset(n=60)
        ckpt = tmp_path / "new" / "run" / "chain.npz"
        self.run(ds, ckpt)
        with np.load(ckpt, allow_pickle=False) as npz:
            assert len(npz["h"]) == 60

    def test_missing_or_foreign_file_refused(self, tmp_path):
        ds = small_dataset(n=60)
        ckpt = tmp_path / "chain.npz"
        np.savez(ckpt, h=np.zeros(60))
        before = ckpt.read_bytes()
        with pytest.raises(ValueError) as exc:
            self.run(ds, ckpt)
        assert str(exc.value).startswith(f"cannot resume: {ckpt} is not a readable chain checkpoint (")
        assert str(exc.value).endswith("; delete it, or choose another output path, to start over")
        assert ckpt.read_bytes() == before


class TestStartingPath:
    """The updates validate nothing, so run_chain and stepsize_scan check the start."""

    BAD = [
        pytest.param(lambda h: h[:, None], "1-d", id="2-d"),
        pytest.param(lambda h: h[:-1], "length", id="short"),
        pytest.param(lambda h: np.where(np.arange(len(h)) == 7, np.nan, h), "at index 7", id="nan"),
        pytest.param(lambda h: np.where(np.arange(len(h)) == 3, -np.inf, h), "at index 3", id="-inf"),
    ]

    @pytest.mark.parametrize("spoil,message", BAD)
    def test_run_chain_refuses(self, spoil, message):
        ds = small_dataset(n=40)
        theta, h = default_init(ds.data)
        cfg = TrajectoryConfig.from_length("2lfi", 1.0, 0.2)
        with pytest.raises(ValueError, match=message):
            run_chain(ds.data, (theta, spoil(h)), cfg, 0, 5, np.random.default_rng(0))

    @pytest.mark.parametrize("spoil,message", BAD)
    def test_stepsize_scan_refuses(self, spoil, message):
        ds = small_dataset(n=40)
        with pytest.raises(ValueError, match=message):
            stepsize_scan(
                ds.data, ds.theta_true, "2lfi", [0.2],
                n_traj=10, n_warm=5, h0=spoil(ds.h_true),
            )


class TestCarriedPotential:
    """Against ``hmc_update_recomputing``, which builds the target and the
    sums of both trajectory ends per update."""

    def test_run_chain_matches_recomputing_loop(self):
        ds = small_dataset(n=80)
        cfg = TrajectoryConfig.from_length("2mni", 1.0, 0.2)
        n_iter, h_indices = 60, (0, 9, 79)
        res = run_chain(
            ds.data, default_init(ds.data), cfg, 0, n_iter,
            np.random.default_rng(12), h_indices=h_indices,
        )
        rng = np.random.default_rng(12)
        theta, h = default_init(ds.data)
        prior = PriorConfig()
        for k in range(n_iter):
            out = hmc_update_recomputing(h, theta, ds.data, cfg, rng)
            h = out.h_new
            theta = gibbs_sweep(path_sums(h, ds.data), theta, prior, rng)
            for name, value in theta.as_dict().items():
                assert res.draws[name][k] == value
            for i in h_indices:
                assert res.draws[f"h_{i + 1}"][k] == h[i]
            assert res.delta_h[k] == out.delta_h
            assert res.accepted[k] == out.accepted
        np.testing.assert_array_equal(res.final_h, h)
        assert 0 < res.accepted.sum() < n_iter

    @pytest.mark.parametrize(
        "scheme,grid",
        [("2lfi", [0.05, 0.3]), ("2mni", [0.2, 0.6])],
        ids=["2lfi", "2mni"],
    )
    def test_stepsize_scan_matches_recomputing_loop(self, monkeypatch, scheme, grid):
        ds = small_dataset(n=80)

        def scan():
            return stepsize_scan(
                ds.data, ds.theta_true, scheme, grid, total_length=1.0, n_traj=60, n_warm=40, seed=3
            )

        carried = scan()
        calls = []

        def recomputing(h, sums, target, cfg, rng):
            calls.append((target.phi, target.mu, target.xi, cfg.scheme))
            return hmc_update_recomputing(h, ds.theta_true, ds.data, cfg, rng)

        monkeypatch.setattr(rsvhmc.hmc, "hmc_update", recomputing)
        assert scan() == carried
        # once per trajectory: pre-warm, warm-up and both grid points
        theta = ds.theta_true
        assert calls == [(theta.phi, theta.mu, theta.xi, scheme)] * (min(100, 40) + 40 + 2 * 60)
        assert any(0.0 < row.acceptance < 1.0 for row in carried.rows)


class TestOperationCount:
    """Every trajectory goes through the module attribute ``hmc_update``, once."""

    def count(self, monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    @pytest.mark.parametrize("n_warm", [30, 130])
    def test_stepsize_scan(self, monkeypatch, n_warm):
        ds = small_dataset(n=40)
        updates = self.count(monkeypatch, rsvhmc.hmc, "hmc_update")
        builds = self.count(monkeypatch, rsvhmc.model, "LatentTarget")
        grid, n_traj = [0.1, 0.2, 0.4], 20
        stepsize_scan(
            ds.data, ds.theta_true, "2lfi", grid,
            total_length=1.0, n_traj=n_traj, n_warm=n_warm, seed=4,
        )
        assert len(updates) == min(100, n_warm) + n_warm + len(grid) * n_traj
        # one per phase: pre-warm, warm-up and each grid point
        assert len(builds) == 2 + len(grid)

    def test_stepsize_scan_warms_once_at_the_smallest_step(self, monkeypatch):
        ds = small_dataset(n=40)
        steps = []
        original = rsvhmc.hmc.hmc_update

        def recording(h, sums, target, cfg, rng):
            steps.append(cfg.step_size)
            return original(h, sums, target, cfg, rng)

        monkeypatch.setattr(rsvhmc.hmc, "hmc_update", recording)
        grid, n_traj, n_warm = [0.4, 0.2, 0.1], 20, 30
        # a length of 2 makes every grid step exact (5, 10 and 20 steps)
        stepsize_scan(
            ds.data, ds.theta_true, "2lfi", grid,
            total_length=2.0, n_traj=n_traj, n_warm=n_warm, seed=4,
        )
        expected = [0.02] * min(100, n_warm) + [0.1] * n_warm
        for dt in grid:
            expected += [dt] * n_traj
        assert steps == pytest.approx(expected, rel=1e-12)

    def test_run_chain(self, monkeypatch):
        ds = small_dataset(n=40)
        updates = self.count(monkeypatch, rsvhmc.hmc, "hmc_update")
        builds = self.count(monkeypatch, rsvhmc.model, "LatentTarget")
        cfg = TrajectoryConfig.from_length("2lfi", 1.0, 0.2)
        run_chain(ds.data, default_init(ds.data), cfg, 7, 11, np.random.default_rng(4))
        assert len(updates) == 7 + 11
        # one for the 7 warm-start iterations, then one per new theta: each of
        # the 11 sweeps but the last hands the next iteration a new theta
        assert len(builds) == 1 + (11 - 1)

    def test_run_chain_takes_each_path_sums_once(self, monkeypatch):
        # the starting path, then each trajectory's end; V comes from those sums
        ds = small_dataset(n=40)
        sums = self.count(monkeypatch, rsvhmc.model, "path_sums")
        cfg = TrajectoryConfig.from_length("2lfi", 1.0, 0.1)
        res = run_chain(ds.data, default_init(ds.data), cfg, 7, 30, np.random.default_rng(4))
        assert len(sums) == 1 + 7 + 30
        assert 0 < res.accepted.sum() < 30  # both outcomes carry sums
