import ast
import datetime as dt
import json
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rsvhmc.hmc
from rsvhmc import chainio
from rsvhmc.cli import main
from rsvhmc.diagnostics import stepsize_scan
from rsvhmc.integrators import DEFAULT_LAMBDA
from rsvhmc.synth import STUDY_PARAMS


def run(*argv):
    return main([str(a) for a in argv])


class TestSimulate:
    def test_writes_series_and_metadata(self, tmp_path):
        out = tmp_path / "data.csv"
        assert run("simulate", "--out", out, "--n", "50", "--seed", "3") == 0
        series = chainio.read_series(out)
        assert series.n == 50
        meta = chainio.read_metadata(out)
        assert meta["theta_true.phi"] == "0.93"
        assert meta["seed"] == "3"

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("simulate", "--out", a, "--n", "100", "--seed", "9")
        run("simulate", "--out", b, "--n", "100", "--seed", "9")
        assert a.read_bytes() == b.read_bytes()

    def test_minimal_n(self, tmp_path):
        assert run("simulate", "--out", tmp_path / "d.csv", "--n", "2") == 0

    def test_rejects_n_below_two(self, tmp_path):
        assert run("simulate", "--out", tmp_path / "d.csv", "--n", "1") == 1

    def test_write_h(self, tmp_path):
        out = tmp_path / "data.csv"
        run("simulate", "--out", out, "--n", "20", "--write-h")
        cols = chainio.read_columns(tmp_path / "data_h.csv")
        assert len(cols["h"]) == 20


class TestEstimate:
    def test_ess_and_seconds_per_ess(self, tmp_path):
        data = tmp_path / "data.csv"
        run("simulate", "--out", data, "--n", "60", "--seed", "8")
        out = tmp_path / "run"
        # dt 5 is far past the integrator's stability limit: every trajectory
        # diverges, so h_10 never moves and has no ACT, while theta's columns do
        rc = run(
            "estimate", "--data", data, "--out", out,
            "--n-burn", "10", "--n-keep", "400", "--step-size", "5",
            "--total-length", "10",
        )
        assert rc == 0
        summary = chainio.read_table(out / "summary.csv")
        rows = list(zip(summary["parameter"], summary["two_tau_int"], summary["ess"], summary["note"]))
        ess = {name: float(e) for name, two_tau, e, _ in rows if two_tau}
        assert 0 < len(ess) < len(rows)  # columns with and without an ACT
        for name, two_tau, e, note in rows:
            if two_tau:
                assert float(e) == 400 / float(two_tau) and note == ""
            else:
                assert e == "" and note
        meta = chainio.read_metadata(out / "chain.csv")
        keys = list(meta)
        after_wall = keys[keys.index("wall_time_seconds") + 1 :]
        assert after_wall == [f"s_per_ess.{name}" for name in ess]
        wall = float(meta["wall_time_seconds"])
        for name, e in ess.items():
            assert float(meta[f"s_per_ess.{name}"]) == wall / e

    def test_smoke_run_writes_all_files(self, tmp_path):
        data = tmp_path / "data.csv"
        run("simulate", "--out", data, "--n", "60", "--seed", "1")
        out = tmp_path / "run"
        rc = run(
            "estimate", "--data", data, "--out", out,
            "--n-burn", "5", "--n-keep", "10", "--step-size", "0.3",
            "--total-length", "1.0",
        )
        assert rc == 0
        assert (out / "chain.csv").exists()
        assert (out / "summary.csv").exists()
        meta = chainio.read_metadata(out / "chain.csv")
        assert meta["scheme"] == "2mni"
        assert float(meta["acceptance_rate"]) <= 1.0
        prior = {k: meta[k] for k in ("a_eta", "b_eta", "a_u", "b_u")}
        assert prior == {"a_eta": "2.5", "b_eta": "0.025", "a_u": "2.5", "b_u": "0.025"}
        cols = chainio.read_columns(out / "chain.csv")
        assert len(cols["phi"]) == 10
        assert "h_10" in cols

    @pytest.mark.parametrize(
        "flags",
        [
            ("--step-size", "nan"),
            ("--step-size", "inf"),
            ("--total-length", "nan"),
            ("--total-length", "inf"),
        ],
    )
    def test_non_finite_trajectory_rejected(self, tmp_path, flags):
        data = tmp_path / "data.csv"
        run("simulate", "--out", data, "--n", "30", "--seed", "1")
        out = tmp_path / "run"
        rc = run("estimate", "--data", data, "--out", out, "--n-burn", "2", "--n-keep", "5", *flags)
        assert rc == 1
        assert not (out / "chain.csv").exists()

    # criterion 9's data. 2LFI at dt 1 is past its stability limit (the AR(1)
    # prior's stiffest mode has omega dt ~ 6 > 2): all but a few trajectories
    # after the warm start diverge. 2MNI at dt 0.25 stays inside its limit.
    @pytest.mark.parametrize(
        "scheme,step_size,diverged",
        [
            pytest.param("2lfi", "1.0", True, id="2lfi-True"),
            pytest.param("2mni", "0.25", False, id="2mni-False"),
        ],
    )
    def test_divergences_counted_and_warned(self, tmp_path, capsys, scheme, step_size, diverged):
        data = tmp_path / "data.csv"
        run("simulate", "--out", data, "--n", "300", "--seed", "91")
        out = tmp_path / "run"
        rc = run(
            "estimate", "--data", data, "--out", out, "--scheme", scheme,
            "--step-size", step_size, "--total-length", "2.0",
            "--n-burn", "200", "--n-keep", "2000", "--seed", "92",
        )
        assert rc == 0
        n_divergent = int(chainio.read_metadata(out / "chain.csv")["n_divergent"])
        err = capsys.readouterr().err
        if diverged:
            assert n_divergent >= 2000
            assert f"warning: {n_divergent} of 2200 trajectories diverged" in err
        else:
            assert n_divergent == 0
            assert "warning" not in err

    def test_determinism_byte_identical_chains(self, tmp_path):
        data = tmp_path / "data.csv"
        run("simulate", "--out", data, "--n", "60", "--seed", "2")
        for name in ("r1", "r2"):
            rc = run(
                "estimate", "--data", data, "--out", tmp_path / name,
                "--n-burn", "10", "--n-keep", "50", "--step-size", "0.3",
                "--total-length", "1.0", "--seed", "77",
            )
            assert rc == 0
        assert (tmp_path / "r1/chain.csv").read_bytes() == (tmp_path / "r2/chain.csv").read_bytes()

    def test_chain_file_roundtrip_exact(self, tmp_path):
        data = tmp_path / "data.csv"
        run("simulate", "--out", data, "--n", "40", "--seed", "5")
        out = tmp_path / "run"
        run(
            "estimate", "--data", data, "--out", out,
            "--n-burn", "0", "--n-keep", "20", "--step-size", "0.25",
            "--total-length", "1.0",
        )
        cols = chainio.read_columns(out / "chain.csv")
        # a write-read cycle of the parsed values must be lossless
        header = (out / "chain.csv").read_text().splitlines()[0].split(",")
        rows = zip(*(cols[name] for name in header))
        second = tmp_path / "copy.csv"
        chainio.write_table(second, header, rows)
        cols2 = chainio.read_columns(second)
        for name in header:
            np.testing.assert_array_equal(cols[name], cols2[name])

    def test_missing_data_is_validation_error(self, tmp_path):
        rc = run("estimate", "--data", tmp_path / "nope.csv", "--out", tmp_path / "o")
        assert rc == 1

    def test_invalid_record_h(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        run("simulate", "--out", data, "--n", "20", "--seed", "1")
        rc = run(
            "estimate", "--data", data, "--out", tmp_path / "o",
            "--n-keep", "5", "--record-h", "99",
        )
        assert rc == 1
        assert not (tmp_path / "o" / "chain.csv").exists()
        assert "h_99" in capsys.readouterr().err

    def test_duplicate_record_h(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        run("simulate", "--out", data, "--n", "20", "--seed", "1")
        rc = run(
            "estimate", "--data", data, "--out", tmp_path / "o",
            "--n-keep", "5", "--record-h", "1,1",
        )
        assert rc == 1
        assert not (tmp_path / "o" / "chain.csv").exists()
        assert "h_1" in capsys.readouterr().err

    def test_checkpoint_every_zero_is_validation_error(self, tmp_path):
        data = tmp_path / "data.csv"
        run("simulate", "--out", data, "--n", "20", "--seed", "1")
        rc = run(
            "estimate", "--data", data, "--out", tmp_path / "o",
            "--n-keep", "5", "--checkpoint-every", "0",
        )
        assert rc == 1

    def test_series_of_one_refused(self, tmp_path):
        data = tmp_path / "one.csv"
        chainio.write_table(data, ["t", "y", "ln_rv"], [(1, 0.1, -1.0)])
        out = tmp_path / "o"
        rc = run(
            "estimate", "--data", data, "--out", out, "--record-h", "1",
            "--n-burn", "0", "--n-keep", "5",
        )
        assert rc == 1
        assert not (out / "chain.csv").exists()

    @pytest.mark.parametrize(
        "rows,flags",
        [
            (20, ("--checkpoint-every", "0")),
            (20, ("--n-keep", "0")),
            (20, ("--n-burn", "-1")),
            (20, ("--record-h", "99")),
            (1, ("--record-h", "1")),
            # refused for the parameter sweep before the first checkpoint, the
            # warm start's included
            (1, ("--record-h", "1", "--checkpoint-every", "1")),
            (1, ("--record-h", "1", "--n-burn", "5", "--checkpoint-every", "1")),
        ],
        ids=[
            "checkpoint_every_0", "n_keep_0", "n_burn_negative", "record_h_99", "one_row_series",
            "one_row_series_checkpoint_every_1", "one_row_series_warm_start",
        ],
    )
    def test_refusal_leaves_no_out_dir(self, tmp_path, rows, flags):
        data = tmp_path / "data.csv"
        chainio.write_table(data, ["t", "y", "ln_rv"], [(t, 0.1, -1.0 + 0.01 * t) for t in range(rows)])
        out = tmp_path / "o"
        rc = run("estimate", "--data", data, "--out", out, "--n-burn", "0", "--n-keep", "5", *flags)
        assert rc == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--a-eta", "--b-eta", "--a-u", "--b-u"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_prior_refused_before_sampling(self, tmp_path, capsys, flag, value):
        data = tmp_path / "data.csv"
        run("simulate", "--out", data, "--n", "20", "--seed", "1")
        out = tmp_path / "o"
        rc = run("estimate", "--data", data, "--out", out, "--n-keep", "5", flag, value)
        assert rc == 1
        assert not out.exists()
        assert flag[2:].replace("-", "_") in capsys.readouterr().err


class TestSeriesInput:
    @pytest.mark.parametrize("command", ["estimate", "scan"])
    @pytest.mark.parametrize("column", ["y", "rv"])
    def test_non_numeric_cell_refused(self, tmp_path, capsys, command, column):
        data = tmp_path / "data.csv"
        cells = {"y": ["0.01", "-0.02", "0.005"], "rv": ["0.0002", "0.0003", "0.0001"]}
        cells[column][1] = "xyz"
        rows = zip("123", cells["y"], cells["rv"])
        data.write_text("t,y,rv\n" + "".join(f"{t},{y},{rv}\n" for t, y, rv in rows))
        out = tmp_path / "o"
        grid = ("--grid", "0.3") if command == "scan" else ()
        assert run(command, "--data", data, "--out", out, *grid) == 1
        assert not out.exists()
        assert f"error: {data}: column {column!r} has a non-numeric cell" in capsys.readouterr().err

    def test_single_kept_draw_gets_notes_not_warnings(self, tmp_path):
        data = tmp_path / "data.csv"
        run("simulate", "--out", data, "--n", "30", "--seed", "1")
        out = tmp_path / "run"
        rc = run(
            "estimate", "--data", data, "--out", out, "--n-burn", "0", "--n-keep", "1",
            "--step-size", "0.3", "--total-length", "1.0",
        )
        assert rc == 0
        summary = chainio.read_table(out / "summary.csv")
        assert "phi" in summary["parameter"] and "h_10" in summary["parameter"]
        assert set(summary["note"]) == {"need at least 2 samples, got 1"}
        assert set(summary["mean"]) == set(summary["sd"]) == {"nan"}


SPRUNG = []


def _spring():
    SPRUNG.append(True)


class _PickleTrap:
    """Unpickling this object calls ``_spring``."""

    def __reduce__(self):
        return (_spring, ())


class TestResume:
    ESTIMATE = (
        "--n-burn", "10", "--n-keep", "200", "--step-size", "0.3",
        "--total-length", "1.0", "--seed", "77", "--checkpoint-every", "50",
    )

    def estimate(self, data, out, *extra):
        return run("estimate", "--data", data, "--out", out, *self.ESTIMATE, *extra)

    @pytest.fixture
    def aborted(self, tmp_path, monkeypatch):
        """A data file and a run directory left with a checkpoint by an abort."""
        data = tmp_path / "data.csv"
        run("simulate", "--out", data, "--n", "60", "--seed", "2")
        sweep, calls = rsvhmc.hmc.gibbs_sweep, []

        def aborting(*args, **kwargs):
            calls.append(1)
            if len(calls) == 130:
                raise RuntimeError("aborted")
            return sweep(*args, **kwargs)

        out = tmp_path / "run"
        with monkeypatch.context() as m:
            m.setattr(rsvhmc.hmc, "gibbs_sweep", aborting)
            assert self.estimate(data, out) == 2
        assert (out / "checkpoint.npz").exists()
        assert not (out / "chain.csv").exists()
        return data, out

    def test_resumed_outputs_match_uninterrupted_run(self, tmp_path, aborted):
        data, out = aborted
        assert self.estimate(data, out) == 0
        assert self.estimate(data, tmp_path / "whole") == 0
        for name in ("chain.csv", "summary.csv"):
            assert (out / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()
        meta = chainio.read_metadata(out / "chain.csv")
        whole = chainio.read_metadata(tmp_path / "whole" / "chain.csv")
        assert meta.pop("wall_time_seconds") and whole.pop("wall_time_seconds")
        # s_per_ess.<column> is wall time over ESS: its keys must match, not its values
        per_ess = [k for k in meta if k.startswith("s_per_ess.")]
        assert per_ess and per_ess == [k for k in whole if k.startswith("s_per_ess.")]
        for key in per_ess:
            meta.pop(key), whole.pop(key)
        assert meta == whole
        assert not (out / "checkpoint.npz").exists()

    def refused(self, data, out, *change):
        """Rerun with ``change`` and no other flag: exit 1, the checkpoint kept as it was."""
        ckpt = out / "checkpoint.npz"
        before = ckpt.read_bytes()
        assert self.estimate(data, out, *change) == 1
        assert ckpt.read_bytes() == before
        assert sorted(p.name for p in out.iterdir()) == ["checkpoint.npz"]

    @pytest.mark.parametrize(
        "change",
        [("--seed", "78"), ("--step-size", "0.25"), ("--record-h", "10,20"), ("--n-keep", "201")],
    )
    def test_changed_flags_refused(self, aborted, change, capsys):
        data, out = aborted
        capsys.readouterr()
        self.refused(data, out, *change)
        assert capsys.readouterr().err == (
            f"error: cannot resume: {out / 'checkpoint.npz'} was written for other data, "
            "settings or seed; delete it, or choose another output path, to start over\n"
        )

    def test_changed_data_refused(self, tmp_path, aborted):
        _, out = aborted
        other = tmp_path / "other.csv"
        run("simulate", "--out", other, "--n", "60", "--seed", "3")
        self.refused(other, out)

    def test_truncated_checkpoint_refused(self, aborted, capsys):
        data, out = aborted
        ckpt = out / "checkpoint.npz"
        ckpt.write_bytes(ckpt.read_bytes()[: ckpt.stat().st_size // 2])
        capsys.readouterr()
        self.refused(data, out)
        assert f"error: cannot resume: {ckpt} is not a readable chain checkpoint" in capsys.readouterr().err

    def refused_as_pickled(self, data, out, capsys):
        capsys.readouterr()
        self.refused(data, out)
        assert not SPRUNG
        # no advice to unpickle a file the program refuses to unpickle
        assert capsys.readouterr().err == (
            f"error: cannot resume: {out / 'checkpoint.npz'} is not a readable chain checkpoint (it "
            "holds pickled data, which is never loaded); delete it, or choose another output path, "
            "to start over\n"
        )

    def test_pickle_checkpoint_is_never_unpickled(self, aborted, capsys):
        data, out = aborted
        (out / "checkpoint.npz").write_bytes(pickle.dumps(_PickleTrap()))
        self.refused_as_pickled(data, out, capsys)

    def test_object_array_in_checkpoint_is_never_unpickled(self, aborted, capsys):
        data, out = aborted
        np.savez(out / "checkpoint.npz", state=np.array([_PickleTrap()], dtype=object))
        self.refused_as_pickled(data, out, capsys)


class TestScan:
    def test_scan_writes_rows_and_optimum(self, tmp_path):
        data = tmp_path / "data.csv"
        run("simulate", "--out", data, "--n", "80", "--seed", "4")
        out = tmp_path / "scan.csv"
        rc = run(
            "scan", "--data", data, "--out", out, "--grid", "0.2,0.4", "--scheme", " 2LFI",
            "--n-traj", "100", "--n-warm", "20", "--total-length", "1.0", "--seed", "6",
        )
        assert rc == 0
        cols = chainio.read_columns(out)
        assert len(cols["step_size"]) == 2
        np.testing.assert_allclose(
            cols["efficiency"], cols["acceptance"] * cols["step_size"]
        )
        meta = chainio.read_metadata(out)
        assert "optimum.step_size" in meta
        assert meta["scheme"] == "2lfi"  # the parsed scheme, not the spelling given
        # every setting of the scan, so it can be rerun from its metadata
        assert meta["total_length"] == "1.0"
        assert meta["lambda"] == repr(DEFAULT_LAMBDA)
        assert meta["n_traj"] == "100"
        assert meta["n_warm"] == "20"
        assert meta["seed"] == "6"

    def test_theta_from_flags_when_no_metadata(self, tmp_path):
        data = tmp_path / "bare.csv"
        rng = np.random.default_rng(0)
        chainio.write_table(
            data,
            ["t", "y", "ln_rv"],
            ((t, rng.normal(), rng.normal()) for t in range(50)),
        )
        rc = run(
            "scan", "--data", data, "--out", tmp_path / "s.csv", "--grid", "0.3",
            "--n-traj", "50", "--n-warm", "10",
            "--phi", "0.9", "--mu", "0", "--xi", "0",
            "--sigma-eta2", "0.1", "--sigma-u2", "0.2",
        )
        assert rc == 0

    def test_theta_neither_flagged_nor_in_metadata_refused(self, tmp_path, capsys):
        data = tmp_path / "bare.csv"
        chainio.write_table(data, ["t", "y", "ln_rv"], [(t, 0.01 * t, -1.0) for t in range(20)])
        out = tmp_path / "s.csv"
        assert run("scan", "--data", data, "--out", out, "--grid", "0.3", "--phi", "0.9") == 1
        err = capsys.readouterr().err
        assert err == "error: parameter mu not given and not present in dataset metadata\n"
        assert not out.exists()

    def test_library_warnings_printed(self, tmp_path, capsys):
        # 2LFI at a step of 2/3 sends every trajectory out of float64 range
        data = tmp_path / "data.csv"
        run("simulate", "--out", data, "--n", "300", "--seed", "5")
        out = tmp_path / "s.csv"
        grid = ("--grid", "0.05,0.1,0.6", "--n-traj", "60", "--n-warm", "20")
        assert run("scan", "--data", data, "--out", out, "--scheme", "2lfi", *grid) == 0
        err = capsys.readouterr().err
        assert "warning: step_size=0.666667: 60 of 60 trajectories diverged\n" in err
        # simulate's default parameters, which scan reads back from the metadata
        result = stepsize_scan(
            chainio.read_series(data), STUDY_PARAMS, "2lfi", [0.05, 0.1, 0.6], n_traj=60, n_warm=20
        )
        assert err == "".join(f"warning: {w}\n" for w in result.warnings)

    def test_negative_n_warm_refused(self, tmp_path):
        data = tmp_path / "data.csv"
        run("simulate", "--out", data, "--n", "20")
        out = tmp_path / "s.csv"
        rc = run("scan", "--data", data, "--out", out, "--grid", "0.3", "--n-warm", "-5")
        assert rc == 1
        assert not out.exists()

    def test_metadata_line_without_separator_refused(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        run("simulate", "--out", data, "--n", "20")
        meta = chainio.meta_path(data)
        lines = meta.read_text().splitlines()
        assert lines[0].startswith("theta_true.phi = ")
        meta.write_text("\n".join(["theta_true.phi", *lines[1:]]) + "\n")
        out = tmp_path / "s.csv"
        assert run("scan", "--data", data, "--out", out, "--grid", "0.3") == 1
        assert f"error: {meta}:1: expected 'key = value'" in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_theta_in_metadata_refused(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        run("simulate", "--out", data, "--n", "20")
        meta = chainio.meta_path(data)
        lines = meta.read_text().splitlines()
        assert lines[1].startswith("theta_true.mu = ")
        meta.write_text("\n".join([lines[0], "theta_true.mu = abc", *lines[2:]]) + "\n")
        out = tmp_path / "s.csv"
        assert run("scan", "--data", data, "--out", out, "--grid", "0.3") == 1
        assert f"error: {meta}: theta_true.mu is not a number: 'abc'" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_grid(self, tmp_path):
        data = tmp_path / "data.csv"
        run("simulate", "--out", data, "--n", "20")
        for grid in ("0,-1", "nan", "0.1,inf", "-inf"):
            assert run("scan", "--data", data, "--out", tmp_path / "s.csv", f"--grid={grid}") == 1
        assert not (tmp_path / "s.csv").exists()


class TestRvBuild:
    def _tick_file(self, path):
        rows = ["timestamp,price"]
        for slope, day in ((0.0001, "2024-01-02"), (-0.0002, "2024-01-03")):
            for minute in range(0, 300, 1):
                hh = 9 + minute // 60
                mm = minute % 60
                price = 100.0 * math.exp(slope * minute)
                rows.append(f"{day}T{hh:02d}:{mm:02d}:00,{price!r}")
        path.write_text("\n".join(rows) + "\n")

    def test_tick_input_known_rv(self, tmp_path):
        ticks = tmp_path / "ticks.csv"
        self._tick_file(ticks)
        out = tmp_path / "series.csv"
        assert run("rv-build", "--ticks", ticks, "--out", out, "--grid-seconds", "60") == 0
        cols = chainio.read_columns(out)
        # linear log-price with slope 1e-4/min over 299 intervals
        assert cols["rv"][0] == pytest.approx(299 * (1e-4) ** 2, rel=1e-9)
        assert cols["y"][0] == pytest.approx(299 * 1e-4, rel=1e-9)
        meta = chainio.read_metadata(out)
        assert len(meta["hansen_lunde_c"].split(".")[1]) == 4
        assert len(meta["neg_log_c"].split(".")[1]) == 4

    @pytest.mark.parametrize("grid_seconds", ["0", "-60"])
    def test_grid_below_one_second_refused(self, tmp_path, capsys, grid_seconds):
        ticks = tmp_path / "ticks.csv"
        self._tick_file(ticks)
        out = tmp_path / "series.csv"
        rc = run("rv-build", "--ticks", ticks, "--out", out, f"--grid-seconds={grid_seconds}")
        assert rc == 1
        assert not out.exists()
        assert "grid_seconds must be >= 1" in capsys.readouterr().err

    def test_daily_passthrough(self, tmp_path):
        daily = tmp_path / "daily.csv"
        chainio.write_table(
            daily,
            ["date", "y", "rv"],
            [
                ("2024-01-02", 0.01, 0.0002),
                ("2024-01-03", -0.02, 0.0003),
                ("2024-01-04", 0.005, 0.0001),
            ],
        )
        out = tmp_path / "series.csv"
        assert run("rv-build", "--daily", daily, "--out", out) == 0
        cols = chainio.read_columns(out)
        np.testing.assert_allclose(cols["rv"], [0.0002, 0.0003, 0.0001])
        np.testing.assert_allclose(cols["ln_rv"], np.log(cols["rv"]))
        c = float(chainio.read_metadata(out)["hansen_lunde_c_exact"])
        np.testing.assert_allclose(cols["rv_adj"], c * cols["rv"], rtol=1e-12)

    @pytest.mark.parametrize(
        "dates,message",
        [
            (("2024-01-02", "2024-01-02", "2024-01-03"), "2024-01-02 follows 2024-01-02"),
            (("2024-01-03", "2024-01-02", "2024-01-04"), "2024-01-02 follows 2024-01-03"),
        ],
        ids=["repeated", "out_of_order"],
    )
    def test_daily_dates_must_increase(self, tmp_path, capsys, dates, message):
        daily = tmp_path / "daily.csv"
        rows = zip(dates, (0.01, -0.02, 0.005), (0.0002, 0.0003, 0.0001))
        chainio.write_table(daily, ["date", "y", "rv"], rows)
        out = tmp_path / "series.csv"
        assert run("rv-build", "--daily", daily, "--out", out) == 1
        assert not out.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("column", ["y", "rv"])
    def test_daily_non_numeric_cell_refused(self, tmp_path, capsys, column):
        daily = tmp_path / "daily.csv"
        cells = {"y": ["0.01", "-0.02"], "rv": ["0.0002", "0.0003"]}
        cells[column][1] = "abc"
        dates = ("2024-01-02", "2024-01-03")
        lines = ["date,y,rv"] + [",".join(row) for row in zip(dates, cells["y"], cells["rv"])]
        daily.write_text("\n".join(lines) + "\n")
        out = tmp_path / "series.csv"
        assert run("rv-build", "--daily", daily, "--out", out) == 1
        assert not out.exists()
        assert f"column {column!r}" in capsys.readouterr().err

    def test_daily_numeric_date_refused(self, tmp_path, capsys):
        daily = tmp_path / "daily.csv"
        rows = [(20240102, 0.01, 0.0002), (20240103, -0.02, 0.0003)]
        chainio.write_table(daily, ["date", "y", "rv"], rows)
        out = tmp_path / "series.csv"
        assert run("rv-build", "--daily", daily, "--out", out) == 1
        assert not out.exists()
        assert "column 'date'" in capsys.readouterr().err

    def test_empty_tick_file_refused(self, tmp_path, capsys):
        ticks = tmp_path / "ticks.csv"
        ticks.write_text("")
        out = tmp_path / "series.csv"
        assert run("rv-build", "--ticks", ticks, "--out", out) == 1
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {ticks}: empty file, no header\n"

    @pytest.mark.parametrize("price", ["nan", "inf"])
    def test_non_finite_price_refused_at_its_timestamp(self, tmp_path, capsys, price):
        ticks = tmp_path / "ticks.csv"
        self._tick_file(ticks)
        lines = ticks.read_text().splitlines()
        assert lines[400].startswith("2024-01-03T10:39:00,")
        lines[400] = lines[400].split(",")[0] + f",{price}"
        ticks.write_text("\n".join(lines) + "\n")
        out = tmp_path / "series.csv"
        assert run("rv-build", "--ticks", ticks, "--out", out) == 1
        err = capsys.readouterr().err
        assert err == f"error: {ticks}: price at 2024-01-03 10:39:00 must be finite and > 0\n"
        assert not out.exists()
        assert not chainio.meta_path(out).exists()

    def test_blank_tick_lines_skipped(self, tmp_path):
        ticks, spaced = tmp_path / "ticks.csv", tmp_path / "spaced.csv"
        self._tick_file(ticks)
        lines = ticks.read_text().splitlines()
        spaced.write_text("\n".join([*lines[:150], "", *lines[150:], ""]) + "\n")
        out, out_spaced = tmp_path / "series.csv", tmp_path / "series_spaced.csv"
        assert run("rv-build", "--ticks", ticks, "--out", out) == 0
        assert run("rv-build", "--ticks", spaced, "--out", out_spaced) == 0
        assert out_spaced.read_bytes() == out.read_bytes()
        assert chainio.meta_path(out_spaced).read_bytes() == chainio.meta_path(out).read_bytes()

    def test_tick_row_with_extra_cell_refused_at_its_line(self, tmp_path, capsys):
        ticks = tmp_path / "ticks.csv"
        self._tick_file(ticks)
        lines = ticks.read_text().splitlines()
        lines[400] += ",7"
        ticks.write_text("\n".join(lines) + "\n")
        out = tmp_path / "series.csv"
        assert run("rv-build", "--ticks", ticks, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {ticks}:401: 3 cells for 2 columns\n"
        assert not out.exists()
        assert not chainio.meta_path(out).exists()

    def test_single_tick_day_rejected_not_fatal(self, tmp_path, capsys):
        ticks = tmp_path / "ticks.csv"
        self._tick_file(ticks)
        with open(ticks, "a") as fh:
            fh.write("2024-01-04T10:00:00,101.0\n")
        out = tmp_path / "series.csv"
        assert run("rv-build", "--ticks", ticks, "--out", out) == 0
        err = capsys.readouterr().err
        assert "rejected 2024-01-04: fewer than 2 grid points at 60s spacing\n" in err
        assert err.count("2024-01-04") == 1
        assert len(chainio.read_columns(out)["rv"]) == 2
        assert chainio.read_metadata(out)["n_rejected"] == "1"

    def test_repeated_timestamp_day_rejected_not_fatal(self, tmp_path, capsys):
        ticks = tmp_path / "ticks.csv"
        self._tick_file(ticks)
        lines = ticks.read_text().splitlines()
        # a second 2024-01-03 tick at 09:00:00, right after the first
        lines.insert(lines.index("2024-01-03T09:00:00,100.0") + 1, "2024-01-03T09:00:00,100.5")
        # and a third day, so two days remain for the Hansen-Lunde factor
        lines += [f"2024-01-04T09:0{m}:00,{100.0 + m!r}" for m in range(5)]
        ticks.write_text("\n".join(lines) + "\n")
        out = tmp_path / "series.csv"
        assert run("rv-build", "--ticks", ticks, "--out", out) == 0
        err = capsys.readouterr().err
        assert "rejected 2024-01-03: timestamps must be strictly increasing\n" in err
        assert err.count("2024-01-03") == 1
        cols = chainio.read_columns(out)
        assert cols["rv"][0] == pytest.approx(299 * (1e-4) ** 2, rel=1e-9)
        assert len(cols["rv"]) == 2
        assert chainio.read_metadata(out)["n_rejected"] == "1"

    def test_bad_timestamp_refused_with_its_cell(self, tmp_path, capsys):
        ticks = tmp_path / "ticks.csv"
        self._tick_file(ticks)
        lines = ticks.read_text().splitlines()
        lines[400] = "2024-01-03T13:99:00,100.0"
        ticks.write_text("\n".join(lines) + "\n")
        out = tmp_path / "series.csv"
        assert run("rv-build", "--ticks", ticks, "--out", out) == 1
        err = capsys.readouterr().err
        # the reason after the cell is Python's own
        assert err.startswith(f"error: {ticks}: column 'timestamp': '2024-01-03T13:99:00': ")
        assert not out.exists()
        assert not chainio.meta_path(out).exists()

    @pytest.mark.parametrize("column,value", [("y", "nan"), ("rv", "inf")])
    def test_daily_non_finite_value_refused(self, tmp_path, capsys, column, value):
        daily = tmp_path / "daily.csv"
        cells = {"y": ["0.01", "-0.02", "0.005"], "rv": ["0.0002", "0.0003", "0.0001"]}
        cells[column][1] = value
        dates = ("2024-01-02", "2024-01-03", "2024-01-04")
        lines = ["date,y,rv"] + [",".join(row) for row in zip(dates, cells["y"], cells["rv"])]
        daily.write_text("\n".join(lines) + "\n")
        out = tmp_path / "series.csv"
        assert run("rv-build", "--daily", daily, "--out", out) == 1
        err = capsys.readouterr().err
        assert err == f"error: {column} must be finite, got {value} on 2024-01-03\n"
        assert not out.exists()
        assert not chainio.meta_path(out).exists()

    def test_daily_without_date_refused(self, tmp_path, capsys):
        daily = tmp_path / "daily.csv"
        chainio.write_table(daily, ["day", "y", "rv"], [(1, 0.01, 0.0002), (2, -0.02, 0.0003)])
        out = tmp_path / "series.csv"
        assert run("rv-build", "--daily", daily, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {daily}: missing column 'date'\n"
        assert not out.exists()

    def test_constant_returns_refused(self, tmp_path, capsys):
        start = dt.date(2024, 1, 2).toordinal()
        for rows in (
            [("2024-01-02", 0.01, 0.0002), ("2024-01-03", 0.01, 0.0003)],
            # 100 days of y = 0.1: the mean rounds, so the squared deviations are not 0
            [(dt.date.fromordinal(start + i), 0.1, 1e-4 * (1 + i % 3)) for i in range(100)],
        ):
            daily = tmp_path / "daily.csv"
            chainio.write_table(daily, ["date", "y", "rv"], rows)
            out = tmp_path / "series.csv"
            assert run("rv-build", "--daily", daily, "--out", out) == 1
            err = capsys.readouterr().err
            assert err == "error: daily returns have zero variance; c is degenerate\n"
            assert not out.exists()
            assert not chainio.meta_path(out).exists()

    def test_daily_ln_rv_matches_read_series(self, tmp_path):
        # math.log and np.log can differ in the last bit (they do on these
        # three RVs on an AVX-512 build of numpy 2.4); rv-build's ln_rv must be
        # what read_series takes of the rv column, so both routes give one chain
        rvs = [0.9941412033833111, 1.0931419129045312, 1.7268617873305903, 2e-4, 3e-4]
        daily = tmp_path / "daily.csv"
        rows = [(f"2024-01-0{i + 2}", 0.01 * (-1) ** i, v) for i, v in enumerate(rvs)]
        chainio.write_table(daily, ["date", "y", "rv"], rows)
        out = tmp_path / "series.csv"
        assert run("rv-build", "--daily", daily, "--out", out) == 0
        np.testing.assert_array_equal(chainio.read_series(out).ln_rv, chainio.read_series(daily).ln_rv)

    def test_requires_exactly_one_input(self, tmp_path):
        assert run("rv-build", "--out", tmp_path / "o.csv") == 1


class TestDiagnose:
    def test_summary_from_existing_chain(self, tmp_path):
        data = tmp_path / "data.csv"
        run("simulate", "--out", data, "--n", "60", "--seed", "8")
        out = tmp_path / "run"
        run(
            "estimate", "--data", data, "--out", out,
            "--n-burn", "10", "--n-keep", "200", "--step-size", "0.3",
            "--total-length", "1.0",
        )
        summary = tmp_path / "summary.csv"
        rc = run("diagnose", "--chain", out / "chain.csv", "--out", summary)
        assert rc == 0
        cols = chainio.read_table(summary)
        assert "phi" in cols["parameter"]
        assert "h_10" in cols["parameter"]
        assert summary.read_bytes() == (out / "summary.csv").read_bytes()

    @pytest.mark.parametrize("cell", ["", "abc"], ids=["empty", "text"])
    def test_non_numeric_cell_refused(self, tmp_path, capsys, cell):
        chain = tmp_path / "chain.csv"
        rows = [f"{i},{0.01 * i},{cell if i == 7 else 0.5},0.1,1" for i in range(200)]
        chain.write_text("iteration,mu,phi,delta_h,accepted\n" + "\n".join(rows) + "\n")
        summary = tmp_path / "s.csv"
        assert run("diagnose", "--chain", chain, "--out", summary) == 1
        assert f"error: {chain}: column 'phi' has a non-numeric cell" in capsys.readouterr().err
        assert not summary.exists()

    @pytest.mark.parametrize("cell", ["0.5", ""], ids=["numeric", "empty-cell"])
    def test_repeated_column_refused(self, tmp_path, capsys, cell):
        # a first phi column near 10 and a second near 0
        chain = tmp_path / "chain.csv"
        rows = [f"{10.0 + 0.01 * i},{cell if i == 7 else 0.01 * i % 1}" for i in range(300)]
        chain.write_text("phi,phi\n" + "\n".join(rows) + "\n")
        summary = tmp_path / "s.csv"
        assert run("diagnose", "--chain", chain, "--out", summary) == 1
        assert f"error: {chain}: column 'phi' appears twice in the header" in capsys.readouterr().err
        assert not summary.exists()

    def test_ragged_chain_refused(self, tmp_path, capsys):
        chain = tmp_path / "chain.csv"
        chain.write_text("a,b,c\n1,2,3\n4,5,6\n7,8\n")
        assert run("diagnose", "--chain", chain, "--out", tmp_path / "s.csv") == 1
        assert "chain.csv:4:" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_chain_of_run_columns_only_refused(self, tmp_path, capsys):
        chain = tmp_path / "chain.csv"
        chain.write_text("iteration,delta_h,accepted\n" + "".join(f"{i},0.1,1\n" for i in range(200)))
        summary = tmp_path / "s.csv"
        assert run("diagnose", "--chain", chain, "--out", summary) == 1
        assert capsys.readouterr().err == f"error: {chain}: no parameter columns found\n"
        assert not summary.exists()

    def test_missing_chain(self, tmp_path):
        assert run("diagnose", "--chain", tmp_path / "x.csv", "--out", tmp_path / "s.csv") == 1


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 30, "seed": 5}))
        out = tmp_path / "d.csv"
        assert run("--config", cfg, "simulate", "--out", out, "--seed", "6") == 0
        meta = chainio.read_metadata(out)
        assert meta["n"] == "30"  # from config
        assert meta["seed"] == "6"  # flag wins

    def test_bad_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("not json")
        assert run("--config", cfg, "simulate", "--out", tmp_path / "d.csv") == 1

    def test_config_not_an_object_refused(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([{"n": 30}]))
        out = tmp_path / "d.csv"
        assert run("--config", cfg, "simulate", "--out", out) == 1
        assert capsys.readouterr().err == f"error: config {cfg} must be a JSON object\n"
        assert not out.exists()

    def test_config_list_value_checked_by_flag_type(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        run("simulate", "--out", "d.csv", "--n", "20")
        for value in ("0.1,x", [0.1, "x"]):  # a JSON array is checked as its comma-joined text
            Path("cfg.json").write_text(json.dumps({"grid": value}))
            capsys.readouterr()
            assert run("--config", "cfg.json", "scan", "--data", "d.csv", "--out", "s.csv") == 1
            err = capsys.readouterr().err
            assert err.startswith("error: argument --grid: invalid float list value: '0.1,x'\n")
            assert "usage: rsvhmc" in err
            assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "d.csv", "d.csv.meta"]

    @pytest.mark.parametrize(
        "key,array,argv,outputs",
        [
            ("grid", [0.02, 0.04], ("scan", "--n-traj", "20", "--n-warm", "5"), ("",)),
            (
                "record_h", [1, 10], ("estimate", "--n-burn", "2", "--n-keep", "20"),
                ("chain.csv", "summary.csv"),
            ),
        ],
        ids=["grid", "record_h"],
    )
    def test_config_array_is_the_list_flag(self, tmp_path, monkeypatch, key, array, argv, outputs):
        """A JSON array in a config gives the same output bytes as its comma-separated text."""
        monkeypatch.chdir(tmp_path)
        run("simulate", "--out", "d.csv", "--n", "30")
        for name, value in (("array", array), ("text", ",".join(map(str, array)))):
            Path(f"{name}.json").write_text(json.dumps({key: value}))
            assert run("--config", f"{name}.json", *argv, "--data", "d.csv", "--out", name) == 0
        for output in outputs:
            assert Path("array", output).read_bytes() == Path("text", output).read_bytes()

    def test_config_value_checked_by_flag_type(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2.5}))
        out = tmp_path / "d.csv"
        assert run("--config", cfg, "simulate", "--out", out) == 1
        assert "argument --n: invalid int value: '2.5'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_negative_seed_checked_by_flag_type(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        out = tmp_path / "d.csv"
        assert run("--config", cfg, "simulate", "--out", out) == 1
        assert "argument --seed: invalid seed value: '-1'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_switch_and_float_values(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 20, "phi": 0.1 + 0.2, "write_h": True}))
        out = tmp_path / "d.csv"
        assert run("--config", cfg, "simulate", "--out", out) == 0
        assert chainio.read_metadata(out)["theta_true.phi"] == repr(0.1 + 0.2)
        assert (tmp_path / "d_h.csv").exists()

    @pytest.mark.parametrize(
        "key,value,argv",
        [
            ("write-h", "false", ("simulate", "--out", "e.csv", "--n", "20")),
        ],
        ids=["write_h"],
    )
    def test_config_switch_takes_only_a_boolean(self, tmp_path, monkeypatch, capsys, key, value, argv):
        monkeypatch.chdir(tmp_path)
        run("simulate", "--out", "d.csv", "--n", "20")
        Path("cfg.json").write_text(json.dumps({key: value}))
        capsys.readouterr()
        assert run("--config", "cfg.json", *argv) == 1
        assert f"--{key} takes true or false, got {value!r}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "d.csv", "d.csv.meta"]

    def test_config_supplies_required_flags(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": "d.csv", "n": 40}))
        assert run("--config", cfg, "simulate") == 0
        assert chainio.read_series(tmp_path / "d.csv").n == 40
        assert run("--config", cfg, "simulate", "--out", "e.csv") == 0  # flag wins
        assert chainio.read_series(tmp_path / "e.csv").n == 40
        cfg.write_text(json.dumps({"data": "d.csv", "out": "run", "n_burn": 2, "n_keep": 5}))
        assert run("--config", cfg, "estimate") == 0
        assert len(chainio.read_columns(tmp_path / "run" / "chain.csv")["phi"]) == 5

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sedd": 3}))
        assert run("--config", cfg, "simulate", "--out", tmp_path / "d.csv") == 1
        assert not (tmp_path / "d.csv").exists()


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (("simulate", "--out", "d.csv", "--n", "abc"), "invalid int value: 'abc'"),
            ((), "required: command"),
            (("simulate",), "required: --out"),
            (("estimate", "--out", "o"), "required: --data"),
            (("simulate", "--out", "d.csv", "--no-such-flag"), "unrecognized arguments"),
            (
                ("scan", "--data", "d.csv", "--out", "s.csv", "--grid", "0.1,abc"),
                "argument --grid: invalid float list value: '0.1,abc'",
            ),
            (
                ("estimate", "--data", "d.csv", "--out", "o", "--record-h", "10,x"),
                "argument --record-h: invalid int list value: '10,x'",
            ),
            (("simulate", "--out", "d.csv", "--seed", "-1"), "argument --seed: invalid seed value: '-1'"),
            (
                ("estimate", "--data", "d.csv", "--out", "o", "--seed", "-1"),
                "argument --seed: invalid seed value: '-1'",
            ),
            (
                ("scan", "--data", "d.csv", "--out", "s.csv", "--grid", "0.1", "--seed", "-1"),
                "argument --seed: invalid seed value: '-1'",
            ),
        ],
        ids=[
            "bad_value", "no_command", "no_out", "no_data", "unknown_flag", "bad_grid", "bad_record_h",
            "simulate_negative_seed", "estimate_negative_seed", "scan_negative_seed",
        ],
    )
    def test_usage_error_returns_one(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err
        assert "usage: rsvhmc" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ("estimate", "--data", "dir", "--out", "o"),
            ("scan", "--data", "dir", "--out", "s.csv", "--grid", "0.3"),
            ("diagnose", "--chain", "dir", "--out", "s.csv"),
            ("rv-build", "--daily", "dir", "--out", "s.csv"),
            ("rv-build", "--ticks", "dir", "--out", "s.csv"),
        ],
        ids=["estimate", "scan", "diagnose", "rv_build_daily", "rv_build_ticks"],
    )
    def test_directory_input_is_validation_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dir").mkdir()
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err
        assert [p.name for p in tmp_path.iterdir()] == ["dir"]


    @pytest.mark.parametrize(
        "argv",
        [
            ("estimate", "--data", "afile/d.csv", "--out", "o"),
            ("diagnose", "--chain", "afile/c.csv", "--out", "s.csv"),
            ("simulate", "--out", "afile/x.csv"),
            ("estimate", "--data", "d.csv", "--out", "afile/run", "--n-burn", "2", "--n-keep", "5"),
        ],
        ids=["estimate_data", "diagnose_chain", "simulate_out", "estimate_out"],
    )
    def test_path_below_a_file_is_validation_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        run("simulate", "--out", "d.csv", "--n", "30")
        (tmp_path / "afile").write_text("")
        capsys.readouterr()
        assert run(*argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "d.csv", "d.csv.meta"]

    @pytest.mark.parametrize("command", ["estimate", "scan"])
    def test_unknown_scheme_refused(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        run("simulate", "--out", "d.csv", "--n", "30")
        capsys.readouterr()
        rest = ("--grid", "0.3", "--n-traj", "5") if command == "scan" else ("--n-keep", "5")
        assert run(command, "--data", "d.csv", "--out", "o", "--scheme", "RK4", *rest) == 1
        assert "error: unknown integrator scheme 'rk4'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "d.csv.meta"]

    def test_removed_trajectory_settings_refused(self, tmp_path, monkeypatch, capsys):
        # lambda is a constant of 2MNI, and estimate's trajectory is set by its length
        monkeypatch.chdir(tmp_path)
        run("simulate", "--out", "d.csv", "--n", "30")
        estimate = ("estimate", "--data", "d.csv", "--out", "o", "--n-burn", "2", "--n-keep", "5")
        scan = ("scan", "--data", "d.csv", "--out", "s.csv", "--grid", "0.3", "--n-traj", "5")
        for argv in (
            (*estimate, "--lam", "0.2"),
            (*estimate, "--n-steps", "5"),
            (*scan, "--lam", "0.2"),
        ):
            capsys.readouterr()
            assert run(*argv) == 1
            assert "unrecognized arguments" in capsys.readouterr().err
        Path("cfg.json").write_text(json.dumps({"lam": 0.2}))
        assert run("--config", "cfg.json", *estimate) == 1
        assert "unknown keys lam" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "d.csv", "d.csv.meta"]


class TestEntryPoint:
    """``python -m rsvhmc.cli`` exits with ``main``'s code."""

    def python(self, tmp_path, *argv):
        src = str(Path(rsvhmc.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        return subprocess.run(
            [sys.executable, *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )

    def cli(self, tmp_path, *argv):
        return self.python(tmp_path, "-m", "rsvhmc.cli", *argv)

    @pytest.mark.parametrize(
        "argv,code",
        [
            (("simulate", "--out", "d.csv", "--n", "abc"), 1),
            (("estimate", "--data", "nope.csv", "--out", "o"), 1),
            (("--help",), 0),
        ],
        ids=["usage_error", "missing_data", "help"],
    )
    def test_exit_code(self, tmp_path, argv, code):
        proc = self.cli(tmp_path, *argv)
        assert proc.returncode == code, proc.stderr
        if code:
            assert proc.stderr.startswith("error: ")
            assert "Traceback" not in proc.stderr
        else:
            assert "usage: rsvhmc" in proc.stdout
        assert not list(tmp_path.iterdir())

    def test_import_loads_no_scipy(self, tmp_path):
        # the program is numpy only: importing scipy.fft alone doubles a bare
        # process's peak RSS. The tests import scipy, so this runs in its own process.
        code = (
            "import sys, rsvhmc.cli; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = self.python(tmp_path, "-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "\n"

    def test_only_chainio_imports_csv(self):
        # every table is read and written by chainio, so its rules (the header,
        # blank lines skipped, a ragged row refused at its line) hold for all
        importers = []
        for path in sorted(Path(rsvhmc.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(name.split(".")[0] == "csv" for name in names):
                    importers.append(path.name)
        assert importers == ["chainio.py"]


class TestReadme:
    FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")

    def help_text(self, capsys, *command):
        with pytest.raises(SystemExit) as exc:
            run(*command, "--help")
        assert exc.value.code == 0
        return capsys.readouterr().out

    def test_cli_section_names_every_flag(self, capsys):
        """README's CLI section names each flag of `rsvhmc [<command>] --help`, and no other."""
        top = self.help_text(capsys)
        commands = re.search(r"\{([a-z,-]+)\}", top).group(1).split(",")
        assert "estimate" in commands
        helps = [top, *(self.help_text(capsys, c) for c in commands)]
        flags = {flag for text in helps for flag in self.FLAG.findall(text)}
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        named = set(self.FLAG.findall(section))
        assert sorted(flags - named) == []
        assert sorted(named - flags) == []
