"""The benchmark workloads: inputs made from a seed, the command each one
times, and the output checks that make a fast but wrong program fail.

Outputs are read back with the ``csv`` module, not with rsvhmc, so a broken
reader in the program cannot hide a broken writer.
"""

from __future__ import annotations

import csv
import hashlib
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rsvhmc import chainio
from rsvhmc.cli import main as cli_main

NOT_DRAWS = ("iteration", "delta_h", "accepted")
# allowed |2 tau_int - analytic| in jackknife errors; the error is itself an
# estimate from 20 bins, and within one error a third of the columns would fail
ACT_Z_MAX = 5.0


def _seeds(seed: int) -> tuple[int, int]:
    """Independent data and sampler seeds derived from the workload seed."""
    data_seed, run_seed = np.random.SeedSequence(seed).generate_state(2)
    return int(data_seed), int(run_seed)


def _cli(argv: list[str]) -> None:
    rc = cli_main(argv)
    if rc != 0:
        raise RuntimeError(f"rsvhmc {argv[0]} exited with {rc}")


def _read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _simulate(wd: Path, n_obs: int, seed: int) -> None:
    _cli(["simulate", "--out", str(wd / "data.csv"), "--n", str(n_obs), "--seed", str(_seeds(seed)[0])])


def _trajectories(counts) -> tuple[int, int]:
    """One operation per HMC trajectory; it fails when it diverges (delta H = inf)."""
    return counts["hmc.hmc_update.calls"], counts["hmc.divergences"]


def _same_bytes(outcomes: list[dict], what: str) -> list[str]:
    if len({o["digest"] for o in outcomes}) > 1:
        return [f"{what} differs between repeats of one seed"]
    return []


@dataclass(frozen=True)
class Study:
    """``estimate`` with the reference settings on a shortened chain."""

    n_obs: int = 4000
    n_burn: int = 1000
    n_keep: int = 8000
    name = "study"
    output = "run"

    def setup(self, wd: Path, seed: int) -> None:
        _simulate(wd, self.n_obs, seed)

    def argv(self, wd: Path, seed: int) -> list[str]:
        return [
            "estimate", "--data", str(wd / "data.csv"), "--out", str(wd / self.output),
            "--scheme", "2mni", "--step-size", "0.222", "--total-length", "2.0",
            "--n-burn", str(self.n_burn), "--n-keep", str(self.n_keep),
            "--seed", str(_seeds(seed)[1]),
        ]

    def outcome(self, wd: Path) -> dict:
        chain = wd / self.output / "chain.csv"
        rows = _read_rows(chain)
        draws = [float(v) for r in rows for k, v in r.items() if k not in NOT_DRAWS]
        summary = {r["parameter"]: r for r in _read_rows(wd / self.output / "summary.csv")}
        meta = dict(line.split(" = ", 1) for line in Path(f"{chain}.meta").read_text().splitlines())
        return {
            "digest": _digest(chain),
            "rows": len(rows),
            "finite": all(math.isfinite(x) for x in draws),
            "acceptance": float(meta["acceptance_rate"]),
            "two_tau": {k: summary[k]["two_tau_int"] for k in ("phi", "h_10")},
        }

    def check(self, outcomes: list[dict]) -> list[str]:
        problems = _same_bytes(outcomes, "chain.csv")
        first = outcomes[0]
        if first["rows"] != self.n_keep:
            problems.append(f"chain.csv has {first['rows']} rows, expected {self.n_keep}")
        if not first["finite"]:
            problems.append("chain.csv holds a non-finite draw")
        return problems

    def ops(self, outcome: dict, counts) -> tuple[int, int]:
        return _trajectories(counts)

    def report(self, first: dict, wall_s: float, counts) -> dict[str, tuple]:
        out = {
            "traj_per_s": (counts["hmc.hmc_update.calls"] / wall_s, "1/s"),
            "acceptance": (first["acceptance"], "frac"),
        }
        for name, two_tau in first["two_tau"].items():
            # an empty 2tau means the program could not estimate it at this length
            value = wall_s * float(two_tau) / self.n_keep if two_tau else "n/a"
            out[f"s_per_ess.{name}"] = (value, "s")
        return out


@dataclass(frozen=True)
class Scan:
    """``scan`` with 2LFI at fixed theta (the dataset's true parameters)."""

    n_obs: int = 4000
    grid: tuple[float, ...] = (0.02, 0.04, 0.06)
    n_traj: int = 300
    n_warm: int = 100
    name = "scan_2lfi"
    output = "scan.csv"

    def setup(self, wd: Path, seed: int) -> None:
        _simulate(wd, self.n_obs, seed)

    def argv(self, wd: Path, seed: int) -> list[str]:
        return [
            "scan", "--data", str(wd / "data.csv"), "--out", str(wd / self.output),
            "--scheme", "2lfi", "--grid", ",".join(map(str, self.grid)),
            "--n-traj", str(self.n_traj), "--n-warm", str(self.n_warm),
            "--seed", str(_seeds(seed)[1]),
        ]

    def outcome(self, wd: Path) -> dict:
        rows = _read_rows(wd / self.output)
        return {
            "digest": _digest(wd / self.output),
            "step_size": [float(r["step_size"]) for r in rows],
            "acceptance": [float(r["acceptance"]) for r in rows],
            "rms_dh": [float(r["rms_dh"]) for r in rows],
        }

    def check(self, outcomes: list[dict]) -> list[str]:
        problems = _same_bytes(outcomes, "scan.csv")
        first = outcomes[0]
        if len(first["step_size"]) != len(self.grid):
            return problems + [f"scan.csv has {len(first['step_size'])} rows for {len(self.grid)} step sizes"]
        order = np.argsort(first["step_size"])
        rms = np.asarray(first["rms_dh"])[order]
        acc = np.asarray(first["acceptance"])[order]
        if not np.all(np.diff(rms) > 0.0):
            problems.append(f"rms_dh does not rise with the step size: {rms.tolist()}")
        if not np.all(np.diff(acc) < 0.0):
            problems.append(f"acceptance does not fall with the step size: {acc.tolist()}")
        return problems

    def ops(self, outcome: dict, counts) -> tuple[int, int]:
        return _trajectories(counts)

    def report(self, first: dict, wall_s: float, counts) -> dict[str, tuple]:
        return {
            "traj_per_s": (counts["hmc.hmc_update.calls"] / wall_s, "1/s"),
            "acceptance": (float(np.mean(first["acceptance"])), "frac"),
        }


@dataclass(frozen=True)
class Diagnose:
    """``diagnose`` on a chain file of AR(1) columns with known 2 tau_int."""

    n_rows: int = 50_000
    # 2 tau_int of each column; AR(1) with coefficient phi has (1 + phi) / (1 - phi)
    two_taus: tuple[int, ...] = (3, 6, 12, 25, 50, 100, 175, 250)
    name = "diagnose"
    output = "summary.csv"

    def setup(self, wd: Path, seed: int) -> None:
        rng = np.random.default_rng(_seeds(seed)[0])
        phi = np.array([(t - 1.0) / (t + 1.0) for t in self.two_taus])
        e = rng.standard_normal((self.n_rows, len(phi)))
        x = np.empty_like(e)
        x[0] = e[0] / np.sqrt(1.0 - phi**2)
        for t in range(1, self.n_rows):
            x[t] = phi * x[t - 1] + e[t]
        chainio.write_table(wd / "chain.csv", [f"ar{t}" for t in self.two_taus], x.tolist())

    def argv(self, wd: Path, seed: int) -> list[str]:
        return ["diagnose", "--chain", str(wd / "chain.csv"), "--out", str(wd / self.output)]

    def outcome(self, wd: Path) -> dict:
        rows = _read_rows(wd / self.output)
        return {
            "digest": _digest(wd / self.output),
            "act": {r["parameter"]: (r["two_tau_int"], r["act_error"]) for r in rows},
        }

    def ops(self, outcome: dict, counts) -> tuple[int, int]:
        """One operation per column; it fails when no 2 tau_int could be estimated."""
        return len(self.two_taus), sum(1 for est, _ in outcome["act"].values() if not est)

    def check(self, outcomes: list[dict]) -> list[str]:
        problems = _same_bytes(outcomes, "summary.csv")
        act = outcomes[0]["act"]
        expected = [f"ar{t}" for t in self.two_taus]
        if sorted(act) != sorted(expected):
            return problems + [f"summary.csv lists {sorted(act)}, expected {sorted(expected)}"]
        for t in self.two_taus:
            est, err = act[f"ar{t}"]
            if est and abs(float(est) - t) > ACT_Z_MAX * float(err):
                problems.append(f"ar{t}: 2tau_int {est} +- {err} disagrees with the analytic {t}")
        return problems

    def report(self, first: dict, wall_s: float, counts) -> dict[str, tuple]:
        return {}


WORKLOADS = {
    "full": {w.name: w for w in (Study(), Scan(), Diagnose())},
    # inputs small enough for a smoke test; the figures mean nothing
    "tiny": {
        w.name: w
        for w in (
            Study(n_obs=400, n_burn=20, n_keep=200),
            Scan(n_obs=400, grid=(0.05, 0.1, 0.2), n_traj=40, n_warm=20),
            Diagnose(n_rows=4000, two_taus=(3, 6, 12)),
        )
    },
}


def clear_output(workload, wd: Path) -> None:
    path = wd / workload.output
    if path.is_dir():
        shutil.rmtree(path)
    else:
        path.unlink(missing_ok=True)
