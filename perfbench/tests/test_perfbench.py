"""Smoke test of the benchmark at tiny sizes. It makes no timing assertion."""

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# per-layer counts that must repeat exactly across runs of one seed
EXACT = ("calls", "lags", "rows", "force_evals_per_traj", "bytes", "divergences")


def bench(workdir: Path, workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny", "--workdir", str(workdir)],
        capture_output=True, text=True, timeout=300, cwd=BENCH.parent,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(tmp_path, workload):
    metrics = bench(tmp_path, workload, 0)["metrics"]
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == spec
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_writes_spans_and_repeatable_counts(tmp_path, workload):
    first = bench(tmp_path, workload, 1)["metrics"]
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first.items()} == spec
    with open(tmp_path / workload / "spans.csv", newline="") as fh:
        names = {row["name"] for row in csv.DictReader(fh)}
    assert "cli.main" in names and len(names) > 1

    second = bench(tmp_path, workload, 1)["metrics"]
    exact = [k for k in first if k.rsplit(".", 1)[-1] in EXACT]
    assert {k: first[k]["value"] for k in exact} == {k: second[k]["value"] for k in exact}


def test_refuses_to_run_without_the_program(tmp_path):
    # a copy of the benchmark alone, as in a checkout that lacks src/
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "layers.py", "workloads.py"):
        (tmp_path / "perfbench" / name).write_bytes((BENCH / name).read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
