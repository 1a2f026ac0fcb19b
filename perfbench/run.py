"""Benchmark of rsvhmc: one workload, timed in this process, outputs checked.

    python3 perfbench/run.py --workload study --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the program from ``src/``. The
inputs are built from ``--seed``, then the workload's command is repeated
through ``rsvhmc.cli.main`` for about ``--seconds`` seconds (at least twice)
and every repeat's outputs are checked. The report lines list every metric
with its unit; the last line of standard output is one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_REPEATS = 2
MAX_REPEATS = 50
# The gated end-to-end metrics: defined on every workload and never zero.
# The others in the report apply to some workloads only (see README.md).
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("study", "scan_2lfi", "diagnose"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the smoke test")
    p.add_argument("--workdir", type=Path, default=ROOT / ".perfbench", help="inputs, outputs and traces")
    return p.parse_args(argv)


def import_program():
    """Import rsvhmc from this checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import rsvhmc

    if SRC.resolve() not in Path(rsvhmc.__file__).resolve().parents:
        raise ImportError(f"rsvhmc was imported from {rsvhmc.__file__}, not from {SRC}")
    return rsvhmc


def provenance(seed: int) -> dict:
    import numpy

    git = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            git = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git": git,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }


def run_once(workload, wd: Path, seed: int, tracer) -> dict:
    """One timed command. The tracer wraps the layers (or only hmc_update)."""
    from layers import ROOT_SPAN
    from rsvhmc import cli
    from workloads import clear_output

    clear_output(workload, wd)
    argv = workload.argv(wd, seed)
    log = io.StringIO()
    with tracer.installed(), contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        t0 = time.perf_counter()
        rc = tracer.wrap(ROOT_SPAN, cli.main)(argv)
        wall = time.perf_counter() - t0
    return {
        "wall": wall,
        "rc": rc,
        "log": log.getvalue(),
        "tracer": tracer,
        "outcome": workload.outcome(wd) if rc == 0 else None,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from layers import COUNTED, Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.size][args.workload]
    wd = args.workdir if args.workdir.is_absolute() else ROOT / args.workdir
    wd = wd / args.workload
    shutil.rmtree(wd, ignore_errors=True)
    wd.mkdir(parents=True)

    # a set-up of a few milliseconds is repeated until it adds up to a second
    setup_times = []
    with contextlib.redirect_stdout(io.StringIO()):
        while len(setup_times) < SETUP_REPEATS or (
            sum(setup_times) < 1.0 and len(setup_times) < MAX_REPEATS
        ):
            t0 = time.perf_counter()
            workload.setup(wd, args.seed)
            setup_times.append(time.perf_counter() - t0)

    # with --trace 1, untraced and traced repeats alternate, untraced first
    repeats = []
    t_start = time.perf_counter()
    while len(repeats) < MAX_REPEATS:
        traced = bool(args.trace) and len(repeats) % 2 == 1
        rep = run_once(workload, wd, args.seed, Tracer() if traced else Tracer(COUNTED))
        rep["traced"] = traced
        repeats.append(rep)
        if rep["rc"] != 0:
            break
        if len(repeats) >= MIN_REPEATS and time.perf_counter() - t_start >= args.seconds:
            break

    problems = [f"command exited with {r['rc']}: {r['log'].strip()}" for r in repeats if r["rc"] != 0]
    if not problems:
        problems = workload.check([r["outcome"] for r in repeats])
    correct = not problems
    attempted = failed = 0
    for r in repeats:
        ops = workload.ops(r["outcome"], r["tracer"].counts) if r["outcome"] else (1, 1)
        attempted += ops[0]
        failed += ops[1]
    if not correct:
        failed = attempted

    untraced = [r for r in repeats if not r["traced"]]
    first = untraced[0]
    wall_s = statistics.median(r["wall"] for r in untraced)
    end_to_end = {
        "wall_s": (wall_s, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if correct:
        end_to_end.update(workload.report(first["outcome"], wall_s, first["tracer"].counts))
    end_to_end["failed_frac"] = (failed / attempted, "frac")

    per_layer = {}
    traced = [r for r in repeats if r["traced"]]
    if traced:
        spans_path = wd / "spans.csv"
        spans_path.write_text("trace_id,span_id,parent_id,name,start_ns,end_ns\n")
        layers = []
        for trace_id, r in enumerate(traced):
            r["tracer"].write_spans(spans_path, trace_id)
            layers.append(layer_metrics(r["tracer"]))
        for name, (_, unit) in layers[0].items():
            per_layer[name] = (statistics.median(m[name][0] for m in layers), unit)
        traced_wall = statistics.median(r["wall"] for r in traced)
        per_layer["trace.overhead_s"] = (traced_wall - wall_s, "s")

    info = provenance(args.seed)
    info.update(workload=args.workload, size=args.size, seconds=args.seconds, trace=args.trace)
    result = {
        "provenance": info,
        "walls_s": {"untraced": [r["wall"] for r in untraced], "traced": [r["wall"] for r in traced]},
        "correct": correct,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
    }
    (wd / "result.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"provenance {json.dumps(info)}")
    print(f"{args.workload}: {attempted} operations, {failed} failed; walls_s {json.dumps(result['walls_s'])}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in {**end_to_end, **per_layer}.items():
        print(f"  {name:40s} {value} {unit}")
    shown = per_layer if args.trace else {k: end_to_end[k] for k in END_TO_END}
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in shown.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
