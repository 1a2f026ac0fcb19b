"""Command-line front end.

Commands:
    simulate   generate a synthetic dataset with known parameters
    estimate   run the full sampler on a series file
    scan       step-size grid scan (acceptance, RMS delta-H, efficiency)
    rv-build   build a daily (y, RV) series from tick or daily input
    diagnose   recompute posterior summaries from an existing chain file

A JSON config file (--config) supplies defaults; explicit flags override.
Exit codes: 0 success, 1 validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import chainio, rv as rvmod
from .diagnostics import posterior_summary, stepsize_scan
from .gibbs import PriorConfig
from .hmc import default_init, run_chain
from .integrators import DEFAULT_LAMBDA, Scheme, TrajectoryConfig
from .model import PARAM_NAMES, ModelParams, ObservedSeries
from .synth import STUDY_N, STUDY_PARAMS, simulate


class ValidationError(ValueError):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rsvhmc")
    parser.add_argument("--config", type=Path, help="JSON file with flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    sim.add_argument("--out", type=Path, required=True, help="output series file")
    sim.add_argument("--n", type=int, default=STUDY_N)
    for name in PARAM_NAMES:
        sim.add_argument(f"--{name.replace('_', '-')}", type=float, default=getattr(STUDY_PARAMS, name))
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--write-h", action="store_true", help="also write the true latent path")

    est = sub.add_parser("estimate", help="run the sampler on a series file")
    est.add_argument("--data", type=Path, required=True)
    est.add_argument("--out", type=Path, required=True, help="output directory")
    est.add_argument("--scheme", default="2mni", help="2lfi or 2mni")
    est.add_argument("--step-size", type=float, default=0.222)
    est.add_argument("--total-length", type=float, default=2.0)
    est.add_argument("--n-steps", type=int, help="override the length-derived step count")
    est.add_argument("--lam", type=float, default=DEFAULT_LAMBDA)
    est.add_argument("--n-burn", type=int, default=5000)
    est.add_argument("--n-keep", type=int, default=50000)
    est.add_argument("--seed", type=int, default=0)
    est.add_argument(
        "--record-h",
        default="10",
        help="comma-separated 1-based h indices to record (default: 10)",
    )
    est.add_argument("--a-eta", type=float, default=2.5)
    est.add_argument("--b-eta", type=float, default=0.025)
    est.add_argument("--a-u", type=float, default=2.5)
    est.add_argument("--b-u", type=float, default=0.025)
    est.add_argument("--checkpoint-every", type=int, default=5000)
    est.add_argument("--resume", action="store_true", help="resume from the checkpoint in --out")

    scan = sub.add_parser("scan", help="step-size grid scan")
    scan.add_argument("--data", type=Path, required=True)
    scan.add_argument("--out", type=Path, required=True, help="output scan table")
    scan.add_argument("--scheme", default="2mni")
    scan.add_argument("--grid", required=True, help="comma-separated step sizes")
    scan.add_argument("--total-length", type=float, default=2.0)
    scan.add_argument("--lam", type=float, default=DEFAULT_LAMBDA)
    scan.add_argument("--n-traj", type=int, default=2000)
    scan.add_argument(
        "--n-warm",
        type=int,
        default=500,
        help="warm-up trajectories, run once before the first grid point at the "
        "smallest step size (after up to 100 at a fifth of it)",
    )
    scan.add_argument("--seed", type=int, default=0)
    for name in PARAM_NAMES:
        scan.add_argument(f"--{name.replace('_', '-')}", type=float, help="fixed parameter for the scan (default: dataset metadata)")

    rvb = sub.add_parser("rv-build", help="build a daily series from tick or daily data")
    rvb.add_argument("--ticks", type=Path, help="tick file: timestamp,price rows")
    rvb.add_argument("--daily", type=Path, help="daily file: date,y,rv rows")
    rvb.add_argument("--out", type=Path, required=True)
    rvb.add_argument("--grid-seconds", type=int, default=60)

    diag = sub.add_parser("diagnose", help="summaries for an existing chain file")
    diag.add_argument("--chain", type=Path, required=True)
    diag.add_argument("--out", type=Path, required=True, help="output summary table")
    diag.add_argument("--min-samples", type=int, default=1000)
    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    try:
        defaults = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(defaults, dict):
        raise ValidationError(f"config {args.config} must be a JSON object")
    # config supplies defaults; explicit flags win because we re-parse with
    # the config values installed as subcommand defaults
    cleaned = {k.replace("-", "_"): v for k, v in defaults.items()}
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    known = set()
    for sub in subparsers.choices.values():
        dests = {a.dest for a in sub._actions}
        known |= dests
        sub.set_defaults(**{k: v for k, v in cleaned.items() if k in dests})
    unknown = sorted(set(cleaned) - known)
    if unknown:
        raise ValidationError(f"config {args.config}: unknown keys {', '.join(unknown)}")
    return parser.parse_args(argv)


def _parse_theta(args, meta: dict[str, str] | None) -> ModelParams:
    vals = {}
    for name in PARAM_NAMES:
        flag = getattr(args, name, None)
        if flag is not None:
            vals[name] = flag
        elif meta is not None and f"theta_true.{name}" in meta:
            vals[name] = float(meta[f"theta_true.{name}"])
        else:
            raise ValidationError(
                f"parameter {name} not given and not present in dataset metadata"
            )
    return ModelParams(**vals)


def cmd_simulate(args) -> int:
    if args.n < 2:
        raise ValidationError("--n must be >= 2")
    theta = ModelParams(**{name: getattr(args, name) for name in PARAM_NAMES})
    ds = simulate(theta, args.n, args.seed)
    meta = {f"theta_true.{k}": v for k, v in theta.as_dict().items()}
    meta.update({"n": args.n, "seed": args.seed})
    chainio.write_series(args.out, ds.data, meta)
    if args.write_h:
        hpath = args.out.with_name(args.out.stem + "_h" + args.out.suffix)
        chainio.write_table(hpath, ["t", "h"], zip(range(1, args.n + 1), ds.h_true.tolist()))
    print(f"wrote {args.out} (n={args.n}, seed={args.seed})")
    return 0


def _load_series(path: Path) -> ObservedSeries:
    if not path.exists():
        raise ValidationError(f"data file {path} does not exist")
    try:
        return chainio.read_series(path)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _parse_record_h(spec: str, n: int) -> tuple[int, ...]:
    try:
        indices = tuple(int(tok) - 1 for tok in str(spec).split(",") if tok.strip())
    except ValueError as exc:
        raise ValidationError(f"bad --record-h value {spec!r}") from exc
    for i in indices:
        if not 0 <= i < n:
            raise ValidationError(f"--record-h index {i + 1} out of range for n={n}")
    return indices


def cmd_estimate(args) -> int:
    data = _load_series(args.data)
    if args.n_burn < 0 or args.n_keep < 1:
        raise ValidationError("need --n-burn >= 0 and --n-keep >= 1")
    scheme = Scheme.parse(args.scheme)
    if args.n_steps is not None:
        cfg = TrajectoryConfig(scheme, args.step_size, args.n_steps, args.lam)
    else:
        cfg = TrajectoryConfig.from_length(scheme, args.total_length, args.step_size, args.lam)
    prior = PriorConfig(a_eta=args.a_eta, b_eta=args.b_eta, a_u=args.a_u, b_u=args.b_u)
    h_indices = _parse_record_h(args.record_h, data.n)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = out_dir / "checkpoint.npz"
    result = run_chain(
        data,
        default_init(data),
        cfg,
        n_burn=args.n_burn,
        n_keep=args.n_keep,
        rng=np.random.default_rng(args.seed),
        prior=prior,
        h_indices=h_indices,
        checkpoint_path=ckpt,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
    )

    cols = result.columns()
    header = ["iteration", *cols.keys(), "delta_h", "accepted"]
    n_rows = len(result.delta_h)
    rows = zip(
        range(n_rows),
        *(col.tolist() for col in cols.values()),
        result.delta_h.tolist(),
        result.accepted.astype(int).tolist(),
    )
    chain_path = out_dir / "chain.csv"
    chainio.write_table(chain_path, header, rows)
    chainio.write_metadata(
        chain_path,
        {
            "seed": args.seed,
            "scheme": scheme.value,
            "step_size": cfg.step_size,
            "n_steps": cfg.n_steps,
            "total_length": cfg.total_length,
            "lambda": cfg.lam,
            "n_burn": args.n_burn,
            "n_keep": args.n_keep,
            "acceptance_rate": result.acceptance_rate,
            "wall_time_seconds": result.wall_time_seconds,
        },
    )
    _write_summary(out_dir / "summary.csv", cols, min_samples=min(1000, n_rows))
    ckpt.unlink(missing_ok=True)
    print(
        f"wrote {chain_path} ({n_rows} kept, acceptance "
        f"{result.acceptance_rate:.3f}, {result.wall_time_seconds:.1f}s)"
    )
    return 0


def _write_summary(path: Path, cols: dict[str, np.ndarray], min_samples: int = 1000):
    summaries = posterior_summary(cols, min_samples=min_samples)
    rows = []
    for s in summaries:
        act = s.act
        rows.append(
            [
                s.name,
                s.mean,
                s.sd,
                act.two_tau_int if act else "",
                act.error if act else "",
                act.window if act else "",
                s.note,
            ]
        )
    chainio.write_table(
        path,
        ["parameter", "mean", "sd", "two_tau_int", "act_error", "act_window", "note"],
        rows,
    )


def cmd_scan(args) -> int:
    data = _load_series(args.data)
    try:
        grid = [float(tok) for tok in args.grid.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad --grid value {args.grid!r}") from exc
    if not grid or not all(math.isfinite(g) and g > 0 for g in grid):
        raise ValidationError("--grid needs finite positive step sizes")
    meta = None
    try:
        meta = chainio.read_metadata(args.data)
    except OSError:
        pass
    theta = _parse_theta(args, meta)
    scheme = Scheme.parse(args.scheme)
    result = stepsize_scan(
        data,
        theta,
        scheme,
        grid,
        total_length=args.total_length,
        n_traj=args.n_traj,
        n_warm=args.n_warm,
        seed=args.seed,
        lam=args.lam,
    )
    chainio.write_table(
        args.out,
        ["step_size", "n_steps", "acceptance", "rms_dh", "efficiency"],
        ((r.step_size, r.n_steps, r.acceptance, r.rms_dh, r.efficiency) for r in result.rows),
    )
    opt = result.optimum
    chainio.write_metadata(
        args.out,
        {
            "scheme": scheme.value,
            "total_length": args.total_length,
            "lambda": args.lam,
            "n_traj": args.n_traj,
            "n_warm": args.n_warm,
            "seed": args.seed,
            "optimum.step_size": opt.step_size,
            "optimum.acceptance": opt.acceptance,
            "optimum.efficiency": opt.efficiency,
            "force_evals_per_step": result.force_evals_per_step,
        },
    )
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(
        f"wrote {args.out}; optimum step_size={opt.step_size:.4g} "
        f"acceptance={opt.acceptance:.3f} efficiency={opt.efficiency:.4g}"
    )
    return 0


def _read_ticks(path: Path) -> list[rvmod.IntradayDay]:
    by_day: dict[dt.date, list[tuple[float, float]]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if [c.strip().lower() for c in header[:2]] != ["timestamp", "price"]:
            raise ValidationError(f"{path}: expected header 'timestamp,price'")
        for lineno, row in enumerate(reader, start=2):
            try:
                stamp = dt.datetime.fromisoformat(row[0])
                price = float(row[1])
            except (ValueError, IndexError) as exc:
                raise ValidationError(f"{path}:{lineno}: bad tick row {row!r}") from exc
            if price <= 0.0:
                raise ValidationError(f"{path}:{lineno}: price must be > 0")
            seconds = (
                stamp - dt.datetime.combine(stamp.date(), dt.time.min, stamp.tzinfo)
            ).total_seconds()
            by_day.setdefault(stamp.date(), []).append((seconds, math.log(price)))
    days = []
    for date, ticks in by_day.items():
        ts = np.array([t for t, _ in ticks])
        lp = np.array([p for _, p in ticks])
        days.append(rvmod.IntradayDay(date=date, timestamps=ts, log_prices=lp))
    return days


def cmd_rv_build(args) -> int:
    if (args.ticks is None) == (args.daily is None):
        raise ValidationError("give exactly one of --ticks or --daily")
    if args.ticks is not None:
        if not args.ticks.exists():
            raise ValidationError(f"{args.ticks} does not exist")
        days = _read_ticks(args.ticks)
        try:
            report = rvmod.build_series(days, args.grid_seconds)
        except rvmod.RvError as exc:
            raise ValidationError(str(exc)) from exc
        series, rejected = report.series, report.rejected
    else:
        if not args.daily.exists():
            raise ValidationError(f"{args.daily} does not exist")
        cols = chainio.read_columns(args.daily)
        for name in ("date", "y", "rv"):
            if name not in cols:
                raise ValidationError(f"{args.daily}: missing column {name!r}")
        for name in ("y", "rv"):
            if cols[name].dtype.kind != "f":
                raise ValidationError(f"{args.daily}: column {name!r} has a non-numeric cell")
        rvs = cols["rv"]
        if np.any(rvs <= 0.0):
            raise ValidationError(f"{args.daily}: rv must be strictly positive")
        dates = tuple(dt.date.fromisoformat(d) for d in cols["date"])
        series = rvmod.RvSeries(dates=dates, rv=rvs, y=cols["y"])
        rejected = ()

    c = rvmod.hansen_lunde_c(series.y, series.rv)
    if c <= 0.0:
        raise ValidationError("daily returns have zero variance; c is degenerate")
    rows = (
        (series.dates[i], series.y[i], series.rv[i], c * series.rv[i], math.log(series.rv[i]))
        for i in range(len(series.y))
    )
    chainio.write_table(args.out, ["date", "y", "rv", "rv_adj", "ln_rv"], rows)
    chainio.write_metadata(
        args.out,
        {
            "hansen_lunde_c": f"{c:.4f}",
            "neg_log_c": f"{-math.log(c):.4f}",
            "hansen_lunde_c_exact": c,
            "n_days": len(series.y),
            "n_rejected": len(rejected),
        },
    )
    for rej in rejected:
        print(f"rejected {rej.date}: {rej.reason}", file=sys.stderr)
    print(f"wrote {args.out} ({len(series.y)} days, c={c:.4f}, -log(c)={-math.log(c):.4f})")
    return 0


def cmd_diagnose(args) -> int:
    if not args.chain.exists():
        raise ValidationError(f"chain file {args.chain} does not exist")
    cols = chainio.read_columns(args.chain)
    drop = {"iteration", "delta_h", "accepted"}
    numeric = {
        k: v for k, v in cols.items() if k not in drop and v.dtype.kind == "f"
    }
    if not numeric:
        raise ValidationError(f"{args.chain}: no parameter columns found")
    _write_summary(args.out, numeric, min_samples=args.min_samples)
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "scan": cmd_scan,
    "rv-build": cmd_rv_build,
    "diagnose": cmd_diagnose,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = _apply_config(parser, sys.argv[1:] if argv is None else list(argv))
        return _COMMANDS[args.command](args)
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
