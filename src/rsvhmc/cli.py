"""Command-line front end.

Commands:
    simulate   generate a synthetic dataset with known parameters
    estimate   run the full sampler on a series file
    scan       step-size grid scan (acceptance, RMS delta-H, efficiency)
    rv-build   build a daily (y, RV) series from tick or daily input
    diagnose   recompute posterior summaries from an existing chain file

A JSON config file (--config) supplies defaults, required flags included;
explicit flags override.
Values are checked by the library call that uses them. Exit codes: 0 success,
1 validation error (bad inputs or flags, a missing input file, a directory
given as one, or a path through a regular file), 2 runtime failure.
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
from .integrators import DEFAULT_LAMBDA, SPLITTINGS, TrajectoryConfig
from .model import PARAM_NAMES, ModelParams
from .synth import STUDY_N, STUDY_PARAMS, simulate


# chain.csv's columns that are not draws: `iteration` first, the draws of
# ChainResult.draws, then the rest; diagnose summarises every other column
_RUN_COLUMNS = ("iteration", "delta_h", "accepted")
# estimate's prior flags, each defaulting to PriorConfig's value
_PRIOR_NAMES = ("a_eta", "b_eta", "a_u", "b_u")
# --scheme takes a key of SPLITTINGS in any case and spacing; TrajectoryConfig
# refuses a name the table lacks
_SCHEME = dict(type=lambda name: name.strip().lower(), default="2mni", help=" or ".join(SPLITTINGS))


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ValueError (exit 1); subparsers share the class."""

    def error(self, message):
        raise ValueError(f"{message}\n{self.format_usage().rstrip()}")


class _Config(argparse.Action):
    """``--config FILE`` installs the JSON object's values as defaults of the
    subcommand flags before the subcommand is parsed, so explicit flags win and
    a config value satisfies a required flag. Values go in as text so that
    argparse checks each through its flag's type; a switch's must be a boolean."""

    def __call__(self, parser, namespace, path, option_string=None):
        try:
            values = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(values, dict):
            raise ValueError(f"config {path} must be a JSON object")
        values = {k.replace("-", "_"): v for k, v in values.items()}
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        unknown = set(values)
        for sub in subparsers.choices.values():
            for action in sub._actions:
                if action.dest not in values:
                    continue
                value = values[action.dest]
                if not isinstance(action, argparse._StoreTrueAction):
                    value = str(value)
                elif not isinstance(value, bool):
                    flag = action.option_strings[0]
                    raise ValueError(f"config {path}: {flag} takes true or false, got {value!r}")
                action.default, action.required = value, False
                unknown.discard(action.dest)
        if unknown:
            raise ValueError(f"config {path}: unknown keys {', '.join(sorted(unknown))}")
        setattr(namespace, self.dest, path)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rsvhmc")
    parser.add_argument("--config", type=Path, action=_Config, help="JSON file with flag defaults")
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
    est.add_argument("--scheme", **_SCHEME)
    est.add_argument("--step-size", type=float, default=0.222)
    est.add_argument("--total-length", type=float, default=2.0)
    est.add_argument("--n-burn", type=int, default=5000)
    est.add_argument("--n-keep", type=int, default=50000)
    est.add_argument("--seed", type=int, default=0)
    est.add_argument(
        "--record-h",
        default="10",
        help="comma-separated 1-based h indices to record (default: 10)",
    )
    for name in _PRIOR_NAMES:
        est.add_argument(f"--{name.replace('_', '-')}", type=float, default=getattr(PriorConfig, name))
    est.add_argument("--checkpoint-every", type=int, default=5000)
    est.add_argument("--resume", action="store_true", help="resume from the checkpoint in --out")

    scan = sub.add_parser("scan", help="step-size grid scan")
    scan.add_argument("--data", type=Path, required=True)
    scan.add_argument("--out", type=Path, required=True, help="output scan table")
    scan.add_argument("--scheme", **_SCHEME)
    scan.add_argument("--grid", required=True, help="comma-separated step sizes")
    scan.add_argument("--total-length", type=float, default=2.0)
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
    return parser


def _parse_theta(args, meta: dict[str, str] | None) -> ModelParams:
    vals = {}
    for name in PARAM_NAMES:
        flag, key = getattr(args, name, None), f"theta_true.{name}"
        if flag is not None:
            vals[name] = flag
        elif meta is not None and key in meta:
            try:
                vals[name] = float(meta[key])
            except ValueError:
                raise ValueError(
                    f"{chainio.meta_path(args.data)}: {key} is not a number: {meta[key]!r}"
                ) from None
        else:
            raise ValueError(
                f"parameter {name} not given and not present in dataset metadata"
            )
    return ModelParams(**vals)


def cmd_simulate(args) -> int:
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


def cmd_estimate(args) -> int:
    data = chainio.read_series(args.data)
    cfg = TrajectoryConfig.from_length(args.scheme, args.total_length, args.step_size)
    prior = PriorConfig(**{name: getattr(args, name) for name in _PRIOR_NAMES})
    try:
        h_indices = tuple(int(tok) - 1 for tok in str(args.record_h).split(",") if tok.strip())
    except ValueError as exc:
        raise ValueError(f"bad --record-h value {args.record_h!r}") from exc

    # no mkdir: run_chain refuses bad settings before its first checkpoint and
    # every writer creates the directory, so a refused run leaves no --out
    out_dir = Path(args.out)
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

    header = [_RUN_COLUMNS[0], *result.draws, *_RUN_COLUMNS[1:]]
    n_rows = len(result.delta_h)
    rows = zip(
        range(n_rows),
        *(col.tolist() for col in result.draws.values()),
        result.delta_h.tolist(),
        result.accepted.astype(int).tolist(),
    )
    chain_path = out_dir / "chain.csv"
    chainio.write_table(chain_path, header, rows)
    chainio.write_metadata(
        chain_path,
        {
            "seed": args.seed,
            "scheme": cfg.scheme,
            "step_size": cfg.step_size,
            "n_steps": cfg.n_steps,
            "total_length": cfg.total_length,
            "lambda": DEFAULT_LAMBDA,
            **{name: getattr(prior, name) for name in _PRIOR_NAMES},
            "n_burn": args.n_burn,
            "n_keep": args.n_keep,
            "acceptance_rate": result.acceptance_rate,
            "n_divergent": result.n_divergent,
            "wall_time_seconds": result.wall_time_seconds,
        },
    )
    _write_summary(out_dir / "summary.csv", result.draws)
    ckpt.unlink(missing_ok=True)
    if result.n_divergent:
        total = args.n_burn + args.n_keep
        print(f"warning: {result.n_divergent} of {total} trajectories diverged", file=sys.stderr)
    print(
        f"wrote {chain_path} ({n_rows} kept, acceptance "
        f"{result.acceptance_rate:.3f}, {result.wall_time_seconds:.1f}s)"
    )
    return 0


def _write_summary(path: Path, cols: dict[str, np.ndarray]):
    rows = []
    for s in posterior_summary(cols):
        act = (s.act.two_tau_int, s.act.error, s.act.window) if s.act else ("", "", "")
        rows.append((s.name, s.mean, s.sd, *act, s.note))
    chainio.write_table(
        path,
        ["parameter", "mean", "sd", "two_tau_int", "act_error", "act_window", "note"],
        rows,
    )


def cmd_scan(args) -> int:
    data = chainio.read_series(args.data)
    try:
        grid = [float(tok) for tok in args.grid.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --grid value {args.grid!r}") from exc
    meta = None
    try:
        meta = chainio.read_metadata(args.data)
    except OSError:
        pass
    theta = _parse_theta(args, meta)
    result = stepsize_scan(
        data,
        theta,
        args.scheme,
        grid,
        total_length=args.total_length,
        n_traj=args.n_traj,
        n_warm=args.n_warm,
        seed=args.seed,
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
            "scheme": args.scheme,
            "total_length": args.total_length,
            "lambda": DEFAULT_LAMBDA,
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
        header = next(reader, [])
        if [c.strip().lower() for c in header[:2]] != ["timestamp", "price"]:
            raise ValueError(f"{path}: expected header 'timestamp,price'")
        for lineno, row in enumerate(reader, start=2):
            try:
                stamp = dt.datetime.fromisoformat(row[0])
                price = float(row[1])
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}:{lineno}: bad tick row {row!r}") from exc
            if not 0.0 < price < math.inf:
                raise ValueError(f"{path}:{lineno}: price must be finite and > 0")
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
        raise ValueError("give exactly one of --ticks or --daily")
    if args.ticks is not None:
        report = rvmod.build_series(_read_ticks(args.ticks), args.grid_seconds)
        series, rejected = report.series, report.rejected
    else:
        cols = chainio.read_columns(args.daily)
        if "date" not in cols:
            raise ValueError(f"{args.daily}: missing column 'date'")
        chainio.require_numeric(args.daily, cols, ("y", "rv"))
        try:
            dates = tuple(dt.date.fromisoformat(d) for d in cols["date"])
        except (TypeError, ValueError) as exc:  # TypeError: read as numbers, say 20240102
            raise ValueError(f"{args.daily}: column 'date' needs YYYY-MM-DD dates: {exc}") from exc
        series = rvmod.RvSeries(dates=dates, rv=cols["rv"], y=cols["y"])
        rejected = ()

    c = rvmod.hansen_lunde_c(series.y, series.rv)
    if c <= 0.0:
        raise ValueError("daily returns have zero variance; c is degenerate")
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
    cols = chainio.read_columns(args.chain)
    params = [k for k in cols if k not in _RUN_COLUMNS]
    if not params:
        raise ValueError(f"{args.chain}: no parameter columns found")
    chainio.require_numeric(args.chain, cols, params)
    _write_summary(args.out, {k: cols[k] for k in params})
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
        args = parser.parse_args(sys.argv[1:] if argv is None else list(argv))
        return _COMMANDS[args.command](args)
    except (ValueError, FileNotFoundError, IsADirectoryError, NotADirectoryError, FileExistsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
