"""Per-layer tracing from outside the program.

The traced run replaces module attributes of rsvhmc with wrappers that
record one span per call (name, start, end, parent span) and a few counts.
Nothing in ``src/`` knows about it. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import os
import time
from collections import Counter, defaultdict

import numpy as np

# Every wrapped function, in one place: (layer name, module, attribute).
# The module is the one whose namespace the *caller* looks the name up in,
# so a function bound into another module by ``from x import f`` is wrapped
# there. Renaming a hot-path function means editing this table only.
WRAPPED = (
    ("model.grad_potential", "rsvhmc.model", "grad_potential"),  # hmc calls model.grad_potential
    ("model.potential", "rsvhmc.model", "potential"),  # also reached via model.hamiltonian
    ("integrators.integrate", "rsvhmc.hmc", "integrate"),
    ("hmc.hmc_update", "rsvhmc.hmc", "hmc_update"),  # run_chain
    ("hmc.hmc_update", "rsvhmc.diagnostics", "hmc_update"),  # stepsize_scan
    ("hmc.save_checkpoint", "rsvhmc.hmc", "save_checkpoint"),
    ("hmc.run_chain", "rsvhmc.cli", "run_chain"),
    ("gibbs.gibbs_sweep", "rsvhmc.hmc", "gibbs_sweep"),
    ("diagnostics.posterior_summary", "rsvhmc.cli", "posterior_summary"),
    ("diagnostics.stepsize_scan", "rsvhmc.cli", "stepsize_scan"),
    ("diagnostics.integrated_act", "rsvhmc.diagnostics", "integrated_act"),
    ("diagnostics.acf", "rsvhmc.diagnostics", "acf"),
    ("chainio.write_table", "rsvhmc.chainio", "write_table"),
    ("chainio.read_columns", "rsvhmc.chainio", "read_columns"),
    ("chainio.read_series", "rsvhmc.chainio", "read_series"),
)

# Untraced runs wrap only these, to count attempted and divergent trajectories.
COUNTED = tuple(entry for entry in WRAPPED if entry[0] == "hmc.hmc_update")

ROOT_SPAN = "cli.main"

# Span statistics reported per layer. ``calls`` is a count, ``busy_s`` the
# summed duration, ``self_s`` the duration not covered by child spans, and
# ``<unit>_p<q>`` the q-th percentile of one call's duration in that unit.
SPAN_STATS = (
    ("model.grad_potential", ("calls", "us_p50", "us_p99", "busy_s")),
    ("model.potential", ("calls", "us_p50", "busy_s")),
    ("integrators.integrate", ("calls", "ms_p50", "self_s")),
    ("hmc.hmc_update", ("calls", "ms_p50", "ms_p99", "self_s")),
    ("hmc.run_chain", ("self_s",)),
    ("hmc.save_checkpoint", ("calls", "busy_s")),
    ("gibbs.gibbs_sweep", ("calls", "us_p50", "busy_s")),
    ("diagnostics.posterior_summary", ("busy_s",)),
    ("diagnostics.integrated_act", ("calls", "s_p50")),
    ("diagnostics.acf", ("calls", "busy_s")),
    ("diagnostics.stepsize_scan", ("busy_s",)),
    ("chainio.write_table", ("busy_s",)),
    ("chainio.read_columns", ("busy_s",)),
    ("chainio.read_series", ("busy_s",)),
    (ROOT_SPAN, ("self_s",)),
)

_SCALE = {"s": 1e-9, "ms": 1e-6, "us": 1e-3}


def _hmc_update(counts, args, out):
    counts["hmc.accepted"] += bool(out.accepted)
    counts["hmc.divergences"] += math.isinf(out.delta_h)


def _gibbs_sweep(counts, args, out):
    # phi is the only Metropolis-Hastings draw of the sweep; a rejection keeps it
    counts["gibbs.phi_moved"] += out.phi != args[1].phi


def _save_checkpoint(counts, args, out):
    counts["hmc.checkpoint_bytes"] += os.path.getsize(args[0])


def _acf(counts, args, out):
    counts["diagnostics.acf.lags"] += len(out) - 1


def _write_table(counts, args, out):
    counts["chainio.write_table.bytes"] += os.path.getsize(args[0])
    with open(args[0], "rb") as fh:
        counts["chainio.write_table.rows"] += sum(1 for _ in fh) - 1


def _read_columns(counts, args, out):
    counts["chainio.read_columns.rows"] += len(next(iter(out.values()), ()))


_OBSERVERS = {
    "hmc.hmc_update": _hmc_update,
    "gibbs.gibbs_sweep": _gibbs_sweep,
    "hmc.save_checkpoint": _save_checkpoint,
    "diagnostics.acf": _acf,
    "chainio.write_table": _write_table,
    "chainio.read_columns": _read_columns,
}


class Tracer:
    """Records spans ``(name, start_ns, end_ns, parent_index)`` and counts."""

    def __init__(self, entries=WRAPPED):
        self.entries = entries
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn):
        """``fn`` recording a span per call; a parent is the innermost open span."""
        # plain code, not a context manager: a generator context manager per
        # call would cost several microseconds against a 40 us gradient
        observe = _OBSERVERS.get(name)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns
        calls = name + ".calls"

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
                counts[calls] += 1
            if observe is not None:
                observe(counts, args, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        originals = []
        try:
            for name, module, attr in self.entries:
                mod = importlib.import_module(module)
                fn = getattr(mod, attr)
                originals.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(originals):
                setattr(mod, attr, fn)

    def write_spans(self, path, trace_id: int) -> None:
        with open(path, "a") as fh:
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{trace_id},{i},{parent},{name},{t0},{t1}\n")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced command, as ``name -> (value, unit)``.

    A layer the workload never calls reports zero calls and zero time.
    """
    spans, counts = tracer.spans, tracer.counts
    covered = defaultdict(int)
    for _, t0, t1, parent in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    durations = defaultdict(list)
    self_ns = defaultdict(int)
    for i, (name, t0, t1, _) in enumerate(spans):
        durations[name].append(t1 - t0)
        self_ns[name] += t1 - t0 - covered[i]

    out: dict[str, tuple[float, str]] = {}
    for name, stats in SPAN_STATS:
        d = durations[name]
        for stat in stats:
            if stat == "calls":
                out[f"{name}.calls"] = (len(d), "count")
            elif stat == "busy_s":
                out[f"{name}.busy_s"] = (sum(d) * 1e-9, "s")
            elif stat == "self_s":
                out[f"{name}.self_s"] = (self_ns[name] * 1e-9, "s")
            else:
                unit, q = stat.split("_p")
                value = float(np.percentile(d, int(q))) * _SCALE[unit] if d else 0.0
                out[f"{name}.{stat}"] = (value, unit)
    out["cli.self_s"] = out.pop(f"{ROOT_SPAN}.self_s")

    def ratio(num, den):
        return num / den if den else 0.0

    n_integrate = len(durations["integrators.integrate"])
    evals = sum(
        1
        for name, _, _, parent in spans
        if name == "model.grad_potential" and parent >= 0 and spans[parent][0] == "integrators.integrate"
    )
    n_hmc = len(durations["hmc.hmc_update"])
    out["integrators.force_evals_per_traj"] = (ratio(evals, n_integrate), "evals/traj")
    out["hmc.accept_ratio"] = (ratio(counts["hmc.accepted"], n_hmc), "frac")
    out["hmc.divergences"] = (counts["hmc.divergences"], "count")
    out["hmc.checkpoint_bytes"] = (counts["hmc.checkpoint_bytes"], "B")
    out["gibbs.phi_accept_ratio"] = (
        ratio(counts["gibbs.phi_moved"], len(durations["gibbs.gibbs_sweep"])),
        "frac",
    )
    out["diagnostics.acf.lags"] = (counts["diagnostics.acf.lags"], "count")
    out["chainio.write_table.rows"] = (counts["chainio.write_table.rows"], "count")
    out["chainio.write_table.bytes"] = (counts["chainio.write_table.bytes"], "B")
    out["chainio.read_columns.rows"] = (counts["chainio.read_columns.rows"], "count")
    return out
