"""On-disk formats: comma-separated tables with full-precision floats and
sidecar key-value metadata files.

Floats are rendered with ``repr``, which is the shortest decimal string
that round-trips exactly, so every file reads back bit-identical.
"""

from __future__ import annotations

import contextlib
import csv
import warnings
from pathlib import Path

import numpy as np

from .model import ObservedSeries


def fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


# cell types whose ``str`` is already ``fmt``'s rendering, so a row made only
# of them goes to the csv module's C writer as it is
_PLAIN = frozenset((float, int, str))


@contextlib.contextmanager
def atomic_write(path: Path, mode: str = "w", **kwargs):
    """Open ``<path>.tmp`` for writing, creating its directory, and rename it to
    ``path`` when the block ends; a block that fails part-way leaves ``path``
    as it was and no ``.tmp``. Every file the program writes goes through here."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


def write_table(path: Path, header: list[str], rows) -> None:
    """Write a table with a header row, atomically (see ``atomic_write``)."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            row if _PLAIN.issuperset(map(type, row)) else [fmt(v) for v in row]
            for row in map(tuple, rows)
        )


def read_table(path: Path) -> dict[str, list[str]]:
    """Read a table as string columns; blank lines are skipped, and a row with
    more or fewer cells than the header is refused."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, no header")
        cols: dict[str, list[str]] = {name: [] for name in header}
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}:{reader.line_num}: {len(row)} cells for {len(header)} columns"
                )
            for name, v in zip(header, row):
                cols[name].append(v)
    return cols


def read_columns(path: Path) -> dict[str, np.ndarray]:
    """Read a table as float64 columns (non-numeric columns stay as strings).

    A numeric table is parsed in one pass by ``np.loadtxt``, whose floats are
    bit-identical to ``float()``'s. A table it refuses (quotes, dates, empty
    cells, ragged rows) or that has no rows is read cell by cell instead. A
    header that names a column twice is refused.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader([fh.readline()]))
        for i, name in enumerate(header):
            if name in header[:i]:
                raise ValueError(f"{path}: column {name!r} appears twice in the header")
        try:
            with warnings.catch_warnings():
                # a table without rows goes to the cell-by-cell reader below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            data = None
    if data is not None and data.shape[1] == len(header):
        return dict(zip(header, np.ascontiguousarray(data.T)))
    out: dict[str, np.ndarray] = {}
    for name, vals in read_table(path).items():
        try:
            out[name] = np.array([float(v) for v in vals])
        except ValueError:
            out[name] = np.array(vals)
    return out


def meta_path(path: Path) -> Path:
    path = Path(path)
    return path.with_suffix(path.suffix + ".meta")


def write_metadata(path: Path, meta: dict) -> None:
    """Sidecar ``<file>.meta`` with one ``key = value`` line per entry, written
    atomically."""
    with atomic_write(meta_path(path)) as fh:
        for key, value in meta.items():
            fh.write(f"{key} = {fmt(value)}\n")


def read_metadata(path: Path) -> dict[str, str]:
    """The ``key = value`` lines of ``<file>.meta``; blank lines are skipped,
    and any other line is refused."""
    out = {}
    path = meta_path(path)
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            key, sep, value = line.partition(" = ")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            out[key] = value
    return out


def write_series(path: Path, data: ObservedSeries, meta: dict | None = None) -> None:
    rows = zip(range(1, data.n + 1), data.y.tolist(), data.ln_rv.tolist())
    write_table(path, ["t", "y", "ln_rv"], rows)
    if meta is not None:
        write_metadata(path, meta)


def require_numeric(path: Path, cols: dict[str, np.ndarray], names) -> None:
    """Refuse a table from ``read_columns`` that lacks one of the columns
    ``names`` or holds a cell in one of them that is not a number (such a
    column is read as strings)."""
    for name in names:
        if name not in cols:
            raise ValueError(f"{path}: missing column {name!r}")
        if cols[name].dtype.kind != "f":
            raise ValueError(f"{path}: column {name!r} has a non-numeric cell")


def read_series(path: Path) -> ObservedSeries:
    """The ``y`` and ``ln_rv`` columns of a series file, or the log of its
    ``rv`` column when it has no ``ln_rv``."""
    cols = read_columns(path)
    if "ln_rv" in cols:
        require_numeric(path, cols, ("y", "ln_rv"))
        return ObservedSeries(y=cols["y"], ln_rv=cols["ln_rv"])
    require_numeric(path, cols, ("y", "rv"))
    if np.any(cols["rv"] <= 0.0):
        raise ValueError(f"{path}: 'rv' column must be strictly positive")
    return ObservedSeries(y=cols["y"], ln_rv=np.log(cols["rv"]))
