import csv
import datetime
import math
import warnings

import numpy as np
import pytest

from rsvhmc import chainio
from rsvhmc.chainio import fmt, read_columns, read_table, write_table


def write_by_cell(path, header, rows):
    """The per-cell writer: every cell rendered by ``fmt``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def read_by_cell(path):
    """The per-cell reader: ``float()`` on every cell, strings where that fails."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = {name: [] for name in header}
        for row in reader:
            for name, v in zip(header, row):
                cols[name].append(v)
    out = {}
    for name, vals in cols.items():
        try:
            out[name] = np.array([float(v) for v in vals])
        except ValueError:
            out[name] = np.array(vals)
    return out


def assert_same_columns(got, expected):
    assert list(got) == list(expected)
    for name, col in expected.items():
        assert got[name].dtype == col.dtype, name
        assert got[name].shape == col.shape, name
        if col.dtype.kind == "f":
            assert got[name].tobytes() == col.tobytes(), name
        else:
            np.testing.assert_array_equal(got[name], col)


CELLS = [
    True,
    False,
    np.bool_(True),
    7,
    -3,
    np.int64(5),
    0.5,
    -0.0,
    math.nan,
    math.inf,
    -math.inf,
    1e16,
    1e-5,
    5e-324,
    np.float32(0.1),
    np.float64(0.1),
    "a,b",
    'say "hi"',
    datetime.date(2024, 1, 2),
    "",
]


class TestWriteTable:
    @pytest.mark.parametrize("cell", CELLS, ids=repr)
    def test_each_cell_type_matches_per_cell_writer(self, tmp_path, cell):
        rows = [[cell], [cell, 1.25, 3, "x"], [0.1, cell]]
        write_table(tmp_path / "fast.csv", ["a", "b", "c", "d"], rows)
        write_by_cell(tmp_path / "slow.csv", ["a", "b", "c", "d"], rows)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()

    def test_mixed_rows_of_any_iterable(self, tmp_path):
        x = np.random.default_rng(1).normal(size=(50, 3)) * 1e3
        rows = [*x.tolist(), *x, *map(tuple, x.tolist()), (v for v in (1, 2.5, "z"))]
        write_table(tmp_path / "fast.csv", ["a", "b", "c"], rows)
        slow_rows = [*x.tolist(), *x, *map(tuple, x.tolist()), (1, 2.5, "z")]
        write_by_cell(tmp_path / "slow.csv", ["a", "b", "c"], slow_rows)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()

    def test_failed_write_leaves_no_file(self, tmp_path):
        def rows():
            yield [1.0, 2.0]
            raise RuntimeError("killed mid-write")

        path = tmp_path / "t.csv"
        with pytest.raises(RuntimeError):
            write_table(path, ["a", "b"], rows())
        assert list(tmp_path.iterdir()) == []

    def test_failed_rewrite_keeps_previous_file(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["a"], [[1.0]])
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_table(path, ["a"], [[2.0], 3.0])  # a row that is not iterable
        assert path.read_bytes() == before
        assert not (tmp_path / "t.csv.tmp").exists()


class _Unprintable:
    def __str__(self):
        raise RuntimeError("killed mid-write")


def test_failed_metadata_rewrite_keeps_previous_sidecar(tmp_path):
    path = tmp_path / "t.csv"
    chainio.write_metadata(path, {"a": 1})
    before = chainio.meta_path(path).read_bytes()
    with pytest.raises(RuntimeError):
        chainio.write_metadata(path, {"a": 2, "b": _Unprintable()})
    assert chainio.meta_path(path).read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv.meta"]


class TestReadColumns:
    @pytest.mark.parametrize(
        "text",
        [
            "a,b\r\n1.5,2\r\n3,-0.0\r\n",
            "a,b\n1,2\n",
            "h\n0.1\n-2e-7\n",
            "a,b\nnan,inf\n-inf,1e16\n5e-324,NaN\n1e400,-0.0\n",
            "a,b\n1,2\n\n3,4\n\n",
            "a,b\n1,2",
            'a,b\n"1.5",2\n"-3",4\n',
            "name,v\na#b,1\nc,2\n",
            "date,y,rv\n2024-01-02,0.01,0.0002\n2024-01-03,-0.02,0.0003\n",
            "a,b\n1_0,2\n",
            "parameter,two_tau_int,note\nphi,3.5,\nmu,,degenerate column\n",
        ],
        ids=["crlf", "one-row", "one-column", "nan-inf", "blank-lines", "no-final-newline",
             "quoted-numbers", "hash-in-string", "dates", "underscore", "empty-cells"],
    )
    def test_bit_identical_to_per_cell_reader(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        assert_same_columns(read_columns(path), read_by_cell(path))

    @pytest.mark.parametrize("text", ["a,b\n", "a,b\r\n", "a\n", "a,b\n\n"])
    def test_header_only_gives_empty_float_columns(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cols = read_columns(path)
        assert_same_columns(cols, read_by_cell(path))
        assert all(c.dtype == np.float64 and c.shape == (0,) for c in cols.values())

    def test_written_chain_reads_back_bit_identical(self, tmp_path):
        x = np.random.default_rng(2).normal(size=(2000, 4)) * np.array([1e-8, 1.0, 1e8, 3.0])
        path = tmp_path / "chain.csv"
        write_table(path, ["a", "b", "c", "d"], x.tolist())
        cols = read_columns(path)
        assert_same_columns(cols, read_by_cell(path))
        assert np.stack(list(cols.values()), axis=1).tobytes() == x.tobytes()

    @pytest.mark.parametrize(
        "text, line",
        [("a,b,c\n1,2,3\n4,5,6\n7,8\n", 4), ("a,b\n1,2\n3,4,5\n6,7\n", 3), ("a,b,c\n1,2\n", 2)],
    )
    def test_ragged_rows_refused(self, tmp_path, text, line):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"t.csv:{line}:"):
            read_columns(path)
        with pytest.raises(ValueError, match=f"t.csv:{line}:"):
            read_table(path)

    @pytest.mark.parametrize("cell", ["0.5", ""], ids=["numeric", "empty-cell"])
    def test_repeated_header_name_refused(self, tmp_path, cell):
        path = tmp_path / "t.csv"
        path.write_text(f"phi,mu,phi\n10.0,1.0,0.1\n11.0,2.0,{cell}\n")
        with pytest.raises(ValueError) as exc:
            read_columns(path)
        assert str(exc.value) == f"{path}: column 'phi' appears twice in the header"

    def test_empty_file_refused(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            read_columns(path)


def test_series_roundtrip(tmp_path):
    from rsvhmc.synth import STUDY_PARAMS, simulate

    data = simulate(STUDY_PARAMS, 200, seed=4).data
    chainio.write_series(tmp_path / "d.csv", data)
    back = chainio.read_series(tmp_path / "d.csv")
    assert back.y.tobytes() == data.y.tobytes()
    assert back.ln_rv.tobytes() == data.ln_rv.tobytes()


class TestRequireNumeric:
    @pytest.mark.parametrize("cell", ["abc", ""], ids=["text", "empty"])
    def test_non_numeric_cell_named_with_file_and_column(self, tmp_path, cell):
        path = tmp_path / "t.csv"
        path.write_text(f"a,b\n1,2\n3,{cell}\n")
        cols = read_columns(path)
        chainio.require_numeric(path, cols, ["a"])
        with pytest.raises(ValueError) as exc:
            chainio.require_numeric(path, cols, ["a", "b"])
        assert str(exc.value) == f"{path}: column 'b' has a non-numeric cell"

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a\n1\n")
        with pytest.raises(ValueError) as exc:
            chainio.require_numeric(path, read_columns(path), ["a", "z"])
        assert str(exc.value) == f"{path}: missing column 'z'"


class TestReadSeries:
    @pytest.mark.parametrize("column", ["y", "ln_rv", "rv"])
    def test_non_numeric_cell_refused(self, tmp_path, column):
        path = tmp_path / "d.csv"
        other = "rv" if column == "y" else column
        cells = {"y": ["0.1", "0.2"], other: ["0.3", "0.4"]}
        cells[column][1] = "abc"
        path.write_text(f"y,{other}\n" + "".join(f"{a},{b}\n" for a, b in zip(*cells.values())))
        with pytest.raises(ValueError) as exc:
            chainio.read_series(path)
        assert str(exc.value) == f"{path}: column '{column}' has a non-numeric cell"

    def test_rv_column_read_as_its_log(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,rv\n0.1,0.5\n-0.2,2.0\n")
        series = chainio.read_series(path)
        np.testing.assert_array_equal(series.ln_rv, np.log([0.5, 2.0]))

    @pytest.mark.parametrize("header", ["t,ln_rv", "t,y"])
    def test_missing_column_refused(self, tmp_path, header):
        path = tmp_path / "d.csv"
        path.write_text(f"{header}\n1,0.5\n")
        with pytest.raises(ValueError, match="missing column"):
            chainio.read_series(path)
