"""SweepTable storage and the CSV/JSON writers against per-value and json.dump reference writers."""

import io
import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from gaussgauge import DimensionError
from gaussgauge.sweeps import (
    _TEXT,
    DIFFUSION_CHOICES,
    GridSpec,
    SweepConfig,
    SweepTable,
    run_drift_eigs,
    run_nm_branch,
    run_nm_surface,
    run_squeezed_gauge,
    write_table,
)

NEG_NAN = math.copysign(math.nan, -1.0)

# signed zeros, NaN with and without the sign bit, infinities, the smallest
# subnormal, repeated values and +-1.0 flags
EDGE_ROWS = [
    [-0.0, 0.0, 1.0],
    [0.0, -0.0, -1.0],
    [NEG_NAN, math.nan, 1.0],
    [math.inf, -math.inf, -1.0],
    [5e-324, -5e-324, 1.0],
    [0.1, 0.1, 1.0],
    [1.0 / 3.0, 2.5e-310, -1.0],
    [-0.0, 0.1, 1.0],
    [1e300, -123456.789, -1.0],
]


def edge_table(rows=EDGE_ROWS):
    return SweepTable(columns=("a", "b", "flag"), data=rows, meta={"command": "edge", "seed": 0})


def small_surface():
    grids = {"lam": GridSpec(-1.5, 1.5, 7), "omega": GridSpec(-1.5, 1.5, 13)}
    return run_nm_surface(SweepConfig(command="nm-surface", diffusion="aniso", grids=grids))


def reference_csv(table):
    """The per-value writer: f"{v:.17g}" for every value of every row."""
    lines = [f"# {key} = {table.meta[key]}" for key in sorted(table.meta)]
    lines.append(",".join(table.columns))
    lines.extend(",".join(f"{v:.17g}" for v in row) for row in table.rows)
    return "\n".join(lines) + "\n"


def reference_json(table, fh):
    """The json.dump writer: NaN to None row by row, the whole payload through json."""
    rows = [[None if math.isnan(v) else v for v in row] for row in table.data.tolist()]
    payload = {"meta": table.meta, "columns": list(table.columns), "rows": rows}
    json.dump(payload, fh, sort_keys=True, indent=1, allow_nan=False)
    fh.write("\n")


def finite_edge_table():
    # JSON has no infinity, so the infinite row is left out
    return edge_table([row for row in EDGE_ROWS if not math.isinf(row[0])])


def ulp_drift_eigs():
    # linspace lands delta one ulp off +-1 on this grid
    return run_drift_eigs(
        SweepConfig(command="drift-eigs", grids={"delta": GridSpec(-1.7, 1.3, 31)}))


def default_figure_tables():
    """Every sweep table at its default grid and parameters."""
    yield run_drift_eigs(SweepConfig(command="drift-eigs"))
    for axis in ("kappa", "r", "phi"):
        for branch in ("plus", "minus"):
            yield run_squeezed_gauge(SweepConfig(command="squeezed-gauge"), axis, branch)
    for diffusion in DIFFUSION_CHOICES:
        yield run_nm_branch(SweepConfig(command="nm-branch", diffusion=diffusion))
        yield run_nm_surface(SweepConfig(command="nm-surface", diffusion=diffusion))


def test_edge_values_survive_construction():
    data = edge_table().data
    assert np.signbit(data[0, 0]) and not np.signbit(data[0, 1])
    assert math.isnan(data[2, 0]) and np.signbit(data[2, 0])
    assert data[4, 0] == 5e-324


@pytest.mark.parametrize("make", [edge_table, small_surface, lambda: run_drift_eigs(
    SweepConfig(command="drift-eigs", grids={"delta": GridSpec(-1.7, 1.3, 31)}))],
    ids=["edge", "nm-surface", "drift-eigs"])
def test_csv_matches_per_value_writer(make):
    table = make()
    assert "".join(_TEXT["csv"](table)) == reference_csv(table)


def test_csv_edge_spellings():
    body = "".join(_TEXT["csv"](edge_table())).splitlines()[3:]
    assert body[:5] == ["-0,0,1", "0,-0,-1", "nan,nan,1", "inf,-inf,-1",
                        "4.9406564584124654e-324,-4.9406564584124654e-324,1"]


def test_json_nan_becomes_null():
    table = finite_edge_table()
    payload = json.loads("".join(_TEXT["json"](table)))
    assert payload["columns"] == list(table.columns)
    assert len(payload["rows"]) == len(table.rows)
    for got, want in zip(payload["rows"], table.rows):
        for g, w in zip(got, want):
            if math.isnan(w):
                assert g is None
            else:
                assert g == w and math.copysign(1.0, g) == math.copysign(1.0, w)


@pytest.mark.parametrize("make", [
    finite_edge_table, ulp_drift_eigs, small_surface,
    lambda: SweepTable(columns=("a", "b"), data=np.empty((0, 2)), meta={"command": "empty"}),
    lambda: SweepTable(columns=("a",), data=[[NEG_NAN], [-0.0]], meta={}),
], ids=["edge", "drift-eigs-ulp", "nm-surface", "no-rows", "one-column"])
def test_json_matches_json_dump(make):
    table = make()
    want = io.StringIO()
    reference_json(table, want)
    assert "".join(_TEXT["json"](table)) == want.getvalue()


def test_json_matches_json_dump_on_default_tables():
    tables = list(default_figure_tables())
    assert len(tables) == 13
    for table in tables:
        want = io.StringIO()
        reference_json(table, want)
        assert "".join(_TEXT["json"](table)) == want.getvalue(), table.meta["command"]


def test_json_rejects_infinity_before_writing(tmp_path):
    # json.dump names the first infinity in row order, here -inf
    table = edge_table([[1.0, -math.inf, 1.0], [math.inf, 2.0, -1.0], [math.nan, 0.0, 1.0]])
    with pytest.raises(ValueError) as want:
        reference_json(table, io.StringIO())
    fh = io.StringIO()
    with pytest.raises(ValueError) as got:
        fh.writelines(_TEXT["json"](table))
    assert str(got.value) == str(want.value) == (
        "Out of range float values are not JSON compliant: -inf")
    assert fh.getvalue() == ""
    # a rejected table leaves an existing file's bytes as they were
    path = tmp_path / "inf.json"
    path.write_bytes(b"old table\n")
    with pytest.raises(ValueError):
        write_table(table, str(path), "json")
    assert path.read_bytes() == b"old table\n"


@pytest.mark.parametrize("fmt, table, error", [
    ("json", edge_table(), ValueError),
    ("json", SweepTable(columns=("a",), data=[[1.0]], meta={"t": math.inf}), ValueError),
    ("xml", edge_table(), DimensionError),
])
def test_rejected_table_creates_no_file(tmp_path, fmt, table, error):
    path = tmp_path / "new.out"
    with pytest.raises(error):
        write_table(table, str(path), fmt)
    assert not path.exists()


def test_data_is_read_only():
    for table in (edge_table(), small_surface()):
        assert table.data.dtype == np.float64
        assert not table.data.flags.writeable
        with pytest.raises(ValueError):
            table.data[0, 0] = 1.0
        with pytest.raises(ValueError):
            table.column(table.columns[0])[0] = 1.0


def test_callers_array_stays_writable():
    a = np.zeros((1, 1))
    table = SweepTable(("x",), a, {})
    assert a.flags.writeable and not table.data.flags.writeable
    assert np.shares_memory(table.data, a)  # a view: no copy of the rows
    a[0, 0] = 1.0
    assert table.data[0, 0] == 1.0


def test_data_shape_checked():
    with pytest.raises(DimensionError):
        SweepTable(columns=("a", "b"), data=[[1.0, 2.0, 3.0]], meta={})
    with pytest.raises(DimensionError):
        SweepTable(columns=("a",), data=[1.0, 2.0], meta={})


@pytest.mark.parametrize("make", [edge_table, small_surface], ids=["edge", "nm-surface"])
def test_rows_column_select_types(make):
    table = make()
    rows = table.rows
    assert type(rows) is tuple and len(rows) == len(table.data)
    assert all(type(row) is tuple and len(row) == len(table.columns) for row in rows)
    assert all(type(v) is float for row in rows for v in row)
    npt.assert_array_equal(np.array(rows), table.data)
    for i, name in enumerate(table.columns):
        column = table.column(name)
        assert isinstance(column, np.ndarray) and column.dtype == np.float64
        npt.assert_array_equal(column, [row[i] for row in rows])
    flag = table.columns[-1]
    for value in (1.0, -1.0, 0.0, 7.0):
        got = table.select(**{flag: value})
        want = [row for row in rows if row[-1] == value]
        assert type(got) is list and all(type(row) is tuple for row in got)
        assert all(type(v) is float for row in got for v in row)
        npt.assert_array_equal(np.array(got).reshape(-1, len(table.columns)),
                               np.array(want).reshape(-1, len(table.columns)))


def test_select_on_two_flags():
    table = small_surface()
    got = table.select(on_branch=0.0, unstable=1.0)
    i, j = table.columns.index("on_branch"), table.columns.index("unstable")
    want = [row for row in table.rows if row[i] == 0.0 and row[j] == 1.0]
    assert got and len(got) < len(table.rows)
    npt.assert_array_equal(np.array(got), np.array(want))
