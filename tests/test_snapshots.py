import struct

import numpy as np
import pytest

from radks.dynamics import TrajectorySample
from radks.errors import SnapshotFormatError
from radks.grid import RadialField, make_grid
from radks.initial_data import base_data
from radks.probes import ProbeResult
from radks.snapshots import (
    DiagnosticsWriter,
    format_float,
    read_diagnostics,
    read_snapshot,
    read_table,
    write_probe_rows,
    write_snapshot,
    write_table,
)


def _sample(t):
    return TrajectorySample(
        t=t, dt=1e-3, mass=5.2637890139143245, sup_u=1.0, F=-2.631894506957161,
        D=1e-15, identity_residual=0.0, int_v=5.0, int_w=5.0, min_u=1.0,
    )


def test_format_float_roundtrip():
    for x in (0.1, 1.0 / 3.0, 5.2637890139143245, 1e-300, -2.5e17):
        assert float(format_float(x)) == x


def test_snapshot_roundtrip_bit_exact(tmp_path):
    g = make_grid(5, 1.0, 32)
    rng = np.random.default_rng(0)
    u = RadialField(rng.random(g.N) + 0.5, g)
    v = RadialField(rng.random(g.N), g)
    path = tmp_path / "snap.snap"
    write_snapshot(path, g, u, v, t=0.125)
    snap = read_snapshot(path)
    assert snap.t == 0.125
    assert np.array_equal(snap.r, g.centers)
    assert np.array_equal(snap.u, u.values)
    assert np.array_equal(snap.v, v.values)


SPECIAL_N = [4, 255, 256, 257, 700]


def _special_columns(g):
    # signed zeros, an infinity, the smallest subnormal, a NaN and
    # magnitudes across 1e-300..1e300
    rng = np.random.default_rng(g.N)
    cols = [rng.standard_normal(g.N) * 10.0 ** rng.integers(-300, 300, g.N) for _ in range(2)]
    cols[0][0], cols[1][-1], cols[0][g.N // 2], cols[1][1] = 0.0, -0.0, np.inf, 5e-324
    cols[1][g.N // 3] = np.nan
    return cols


@pytest.mark.parametrize("N", SPECIAL_N)
def test_snapshot_bytes_match_per_value_rendering(tmp_path, N):
    # the version-3 layout: the text header, then each column's values as
    # their little-endian float64 bytes, r first, then u, then v
    g = make_grid(5, 1.0, N)
    cols = _special_columns(g)
    u, v = (RadialField(c, g) for c in cols)
    path = tmp_path / "snap.snap"
    write_snapshot(path, g, u, v, t=0.1)
    expected = f"# format_version=3\n# t=0.1\n# rows={N}\nr,u,v\n".encode() + b"".join(
        struct.pack("<d", x) for c in [g.centers] + cols for x in c.tolist()
    )
    assert path.read_bytes() == expected
    snap = read_snapshot(path)
    assert snap.t == 0.1
    for got, want in zip((snap.r, snap.u, snap.v), [g.centers] + cols):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_snapshot_writes_of_one_state_are_identical(tmp_path):
    g = make_grid(5, 1.0, 257)
    u, v = (RadialField(c, g) for c in _special_columns(g))
    first, second = tmp_path / "a.snap", tmp_path / "b.snap"
    for path in (first, second):
        write_snapshot(path, g, u, v, t=0.5)
    assert first.read_bytes() == second.read_bytes()


def test_snapshot_r_column_follows_the_grid(tmp_path):
    # each snapshot holds its own mesh's centers, never another mesh's with
    # the same cell count
    uniform, graded = make_grid(5, 1.0, 300), make_grid(5, 1.0, 300, h_min=1e-6)
    path = tmp_path / "snap.snap"
    for g in (uniform, uniform, graded, uniform):
        write_snapshot(path, g, RadialField(np.ones(g.N), g), RadialField(np.zeros(g.N), g))
        assert np.array_equal(read_snapshot(path).r, g.centers)


# a version-1 snapshot as the r,u,v,w,f,g writer left it: the relaxed bump
# (baseline 1, amplitude 0.5, width 0.3) on the 4-cell n=5 unit ball.
# read_snapshot rejects it; the README's conversion line reads it
VERSION_1_BYTES = (
    b"# format_version=1\n# t=0.25\nr,u,v,w,f,g\r\n"
    b"0.125,1.4203118716672527,1.0051956608731194,1.0130977646421102,"
    b"-6.439293542825908e-15,-0.561358575266143\r\n"
    b"0.375,1.1048056935755488,1.005096884576007,1.008007588304296,"
    b"-2.6645352591003757e-15,-0.7525269108135959\r\n"
    b"0.625,1.0065164537242546,1.0050202174515181,1.0053451231711446,"
    b"2.886579864025407e-15,-0.20392647598419278\r\n"
    b"0.875,1.0001010301445257,1.0049944938363657,1.0047810635851662,"
    b"-6.661338147750939e-16,-0.012758140436739895\r\n"
)


# the same state as the version-2 (r,u,v) CSV writer left it
VERSION_2_BYTES = (
    b"# format_version=2\n# t=0.25\nr,u,v\r\n"
    b"0.125,1.4203118716672527,1.0051956608731194\r\n"
    b"0.375,1.1048056935755488,1.005096884576007\r\n"
    b"0.625,1.0065164537242546,1.0050202174515181\r\n"
    b"0.875,1.0001010301445257,1.0049944938363657\r\n"
)


@pytest.mark.parametrize("data", [VERSION_1_BYTES, VERSION_2_BYTES], ids=["v1", "v2"])
def test_readme_converts_csv_snapshots(tmp_path, data):
    # the README's one-line conversion of a version-1 or -2 file, then
    # write_snapshot on the mesh it was written on
    g = make_grid(5, 1.0, 4)
    u, v = base_data("bump", g, baseline=1.0, amplitude=0.5, width=0.3, v_mode="relaxed")
    old, new = tmp_path / "old.csv", tmp_path / "new.snap"
    old.write_bytes(data)
    r, u1, v1 = np.loadtxt(old, delimiter=",", comments=("#", "r,"), usecols=(0, 1, 2), unpack=True)
    assert np.array_equal(r, g.centers)
    write_snapshot(new, g, RadialField(u1, g), RadialField(v1, g))
    u2, v2 = read_snapshot(new).fields(g)
    assert np.array_equal(u2.values, u.values)
    assert np.array_equal(v2.values, v.values)


V3_HEAD = b"# format_version=3\n# t=0.5\n# rows=4\nr,u,v\n"
V3_BODY = np.arange(12.0, dtype="<f8").tobytes()


def test_snapshot_v3_fixture_reads(tmp_path):
    path = tmp_path / "ok.snap"
    path.write_bytes(V3_HEAD + V3_BODY)
    snap = read_snapshot(path)
    assert snap.t == 0.5
    assert [list(c) for c in (snap.r, snap.u, snap.v)] == [
        [0.0, 1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0], [8.0, 9.0, 10.0, 11.0]
    ]


@pytest.mark.parametrize(
    "data, match",
    [(V3_HEAD + V3_BODY[:-1], "body holds 95 bytes"),
     (V3_HEAD + V3_BODY + b"\n", "body holds 97 bytes"),
     (V3_HEAD.replace(b"rows=4", b"rows=5") + V3_BODY, "5 rows"),
     (V3_HEAD.replace(b"rows=4", b"rows=3") + V3_BODY, "3 rows"),
     (V3_HEAD.replace(b"rows=4", b"rows=0"), "no data rows"),
     (V3_HEAD.replace(b"rows=4", b"rows=four") + V3_BODY, "rows="),
     (V3_HEAD.replace(b"# rows=4\n", b"") + V3_BODY, "rows="),
     (V3_HEAD.replace(b"r,u,v\n", b"") + V3_BODY, "column line"),
     (V3_HEAD.replace(b"r,u,v\n", b"r,v,u\n") + V3_BODY, "column line"),
     (V3_HEAD.replace(b"t=0.5", b"t=abc") + V3_BODY, "t=abc")],
    ids=["truncated", "trailing-bytes", "rows-above-body", "rows-below-body", "zero-rows",
         "non-integer-rows", "no-rows-line", "no-column-line", "wrong-columns", "malformed-t"],
)
def test_snapshot_v3_rejects_malformed(tmp_path, data, match):
    path = tmp_path / "bad.snap"
    path.write_bytes(data)
    with pytest.raises(SnapshotFormatError, match=match):
        read_snapshot(path)


def _assert_rejected(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)


def test_snapshot_rejects_missing_version(tmp_path):
    _assert_rejected(tmp_path, "r,u,v,w,f,g\n0.1,1,1,1,0,0\n")
    _assert_rejected(tmp_path, "r,u,v\n0.1,1,1\n")
    _assert_rejected(tmp_path, "# format_version=3\nr,u,v\n0.1,1,1\n")
    _assert_rejected(tmp_path, "")


def test_snapshot_rejects_non_text_file(tmp_path):
    # not version 3: a format error, not a decode error
    path = tmp_path / "bad.snap"
    path.write_bytes(bytes(range(256)))
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)


def test_snapshot_rejects_bad_header(tmp_path):
    # the CSV snapshots of versions 1 and 2 no longer read: the error names
    # the expected and the found first line
    path = tmp_path / "old.csv"
    for version, data in ((1, VERSION_1_BYTES), (2, VERSION_2_BYTES)):
        path.write_bytes(data)
        with pytest.raises(SnapshotFormatError, match=(
            f"expected '# format_version=3' on the first line, got '# format_version={version}'"
        )):
            read_snapshot(path)


def test_diagnostics_writer_roundtrip_and_prefix(tmp_path):
    path = tmp_path / "diag.csv"
    with DiagnosticsWriter(path) as writer:
        writer.write(_sample(0.0))
        writer.write(_sample(0.1))
    rows = read_diagnostics(path)
    assert len(rows) == 2
    assert rows.names == TrajectorySample._fields
    for name, x in zip(rows.names, _sample(0.1)):
        assert rows[name][1] == x, name

    # a truncated file (killed run) still parses up to the cut
    text = path.read_text().splitlines()
    (tmp_path / "cut.csv").write_text("\n".join(text[:3]) + "\n")
    assert len(read_diagnostics(tmp_path / "cut.csv")) == 1


DIAG_HEADER = "t,dt,mass,sup_u,F,D,identity_residual,int_v,int_w,min_u\n"


@pytest.mark.parametrize(
    "text",
    ["", DIAG_HEADER + "0,0,1,1,0,0,0,1,1,1\n", "# format_version=2\n" + DIAG_HEADER,
     "# format_version=1\n", "# format_version=1\nt,dt,mass,sup_u,F,D\n",
     "# format_version=1\n" + DIAG_HEADER + "0,0,1,1,0,0,0,1,1\n",
     "# format_version=1\n" + DIAG_HEADER + "0,0,1,1,0,0,0,1,1,1,9\n",
     "# format_version=1\n" + DIAG_HEADER + "0,0,one,1,0,0,0,1,1,1\n",
     "# format_version=1\n" + DIAG_HEADER + "0,0,,1,0,0,0,1,1,1\n"],
    ids=["empty", "no-version", "wrong-version", "no-header", "bad-header",
         "short-row", "long-row", "non-numeric", "empty-cell"],
)
def test_diagnostics_rejects_malformed_files(tmp_path, text):
    path = tmp_path / "diag.csv"
    path.write_text(text)
    with pytest.raises(SnapshotFormatError):
        read_diagnostics(path)


def test_diagnostics_rejects_the_seven_column_file(tmp_path):
    # the file written before int_v, int_w and min_u reached disk: its
    # header row is the schema check, and the error names both headers
    path = tmp_path / "diag.csv"
    path.write_text("# format_version=1\nt,dt,mass,sup_u,F,D,identity_residual\n0,0,1,1,0,0,0\n")
    with pytest.raises(SnapshotFormatError) as info:
        read_diagnostics(path)
    message = str(info.value)
    assert str(list(TrajectorySample._fields)) in message
    assert str(["t", "dt", "mass", "sup_u", "F", "D", "identity_residual"]) in message


def test_snapshot_compares_and_hashes_by_identity(tmp_path):
    g = make_grid(5, 1.0, 64)
    u = RadialField(np.linspace(1.0, 2.0, 64), g)
    write_snapshot(tmp_path / "s.snap", g, u, u, t=0.5)
    a, b = read_snapshot(tmp_path / "s.snap"), read_snapshot(tmp_path / "s.snap")
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_write_table_cells(tmp_path):
    # floats in round-trip repr, bools as true/false, None empty, the rest as is
    path = tmp_path / "table.csv"
    write_table(path, ["a", "b", "c", "d"], [[0.1, True, None, 3], [1e-300, False, "x", ""]])
    assert read_table(path)[1] == [["0.1", "true", "", "3"], ["1e-300", "false", "x", ""]]


def test_probe_rows_roundtrip(tmp_path):
    rows = [
        ProbeResult(name="entropy_floor", lhs=-2.0, rhs_free=9.68, implied_c=0.0,
                    hard_pass=True, sample=0.5),
        ProbeResult(name="pointwise_w", lhs=1.0, rhs_free=5.0, implied_c=0.2),
    ]
    path = tmp_path / "probe.csv"
    write_probe_rows(path, rows)
    header, data = read_table(path)
    assert header == ["probe", "param", "sample", "lhs", "rhs_free", "implied_C", "hard_pass"]
    assert data[0][0] == "entropy_floor"
    assert data[0][-1] == "true"
    assert data[1][-1] == ""


def test_write_table_roundtrip(tmp_path):
    path = tmp_path / "table.csv"
    write_table(path, ["a", "b"], [[1.5, "x"], [2.5, "y"]])
    header, rows = read_table(path)
    assert header == ["a", "b"]
    assert rows == [["1.5", "x"], ["2.5", "y"]]
