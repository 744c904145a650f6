import numpy as np
import pytest

from radks.dynamics import TrajectorySample
from radks.errors import SnapshotFormatError
from radks.grid import RadialField, make_grid
from radks.initial_data import base_data
from radks.probes import ProbeResult
from radks.snapshots import (
    DIAGNOSTICS_COLUMNS,
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
    path = tmp_path / "snap.csv"
    write_snapshot(path, g, u, v, t=0.125)
    snap = read_snapshot(path)
    assert snap.t == 0.125
    assert np.array_equal(snap.r, g.centers)
    assert np.array_equal(snap.u, u.values)
    assert np.array_equal(snap.v, v.values)


@pytest.mark.parametrize("N", [4, 255, 256, 257, 700])
def test_snapshot_bytes_match_per_value_rendering(tmp_path, N):
    # the block writer renders exactly what format_float gives per value,
    # across block boundaries and for signed zeros, infinities and tiny values
    g = make_grid(5, 1.0, N)
    rng = np.random.default_rng(N)
    cols = [rng.standard_normal(N) * 10.0 ** rng.integers(-300, 300, N) for _ in range(2)]
    cols[0][0], cols[1][-1], cols[0][N // 2], cols[1][1] = 0.0, -0.0, np.inf, 5e-324
    u, v = (RadialField(c, g) for c in cols)
    path = tmp_path / "snap.csv"
    write_snapshot(path, g, u, v, t=0.1)
    expected = "# format_version=2\n# t=0.1\nr,u,v\r\n" + "".join(
        ",".join(format_float(c[i]) for c in [g.centers] + cols) + "\r\n" for i in range(N)
    )
    assert path.read_bytes() == expected.encode()
    snap = read_snapshot(path)
    for got, want in zip((snap.r, snap.u, snap.v), [g.centers] + cols):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_snapshot_r_column_follows_the_grid(tmp_path):
    # the rendered r column is reused across snapshots of one mesh and never
    # carried over to another mesh with the same cell count
    uniform, graded = make_grid(5, 1.0, 300), make_grid(5, 1.0, 300, h_min=1e-6)
    path = tmp_path / "snap.csv"
    for g in (uniform, uniform, graded, uniform):
        write_snapshot(path, g, RadialField(np.ones(g.N), g), RadialField(np.zeros(g.N), g))
        assert np.array_equal(read_snapshot(path).r, g.centers)


# a version-1 snapshot as the r,u,v,w,f,g writer left it: the relaxed bump
# (baseline 1, amplitude 0.5, width 0.3) on the 4-cell n=5 unit ball
VERSION_1_BYTES = (
    b"# format_version=1\n# t=0.25\nr,u,v,w,f,g\r\n"
    b"0.125,1.4203118716672527,1.0051956608731196,1.0130977646421102,"
    b"-6.439293542825908e-15,-0.561358575266143\r\n"
    b"0.375,1.1048056935755488,1.0050968845760073,1.008007588304296,"
    b"-2.6645352591003757e-15,-0.7525269108135959\r\n"
    b"0.625,1.0065164537242546,1.0050202174515184,1.0053451231711446,"
    b"2.886579864025407e-15,-0.20392647598419278\r\n"
    b"0.875,1.0001010301445257,1.004994493836366,1.0047810635851662,"
    b"-6.661338147750939e-16,-0.012758140436739895\r\n"
)


def test_snapshot_reads_version_1(tmp_path):
    g = make_grid(5, 1.0, 4)
    u, v = base_data("bump", g, baseline=1.0, amplitude=0.5, width=0.3, v_mode="relaxed")
    path = tmp_path / "v1.csv"
    path.write_bytes(VERSION_1_BYTES)
    snap = read_snapshot(path)
    assert snap.t == 0.25
    assert np.array_equal(snap.r, g.centers)
    assert np.array_equal(snap.u, u.values)
    assert np.array_equal(snap.v, v.values)


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


def test_snapshot_rejects_bad_header(tmp_path):
    _assert_rejected(tmp_path, "# format_version=1\nr,u,v\n0.1,1,1\n")
    _assert_rejected(tmp_path, "# format_version=2\nr,u,v,w,f,g\n0.1,1,1,1,0,0\n")
    _assert_rejected(tmp_path, "# format_version=2\nr,v,u\n0.1,1,1\n")
    _assert_rejected(tmp_path, "# format_version=2\n# t=0.5\n")


def test_snapshot_rejects_corrupt_numbers(tmp_path):
    _assert_rejected(tmp_path, "# format_version=1\nr,u,v,w,f,g\n0.1,one,1,1,0,0\n")
    # version 1's w, f and g are dropped, but only after they parsed
    _assert_rejected(tmp_path, "# format_version=1\nr,u,v,w,f,g\n0.1,1,1,one,0,0\n")
    _assert_rejected(tmp_path, "# format_version=2\nr,u,v\n0.1,one,1\n")
    _assert_rejected(tmp_path, "# format_version=2\nr,u,v\n0.1,,1\n")
    _assert_rejected(tmp_path, "# format_version=2\nr,u,v\n")


def test_snapshot_rejects_malformed_t_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# format_version=2\n# t=abc\nr,u,v\n0.1,1,1\n")
    with pytest.raises(SnapshotFormatError, match="t=abc"):
        read_snapshot(path)


V1 = "# format_version=1\nr,u,v,w,f,g\n"
V2 = "# format_version=2\nr,u,v\n"


@pytest.mark.parametrize(
    "text",
    [V1 + "0.1,1,1,1,0,0\n0.2,1,1,1,0\n", V1 + "0.1,1,1,1,0\n0.2,1,1,1,0\n",
     V1 + "0.1,1,1,1,0,0,9\n",
     V2 + "0.1,1,1\n0.2,1\n", V2 + "0.1,1\n0.2,1\n", V2 + "0.1,1,1,9\n"],
    ids=["one-row-short", "every-row-short", "extra-field",
         "v2-one-row-short", "v2-every-row-short", "v2-extra-field"],
)
def test_snapshot_rejects_wrong_field_count(tmp_path, text):
    _assert_rejected(tmp_path, text)


def test_diagnostics_writer_roundtrip_and_prefix(tmp_path):
    path = tmp_path / "diag.csv"
    with DiagnosticsWriter(path) as writer:
        writer.write(_sample(0.0))
        writer.write(_sample(0.1))
    rows = read_diagnostics(path)
    assert len(rows) == 2
    assert list(rows[0].keys()) == DIAGNOSTICS_COLUMNS
    assert rows[1]["t"] == 0.1
    assert rows[0]["mass"] == 5.2637890139143245

    # a truncated file (killed run) still parses up to the cut
    text = path.read_text().splitlines()
    (tmp_path / "cut.csv").write_text("\n".join(text[:3]) + "\n")
    assert len(read_diagnostics(tmp_path / "cut.csv")) == 1


DIAG_HEADER = "t,dt,mass,sup_u,F,D,identity_residual\n"


@pytest.mark.parametrize(
    "text",
    ["", DIAG_HEADER + "0,0,1,1,0,0,0\n", "# format_version=2\n" + DIAG_HEADER,
     "# format_version=1\n", "# format_version=1\nt,dt,mass,sup_u,F,D\n",
     "# format_version=1\n" + DIAG_HEADER + "0,0,1,1,0,0\n",
     "# format_version=1\n" + DIAG_HEADER + "0,0,1,1,0,0,0,9\n",
     "# format_version=1\n" + DIAG_HEADER + "0,0,one,1,0,0,0\n",
     "# format_version=1\n" + DIAG_HEADER + "0,0,,1,0,0,0\n"],
    ids=["empty", "no-version", "wrong-version", "no-header", "bad-header",
         "short-row", "long-row", "non-numeric", "empty-cell"],
)
def test_diagnostics_rejects_malformed_files(tmp_path, text):
    path = tmp_path / "diag.csv"
    path.write_text(text)
    with pytest.raises(SnapshotFormatError):
        read_diagnostics(path)


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
