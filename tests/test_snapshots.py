import numpy as np
import pytest

from radks.dynamics import TrajectorySample
from radks.energy import EnergyReport, compute_f, compute_g
from radks.errors import SnapshotFormatError
from radks.grid import RadialField, make_grid
from radks.helmholtz import build_solver, solve
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


def _report():
    return EnergyReport(
        F=-2.0, D=0.5, entropy_term=0.0, mixed_term=1.0, quad_term=-1.0,
        grad_f_term=0.2, f_term=0.2, g_term=0.1, regularized_faces=0,
    )


def _sample(t):
    return TrajectorySample(
        t=t, dt=1e-3, mass=5.2637890139143245, sup_u=1.0, F=-2.631894506957161,
        D=1e-15, identity_residual=0.0, int_v=5.0, int_w=5.0, min_u=1.0,
        report=_report(),
    )


def test_format_float_roundtrip():
    for x in (0.1, 1.0 / 3.0, 5.2637890139143245, 1e-300, -2.5e17):
        assert float(format_float(x)) == x


def test_snapshot_roundtrip_bit_exact(tmp_path):
    g = make_grid(5, 1.0, 32)
    s = build_solver(g)
    rng = np.random.default_rng(0)
    u = RadialField(rng.random(g.N) + 0.5, g)
    v = RadialField(rng.random(g.N), g)
    w = solve(s, u)
    f = compute_f(u, v, s)
    gf = compute_g(u, v)
    g_cells = 0.5 * (gf[:-1] + gf[1:])
    path = tmp_path / "snap.csv"
    write_snapshot(path, g, u, v, w, f, g_cells, t=0.125)
    snap = read_snapshot(path)
    assert snap.t == 0.125
    assert np.array_equal(snap.r, g.centers)
    assert np.array_equal(snap.u, u.values)
    assert np.array_equal(snap.v, v.values)
    assert np.array_equal(snap.w, w.values)
    assert np.array_equal(snap.f, f.values)
    assert np.array_equal(snap.g, g_cells)


@pytest.mark.parametrize("N", [4, 255, 256, 257, 700])
def test_snapshot_bytes_match_per_value_rendering(tmp_path, N):
    # the block writer renders exactly what format_float gives per value,
    # across block boundaries and for signed zeros, infinities and tiny values
    g = make_grid(5, 1.0, N)
    rng = np.random.default_rng(N)
    cols = [rng.standard_normal(N) * 10.0 ** rng.integers(-300, 300, N) for _ in range(5)]
    cols[0][0], cols[1][-1], cols[2][N // 2], cols[3][1] = 0.0, -0.0, np.inf, 5e-324
    u, v, w, f = (RadialField(c, g) for c in cols[:4])
    path = tmp_path / "snap.csv"
    write_snapshot(path, g, u, v, w, f, cols[4], t=0.1)
    expected = "# format_version=1\n# t=0.1\nr,u,v,w,f,g\r\n" + "".join(
        ",".join(format_float(c[i]) for c in [g.centers] + cols) + "\r\n" for i in range(N)
    )
    assert path.read_bytes() == expected.encode()


def test_snapshot_rejects_missing_version(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("r,u,v,w,f,g\n0.1,1,1,1,0,0\n")
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)


def test_snapshot_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# format_version=1\nr,u,v\n0.1,1,1\n")
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)


def test_snapshot_rejects_corrupt_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# format_version=1\nr,u,v,w,f,g\n0.1,one,1,1,0,0\n")
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)


@pytest.mark.parametrize(
    "rows",
    ["0.1,1,1,1,0,0\n0.2,1,1,1,0\n", "0.1,1,1,1,0\n0.2,1,1,1,0\n", "0.1,1,1,1,0,0,9\n"],
    ids=["one-row-short", "every-row-short", "extra-field"],
)
def test_snapshot_rejects_wrong_field_count(tmp_path, rows):
    path = tmp_path / "bad.csv"
    path.write_text("# format_version=1\nr,u,v,w,f,g\n" + rows)
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)


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
