import numpy as np
import pytest

from radks.cli import main
from radks.config import load_config
from radks.dynamics import run
from radks.grid import make_grid
from radks.helmholtz import apply_operator, build_solver, solve
from radks.snapshots import read_diagnostics, read_snapshot, read_table

BASE = """\
# format_version=1
[grid]
n = 5
R = 1.0
N = 96

[stepper]
t_end = 0.1
dt_max = 5e-3
output_every = 5

[base]
kind = bump
baseline = 1.0
amplitude = 0.5
width = 0.3

[run]
outdir = {outdir}
snapshot_every = 3
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(BASE.format(outdir=tmp_path / "out"))
    return path


def test_simulate_completes_with_outputs(config_path, tmp_path):
    assert main(["-c", str(config_path), "simulate"]) == 0
    out = tmp_path / "out"
    rows = read_diagnostics(out / "diagnostics.csv")
    assert rows[0]["t"] == 0.0
    assert rows[-1]["t"] == pytest.approx(0.1)
    snap = read_snapshot(out / "snapshot_final.csv")
    assert len(snap.u) == 96
    summary = (out / "summary.txt").read_text()
    assert "status=completed" in summary
    assert (out / "snapshot_00000000.csv").exists()


def test_simulate_deterministic_outputs(config_path, tmp_path):
    out = tmp_path / "out"
    names = ["diagnostics.csv", "summary.txt"]

    def outputs():
        snapshots = sorted(p.name for p in out.glob("snapshot_*.csv"))
        return {name: (out / name).read_bytes() for name in names + snapshots}

    assert main(["-c", str(config_path), "simulate"]) == 0
    first = outputs()
    assert "snapshot_final.csv" in first and "snapshot_00000015.csv" in first
    for path in out.iterdir():
        path.unlink()
    assert main(["-c", str(config_path), "simulate"]) == 0
    assert outputs() == first


@pytest.mark.parametrize("output_every, snapshot_every", [(1, 1), (3, 2)])
def test_sampled_w_and_f_belong_to_their_own_state(
    config_path, tmp_path, monkeypatch, output_every, snapshot_every
):
    # Sampled states carry their energy report (w, f, g) into the next
    # step and the sink, between snapshot writes; a report left over from
    # another state would show up here.
    from radks import cli

    grid = make_grid(5, 1.0, 96)
    solver = build_solver(grid)
    checked = []

    def check(state):
        w = solve(solver, state.u).values
        assert np.array_equal(state.report.w.values, w), state.step
        f = apply_operator(solver, state.v) - w
        assert np.array_equal(state.report.f.values, f), state.step
        checked.append(state.step)

    def checked_run(*args, sink, **kwargs):
        def checking_sink(state, sample):
            check(state)
            sink(state, sample)

        state, summary, samples = run(*args, sink=checking_sink, **kwargs)
        check(state)
        return state, summary, samples

    monkeypatch.setattr(cli, "run", checked_run)
    cfg = load_config(config_path, [f"stepper.output_every={output_every}",
                                    f"run.snapshot_every={snapshot_every}"])
    summary, _ = cli.simulate_run(cfg)
    assert len(checked) >= 4 and checked[-1] == summary.steps
    assert len(list((tmp_path / "out").glob("snapshot_*.csv"))) >= 4


def test_simulate_blowup_exit_code(tmp_path):
    # supercritical concentrated state reaches the blowup threshold: exit 2
    path = tmp_path / "blow.ini"
    path.write_text(
        "# format_version=1\n"
        "[grid]\nn = 5\nR = 1.0\nN = 256\n"
        "[stepper]\nt_end = 0.5\noutput_every = 20\nmax_steps = 20000\n"
        "[base]\nkind = bump\nbaseline = 1.0\namplitude = 2e7\nwidth = 0.06\n"
        "v_mode = relaxed\n"
        f"[run]\noutdir = {tmp_path / 'blowout'}\n"
    )
    code = main(["-c", str(path), "simulate"])
    assert code == 2
    summary = (tmp_path / "blowout" / "summary.txt").read_text()
    assert "status=blown_up" in summary
    assert "t_blowup=" in summary


def test_simulate_corrupt_custom_snapshot_exit_one(tmp_path):
    bad = tmp_path / "bad_snapshot.csv"
    bad.write_text("# format_version=1\nr,u,v,w,f,g\n0.1,not_a_number,1,1,0,0\n")
    path = tmp_path / "run.ini"
    path.write_text(
        "# format_version=1\n"
        "[grid]\nn = 5\nR = 1.0\nN = 96\n"
        f"[base]\nkind = custom\npath = {bad}\n"
        f"[run]\noutdir = {tmp_path / 'out'}\n"
    )
    assert main(["-c", str(path), "simulate"]) == 1


def test_family_row_count_and_snapshots(config_path, tmp_path):
    assert main(["-c", str(config_path), "family"]) == 0
    header, rows = read_table(tmp_path / "out" / "family.csv")
    assert header == ["eta", "F", "mass", "min_u"]
    assert len(rows) == 4  # default eta_count
    for idx in range(4):
        assert (tmp_path / "out" / f"snapshot_eta_{idx:02d}.csv").exists()


def test_family_solves_once_per_scale(config_path, tmp_path, monkeypatch):
    # each scale's w = (I - L)^{-1} u is solved once, by its energy report,
    # and its snapshot stores (u, v) alone
    from radks import helmholtz

    calls = []
    inner = helmholtz._solve

    def counting(g, alpha, beta, factor, rhs):
        if (alpha, beta) == (1.0, 1.0):
            calls.append(alpha)
        return inner(g, alpha, beta, factor, rhs)

    monkeypatch.setattr(helmholtz, "_solve", counting)
    assert main(["-c", str(config_path), "family"]) == 0
    _, rows = read_table(tmp_path / "out" / "family.csv")
    assert len(rows) == 4
    assert len(calls) == len(rows)


def test_family_empty_eta_list_fails(config_path):
    code = main(["-c", str(config_path), "--set", "family.eta= ", "family"])
    assert code == 1


def test_probe_verb_emits_report(config_path, tmp_path):
    assert main(["-c", str(config_path), "simulate"]) == 0
    out = tmp_path / "out"
    code = main(["-c", str(config_path), "probe", str(out / "diagnostics.csv"), str(out)])
    assert code == 0
    header, rows = read_table(out / "probe_report.csv")
    assert header == ["probe", "param", "sample", "lhs", "rhs_free", "implied_C", "hard_pass"]
    names = {row[0] for row in rows}
    assert {"entropy_floor", "pointwise_w", "pointwise_v", "fd_ratio"} <= names
    hard = [row for row in rows if row[0] == "entropy_floor"]
    assert all(row[-1] == "true" for row in hard)


def test_sweep_single_point_matches_simulate(config_path, tmp_path):
    overrides = ["--set", "run.workers=1"]
    sweep_ini = tmp_path / "sweep.ini"
    sweep_ini.write_text(
        config_path.read_text() + "\n[sweep]\ngrid.N = 96\n"
    )
    assert main(["-c", str(sweep_ini), "sweep"]) == 0
    header, rows = read_table(tmp_path / "out" / "sweep" / "sweep.csv")
    assert len(rows) == 1
    assert rows[0][header.index("status")] == "completed"


def test_sweep_worker_count_invariance(config_path, tmp_path):
    sweep_ini = tmp_path / "sweep.ini"
    sweep_ini.write_text(
        config_path.read_text() + "\n[sweep]\ngrid.N = 64, 96\nbase.amplitude = 0.0, 0.4\n"
    )
    assert main(["-c", str(sweep_ini), "sweep"]) == 0
    one = (tmp_path / "out" / "sweep" / "sweep.csv").read_bytes()
    assert main(["-c", str(sweep_ini), "--set", "run.workers=4", "sweep"]) == 0
    four = (tmp_path / "out" / "sweep" / "sweep.csv").read_bytes()
    assert one == four


def test_sweep_blowup_rows_ordered_by_amplitude(tmp_path):
    path = tmp_path / "blowsweep.ini"
    path.write_text(
        "# format_version=1\n"
        "[grid]\nn = 5\nR = 1.0\nN = 256\n"
        "[stepper]\nt_end = 0.5\noutput_every = 50\nmax_steps = 30000\n"
        "[base]\nkind = bump\nbaseline = 1.0\nwidth = 0.06\nv_mode = relaxed\n"
        f"[run]\noutdir = {tmp_path / 'out'}\n"
        "[sweep]\nbase.amplitude = 2e7, 5e7\n"
    )
    assert main(["-c", str(path), "sweep"]) == 0
    header, rows = read_table(tmp_path / "out" / "sweep" / "sweep.csv")
    assert [row[header.index("status")] for row in rows] == ["blown_up", "blown_up"]
    t_out = [float(row[header.index("t_out")]) for row in rows]
    f0 = [float(row[header.index("F0")]) for row in rows]
    # row order is the sorted amplitude strings: 2e7 first
    assert f0[1] < f0[0]
    assert t_out[1] <= t_out[0]


def test_sweep_records_per_run_failures(config_path, tmp_path):
    sweep_ini = tmp_path / "sweep.ini"
    # second amplitude makes the base density negative: loading that point fails
    sweep_ini.write_text(
        config_path.read_text() + "\n[sweep]\nbase.amplitude = 0.4, -2.0\n"
    )
    assert main(["-c", str(sweep_ini), "sweep"]) == 0
    header, rows = read_table(tmp_path / "out" / "sweep" / "sweep.csv")
    statuses = [row[header.index("status")] for row in rows]
    assert any(s == "completed" for s in statuses)
    errors = [s for s in statuses if s.startswith("error")]
    assert errors == [
        f"error: ConfigurationError: {sweep_ini}: 1 violation(s):\n"
        "  - base.amplitude: the bump density (baseline=1.0, amplitude=-2.0) must be "
        "positive at every cell center, got a minimum of -0.999397274479739"
    ]


def test_sweep_bad_base_value_fails_before_any_output(config_path, tmp_path, capsys):
    sweep_ini = tmp_path / "sweep.ini"
    sweep_ini.write_text(config_path.read_text() + "\n[sweep]\nbase.amplitude = 0.4, 0.8\n")
    assert main(["-c", str(sweep_ini), "--set", "base.width=-1", "sweep"]) == 1
    assert "base.width: must be positive" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep").exists()


def test_energy_verb_prints_report(config_path, tmp_path, capsys):
    assert main(["-c", str(config_path), "simulate"]) == 0
    code = main(["-c", str(config_path), "energy", str(tmp_path / "out" / "snapshot_final.csv")])
    assert code == 0
    out = capsys.readouterr().out
    assert "F=" in out and "D=" in out and "entropy_term=" in out


def test_low_dimension_warning_printed(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_text(
        "# format_version=1\n[grid]\nn = 3\nR = 1.0\nN = 64\n"
        "[stepper]\nt_end = 0.05\n"
        f"[run]\noutdir = {tmp_path / 'out'}\n"
    )
    assert main(["-c", str(path), "simulate"]) == 0
    assert "blowup regime" in capsys.readouterr().err


@pytest.mark.parametrize("override", ["probe.theta=0.3", "stepper.dt_min=1", "grid.R=inf"])
def test_simulate_bad_value_fails_before_any_output(config_path, tmp_path, capsys, override):
    assert main(["-c", str(config_path), "--set", override, "simulate"]) == 1
    assert override.partition("=")[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_config_is_error(capsys):
    assert main(["simulate"]) == 1
    assert "config" in capsys.readouterr().err


def write_graded_snapshot(path):
    from radks.grid import make_grid
    from radks.initial_data import base_data
    from radks.snapshots import write_snapshot

    g = make_grid(5, 1.0, 64, h_min=1e-6)
    u, v = base_data("bump", g, baseline=1.0, amplitude=0.5, width=0.3)
    write_snapshot(path, g, u, v)


def test_energy_verb_rejects_graded_snapshot(config_path, tmp_path, capsys):
    snap = tmp_path / "graded.csv"
    write_graded_snapshot(snap)
    assert main(["-c", str(config_path), "energy", str(snap)]) == 1
    captured = capsys.readouterr()
    assert "mesh mismatch" in captured.err
    assert "F=" not in captured.out


def test_energy_verb_rejects_malformed_t_line(config_path, tmp_path, capsys):
    snap = tmp_path / "bad_t.csv"
    snap.write_text("# format_version=2\n# t=abc\nr,u,v\n0.5,1,1\n")
    assert main(["-c", str(config_path), "energy", str(snap)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "t=abc" in captured.err
    assert "Traceback" not in captured.err and "F=" not in captured.out


def test_energy_verb_rejects_one_row_snapshot(config_path, tmp_path, capsys):
    snap = tmp_path / "one.csv"
    snap.write_text("# format_version=1\nr,u,v,w,f,g\n0.5,1,1,1,0,0\n")
    assert main(["-c", str(config_path), "energy", str(snap)]) == 1
    assert "cell count N must be an integer >= 4" in capsys.readouterr().err


def test_probe_verb_rejects_graded_snapshot(config_path, tmp_path, capsys):
    assert main(["-c", str(config_path), "simulate"]) == 0
    out = tmp_path / "out"
    write_graded_snapshot(out / "snapshot_zz_graded.csv")
    code = main(["-c", str(config_path), "probe", str(out / "diagnostics.csv"), str(out)])
    assert code == 1
    assert "mesh mismatch" in capsys.readouterr().err
