import gc
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import radks.cli
from radks.cli import main
from radks.config import load_config
from radks.dynamics import run
from radks.grid import integrate, laplacian, make_grid
from radks.helmholtz import build_solver, solve
from radks.initial_data import (
    base_data,
    build_family,
    check_base,
    family_eta_star,
    family_scales,
    w22_norm,
)
from radks.snapshots import (
    DIAGNOSTICS_COLUMNS,
    read_diagnostics,
    read_snapshot,
    read_table,
    write_snapshot,
)

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
    assert rows["t"][0] == 0.0
    assert rows["t"][-1] == pytest.approx(0.1)
    snap = read_snapshot(out / "snapshot_final.snap")
    assert len(snap.u) == 96
    lines = (out / "summary.txt").read_text().splitlines()
    assert lines[:2] == ["# format_version=1", "status=completed"]
    # RunSummary's fields in declaration order, then simulate's probe maxima
    assert [line.partition("=")[0] for line in lines[1:]] == [
        "status", "t_final", "t_blowup", "steps", "peak_sup", "F0", "min_F", "min_u",
        "first_negative_step", "mass_initial", "mass_final", "max_C_fd", "max_C_w", "max_C_v",
    ]
    assert (out / "snapshot_00000000.snap").exists()


def test_simulate_deterministic_outputs(config_path, tmp_path):
    out = tmp_path / "out"
    names = ["diagnostics.csv", "summary.txt"]

    def outputs():
        snapshots = sorted(p.name for p in out.glob("snapshot_*.snap"))
        return {name: (out / name).read_bytes() for name in names + snapshots}

    assert main(["-c", str(config_path), "simulate"]) == 0
    first = outputs()
    assert "snapshot_final.snap" in first and "snapshot_00000015.snap" in first
    for path in out.iterdir():
        path.unlink()
    assert main(["-c", str(config_path), "simulate"]) == 0
    assert outputs() == first


@pytest.mark.parametrize("output_every, snapshot_every", [(1, 1), (3, 2)])
def test_sampled_w_and_f_belong_to_their_own_state(
    config_path, tmp_path, monkeypatch, output_every, snapshot_every
):
    # Each sampled state reaches the sink with its own energy report
    # (w, f, g), between snapshot writes; a report or a kept w left over
    # from another state would show up here.  A fresh public solve, which
    # never reads the w that u keeps, is the oracle.
    from radks import cli

    grid = make_grid(5, 1.0, 96)
    solver = build_solver(grid)
    checked = []

    def check(state, report):
        w = solve(solver, state.u).values
        assert np.array_equal(report.w.values, w), state.step
        f = state.v.values - laplacian(state.v).values - w
        assert np.array_equal(report.f.values, f), state.step
        checked.append(state)

    def checked_run(*args, sink, **kwargs):
        def checking_sink(state, sample, report):
            check(state, report)
            sink(state, sample, report)

        state, summary, samples = run(*args, sink=checking_sink, **kwargs)
        # the final state is checked by the last sink call
        assert checked[-1] is state
        return state, summary, samples

    monkeypatch.setattr(cli, "run", checked_run)
    cfg = load_config(config_path, [f"stepper.output_every={output_every}",
                                    f"run.snapshot_every={snapshot_every}"])
    summary, _ = cli.simulate_run(cfg)
    assert len(checked) >= 4 and checked[-1].step == summary.steps
    assert len(list((tmp_path / "out").glob("snapshot_*.snap"))) >= 4


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
    # the one blowup rule: the run ends at the step whose sup norm crossed
    keys = dict(line.split("=", 1) for line in summary.splitlines()[1:])
    assert keys["t_blowup"] == keys["t_final"] != ""


def test_simulate_stall_exit_code(tmp_path, monkeypatch):
    # the first step sees no velocity and takes dt_max to t = 1; from then
    # on the CFL bound is 1e-22, that of a slope-1e20 signal, too small to
    # move t: the run stalls (exit 1) instead of stepping on
    from radks import dynamics

    bounds = iter([math.inf])
    monkeypatch.setattr(dynamics, "_stable_dt", lambda g, vel, cap=math.inf: next(bounds, 1e-22))
    path = tmp_path / "stall.ini"
    path.write_text(
        "# format_version=1\n"
        "[grid]\nn = 5\nR = 1.0\nN = 96\n"
        "[stepper]\nt_end = 2.0\ndt_max = 1.0\nmax_steps = 10\n"
        f"[run]\noutdir = {tmp_path / 'out'}\n"
    )
    assert main(["-c", str(path), "simulate"]) == 1
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "status=stalled\nt_final=1.0\nt_blowup=\nsteps=2\n" in summary


BUMP = """\
# format_version=1
[grid]
n = 5
R = 1.0
N = {N}

[base]
kind = bump
baseline = 1.0
amplitude = 2e7
width = {width}
v_mode = {v_mode}

[stepper]
t_end = 0.5
dt_max = 1e-2
output_every = 20
max_steps = {max_steps}

[run]
outdir = {outdir}
"""


def summary_keys(outdir) -> dict:
    lines = (outdir / "summary.txt").read_text().splitlines()
    return dict(line.split("=", 1) for line in lines[1:])


# the energy of the negative u overflows; that warning is the defect shown
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_summary_reports_the_first_step_that_took_u_negative(tmp_path):
    # a flat signal gives the first step dt = dt_max, whose v+ drives u
    # below zero at once; the run reports it and goes on, u unclipped
    path = tmp_path / "flat.ini"
    path.write_text(BUMP.format(N=64, width=0.1, v_mode="flat", max_steps=3,
                                outdir=tmp_path / "out"))
    summary, _ = radks.cli.simulate_run(load_config(path))
    assert summary.steps == 3 and summary.first_negative_step == 1
    keys = summary_keys(tmp_path / "out")
    assert keys["first_negative_step"] == "1"
    assert keys["status"] == "running"
    assert float(keys["min_u"]) == summary.min_u < 0.0


def test_summary_reports_no_negative_step_on_relaxed_readme_data(tmp_path):
    path = tmp_path / "relaxed.ini"
    path.write_text(BUMP.format(N=400, width=0.06, v_mode="relaxed", max_steps=5_000_000,
                                outdir=tmp_path / "out"))
    summary, _ = radks.cli.simulate_run(load_config(path))
    assert summary.status.value == "blown_up" and summary.first_negative_step is None
    keys = summary_keys(tmp_path / "out")
    assert keys["first_negative_step"] == ""
    assert float(keys["min_u"]) == summary.min_u >= 0.99


def write_base_snapshot(path) -> bytes:
    """Write a format-3 snapshot of the BASE bump on BASE's grid at t = 0.5;
    return its bytes."""
    g = make_grid(5, 1.0, 96)
    u, v = base_data("bump", g, baseline=1.0, amplitude=0.5, width=0.3)
    write_snapshot(path, g, u, v, t=0.5)
    return path.read_bytes()


def test_simulate_corrupt_custom_snapshot_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad_snapshot.snap"
    bad.write_bytes(write_base_snapshot(bad)[:-8])  # the body lacks its last value
    path = tmp_path / "run.ini"
    path.write_text(
        "# format_version=1\n"
        "[grid]\nn = 5\nR = 1.0\nN = 96\n"
        f"[base]\nkind = custom\npath = {bad}\n"
        f"[run]\noutdir = {tmp_path / 'out'}\n"
    )
    assert main(["-c", str(path), "simulate"]) == 1
    assert "body holds" in capsys.readouterr().err


def test_killed_simulate_leaves_no_old_summary(config_path, tmp_path, monkeypatch):
    # a rerun that dies mid-run must not leave the earlier run's summary
    # next to its own partial diagnostics
    from radks import dynamics

    assert main(["-c", str(config_path), "simulate"]) == 0
    assert (tmp_path / "out" / "summary.txt").exists()
    real_step, calls = dynamics.step, []

    class Killed(Exception):
        pass

    def dying_step(*args):
        calls.append(None)
        if len(calls) > 3:
            raise Killed
        return real_step(*args)

    monkeypatch.setattr(dynamics, "step", dying_step)
    with pytest.raises(Killed):
        main(["-c", str(config_path), "simulate"])
    assert not (tmp_path / "out" / "summary.txt").exists()
    assert read_diagnostics(tmp_path / "out" / "diagnostics.csv")


def test_family_row_count_and_snapshots(config_path, tmp_path):
    assert main(["-c", str(config_path), "family"]) == 0
    header, rows = read_table(tmp_path / "out" / "family.csv")
    assert header == ["eta", "F", "mass", "min_u"]
    assert len(rows) == 4  # default eta_count
    for idx in range(4):
        assert (tmp_path / "out" / f"snapshot_eta_{idx:02d}.snap").exists()


def test_family_auto_scales_of_a_non_unit_base_pass_build_family(config_path, tmp_path):
    # cmd_family picks the auto scales from the bound build_family checks
    overrides = ["grid.R=0.5", "base.baseline=0.5", "base.width=0.1"]
    argv = ["-c", str(config_path)] + [arg for o in overrides for arg in ("--set", o)]
    assert main(argv + ["family"]) == 0
    cfg = load_config(config_path, overrides)
    u0, v0 = base_data(cfg.base_kind, cfg.grid, **cfg.base_params)
    star = family_eta_star(u0, cfg.gamma)
    _, rows = read_table(tmp_path / "out" / "family.csv")
    etas = [float(row[0]) for row in rows]
    assert etas == [star / (4 * 2**k) for k in range(cfg.eta_count)]
    assert etas == family_scales(u0, cfg.gamma, cfg.eta_count)
    for eta in etas:
        build_family(u0, v0, cfg.gamma, eta)


def test_family_solves_once_per_scale(config_path, tmp_path, monkeypatch):
    # each scale's w = (I - L)^{-1} u is solved once, by its energy report,
    # and its snapshot stores (u, v) alone; the flat base pair and the scan
    # take no other solve
    from radks import helmholtz

    calls = []
    inner = helmholtz._solve

    def counting(g, factor, rhs):
        calls.append(rhs)
        return inner(g, factor, rhs)

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


@pytest.mark.parametrize(
    "rows, note",
    [(40, "tail not reached: positive -F spans a factor 1.15"), (5, "need at least 8")],
)
def test_probe_writes_fd_ratio_and_nan_tail_when_tail_not_reached(
    config_path, tmp_path, capsys, rows, note
):
    # -F grows by 15% while D grows 27x (README blowup data), or there are
    # too few samples to fit: the tail row reads nan with the reason on
    # stdout; c5 is the fd_ratio row's, written once, with no odi_c5 copy
    diag = tmp_path / "diagnostics.csv"
    lines = ["# format_version=1", "t,dt,mass,sup_u,F,D,identity_residual"]
    for k in range(rows):
        F = -5062.0 - 765.0 * k / (rows - 1)
        D = 1.8e7 * 27.0 ** (k / (rows - 1))
        lines.append(f"{1e-5 * k!r},1e-05,1.0,1.0,{F!r},{D!r},0.0")
    diag.write_text("\n".join(lines) + "\n")
    assert main(["-c", str(config_path), "probe", str(diag)]) == 0
    out = capsys.readouterr().out
    assert "odi_tail_slope is nan: " in out and note in out
    header, report = read_table(tmp_path / "out" / "probe_report.csv")
    assert [row[0] for row in report] == ["fd_ratio", "mass_u_drift", "odi_tail_slope"]
    by_name = {row[0]: dict(zip(header, row)) for row in report}
    assert float(by_name["fd_ratio"]["implied_C"]) > 0.0
    assert by_name["mass_u_drift"]["hard_pass"] == "true"
    assert by_name["odi_tail_slope"]["implied_C"] == "nan"


def _probe_rows(path, name):
    header, rows = read_table(path)
    return [dict(zip(header, row)) for row in rows if row[0] == name]


def test_probe_pointwise_v_uses_initial_signal_norm(config_path, tmp_path):
    # the bound is r^beta (v/r^2 + |v_r|/r) <= C (m + |v0|_{W^{2,2}}): every
    # snapshot is normalised by the initial signal, as simulate's max_C_v is
    assert main(["-c", str(config_path), "simulate"]) == 0
    out = tmp_path / "out"
    assert main(["-c", str(config_path), "probe", str(out / "diagnostics.csv"), str(out)]) == 0
    grid = make_grid(5, 1.0, 96)
    _, v0 = read_snapshot(out / "snapshot_00000000.snap").fields(grid)
    mass = {}
    for snap_path in out.glob("snapshot_*.snap"):
        snap = read_snapshot(snap_path)
        mass[snap.t] = integrate(snap.fields(grid)[0])
    rows = _probe_rows(out / "probe_report.csv", "pointwise_v")
    assert len(rows) == len(mass) == 3
    for row in rows:
        assert float(row["rhs_free"]) == mass[float(row["sample"])] + w22_norm(v0)


def test_probe_mass_records_come_from_the_snapshots(config_path, tmp_path):
    # the diagnostics' mass column (1.0 here) belongs to no snapshot; every
    # mass record pairs int u, int v and int w of one snapshot's own state
    assert main(["-c", str(config_path), "simulate"]) == 0
    out = tmp_path / "out"
    diag = tmp_path / "diagnostics.csv"
    lines = ["# format_version=1", "t,dt,mass,sup_u,F,D,identity_residual"]
    lines += [f"{0.01 * k!r},0.01,1.0,1.0,-1.0,1.0,0.0" for k in range(11)]
    diag.write_text("\n".join(lines) + "\n")
    assert main(["-c", str(config_path), "probe", str(diag), str(out)]) == 0
    for name in ("mass_u_drift", "mass_w_equals_u", "v_mass_bound"):
        (row,) = _probe_rows(out / "probe_report.csv", name)
        assert row["hard_pass"] == "true", name


def test_probe_without_snapshots_checks_the_mass_of_every_diagnostics_row(tmp_path):
    # the README example's `probe out/diagnostics.csv`: the diagnostics hold
    # the mass of every sample, so the report has the drift row, and one
    # NaN or tampered mass among them fails it
    path = tmp_path / "run.ini"
    path.write_text(BUMP.format(N=400, width=0.06, v_mode="relaxed", max_steps=5_000_000,
                                outdir=tmp_path / "out"))
    assert main(["-c", str(path), "simulate"]) == 2
    diag = tmp_path / "out" / "diagnostics.csv"
    report = tmp_path / "out" / "probe_report.csv"
    assert main(["-c", str(path), "probe", str(diag)]) == 0
    (row,) = _probe_rows(report, "mass_u_drift")
    assert row["hard_pass"] == "true"
    assert not _probe_rows(report, "mass_w_equals_u")
    lines = diag.read_text().splitlines()
    mass_col = lines[1].split(",").index("mass")
    cells = lines[5].split(",")
    for bad in ("nan", repr(float(cells[mass_col]) * (1.0 + 1e-6))):
        tampered = lines.copy()
        tampered[5] = ",".join(cells[:mass_col] + [bad] + cells[mass_col + 1:])
        copy = tmp_path / "tampered.csv"
        copy.write_text("\n".join(tampered) + "\n")
        assert main(["-c", str(path), "probe", str(copy)]) == 0
        (row,) = _probe_rows(report, "mass_u_drift")
        assert row["hard_pass"] == "false", bad


def test_probe_reads_no_family_snapshot_in_a_shared_outdir(config_path, tmp_path):
    # simulate, family and probe into one outdir, as the README runs them:
    # the family's snapshot_eta_NN.snap are no states of the trajectory, so
    # the report is the one probe gives after simulate alone
    out = tmp_path / "out"
    probe = ["-c", str(config_path), "probe", str(out / "diagnostics.csv"), str(out)]
    assert main(["-c", str(config_path), "simulate"]) == 0
    assert main(probe) == 0
    alone = (out / "probe_report.csv").read_bytes()
    assert main(["-c", str(config_path), "family"]) == 0
    assert main(probe) == 0
    assert (out / "probe_report.csv").read_bytes() == alone


def test_probe_reads_no_snapshot_of_an_earlier_run(config_path, tmp_path):
    # a shorter run into the outdir of a longer one: probe reads the states
    # of the run whose diagnostics it is given, none left from the first
    out = tmp_path / "out"
    assert main(["-c", str(config_path), "simulate"]) == 0
    assert main(["-c", str(config_path), "--set", "stepper.t_end=0.02", "simulate"]) == 0
    assert main(["-c", str(config_path), "probe", str(out / "diagnostics.csv"), str(out)]) == 0
    times = set(read_diagnostics(out / "diagnostics.csv")["t"].tolist())
    rows = _probe_rows(out / "probe_report.csv", "pointwise_w")
    samples = [float(row["sample"]) for row in rows]
    assert samples and set(samples) <= times


def test_probe_fd_ratio_matches_simulate_max_c_fd(config_path, tmp_path, monkeypatch):
    # both read probe_fd_ratio over the same samples: the diagnostics rows
    # read back give the columns of the run's own Trajectory, bit for bit
    runs = []

    def recording_run(*args, **kwargs):
        runs.append(run(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(radks.cli, "run", recording_run)
    assert main(["-c", str(config_path), "simulate"]) == 0
    out = tmp_path / "out"
    ((_, _, trajectory),) = runs
    read = read_diagnostics(out / "diagnostics.csv")
    assert len(read) == len(trajectory) > 2
    for name in DIAGNOSTICS_COLUMNS:
        assert read[name].tobytes() == trajectory[name].tobytes(), name
    assert main(["-c", str(config_path), "probe", str(out / "diagnostics.csv")]) == 0
    (row,) = _probe_rows(out / "probe_report.csv", "fd_ratio")
    assert f"max_C_fd={row['implied_C']}\n" in (out / "summary.txt").read_text()


def test_import_leaves_the_sweep_pool_unimported():
    # only the sweep verb loads radks.sweep and its process pool
    # (multiprocessing, socket, logging); every other verb starts without them
    src = str(Path(radks.cli.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, radks.cli; print([m for m in ('radks.sweep', 'multiprocessing') if m in sys.modules])"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


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


def test_sweep_parent_drops_the_config_grid_before_the_pool(config_path, tmp_path, monkeypatch):
    # the sweep parent forks its workers with the axes, the worker count and
    # the output directory alone: the grid load_config built is gone
    import weakref

    from radks import sweep

    grids, alive = [], []
    inner_load, inner_sweep = radks.cli.load_config, sweep.run_sweep

    def loading(*args):
        cfg = inner_load(*args)
        grids.append(weakref.ref(cfg.grid))
        return cfg

    def sweeping(*args):
        gc.collect()
        alive.append(grids[0]() is not None)
        return inner_sweep(*args)

    monkeypatch.setattr(radks.cli, "load_config", loading)
    monkeypatch.setattr(sweep, "run_sweep", sweeping)
    sweep_ini = tmp_path / "sweep.ini"
    sweep_ini.write_text(config_path.read_text() + "\n[sweep]\ngrid.N = 64\n")
    assert main(["-c", str(sweep_ini), "sweep"]) == 0
    assert len(grids) == 1 and alive == [False]


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
    failed, done = rows  # sorted by the amplitude strings: "-2.0" first
    status = header.index("status")
    # one line with the keyed violation and no config path, then empty cells
    assert failed[status] == (
        "error: ConfigurationError: base.amplitude: the bump density (baseline=1.0, "
        "amplitude=-2.0) must be positive at every cell center, got a minimum of "
        "-0.999397274479739"
    )
    assert len(failed) == len(header) and failed[status + 1:] == [""] * (len(header) - status - 1)
    # the completed row holds its point's summary.txt entries as text
    cells = dict(zip(header, done))
    keys = summary_keys(tmp_path / "out" / "sweep" / "amplitude=0.4")
    assert cells["status"] == keys["status"] == "completed"
    assert cells["t_out"] == keys["t_final"]
    for name in ("peak_sup", "F0", "min_F", "max_C_fd", "max_C_w", "max_C_v"):
        assert cells[name] == keys[name], name


def test_sweep_bad_base_value_fails_before_any_output(config_path, tmp_path, capsys):
    sweep_ini = tmp_path / "sweep.ini"
    sweep_ini.write_text(config_path.read_text() + "\n[sweep]\nbase.amplitude = 0.4, 0.8\n")
    assert main(["-c", str(sweep_ini), "--set", "base.width=-1", "sweep"]) == 1
    assert "base.width: must be positive" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep").exists()


def test_energy_verb_prints_report(config_path, tmp_path, capsys):
    assert main(["-c", str(config_path), "simulate"]) == 0
    capsys.readouterr()
    code = main(["-c", str(config_path), "energy", str(tmp_path / "out" / "snapshot_final.snap")])
    assert code == 0
    out = capsys.readouterr().out
    # EnergyReport's scalars in declaration order, each a float repr but the count
    lines = [line.split("=") for line in out.splitlines()]
    assert [key for key, _ in lines] == [
        "F", "D", "entropy_term", "mixed_term", "quad_term",
        "grad_f_term", "f_term", "g_term", "regularized_faces",
    ]
    assert all(math.isfinite(float(value)) for _, value in lines[:-1])
    assert int(lines[-1][1]) >= 0


def test_low_dimension_warning_printed(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_text(
        "# format_version=1\n[grid]\nn = 3\nR = 1.0\nN = 64\n"
        "[stepper]\nt_end = 0.05\n"
        f"[run]\noutdir = {tmp_path / 'out'}\n"
    )
    assert main(["-c", str(path), "simulate"]) == 0
    assert "blowup regime" in capsys.readouterr().err


@pytest.mark.parametrize("override", ["probe.kappa=2", "stepper.dt_init=1", "grid.R=inf"])
def test_simulate_bad_value_fails_before_any_output(config_path, tmp_path, capsys, override):
    assert main(["-c", str(config_path), "--set", override, "simulate"]) == 1
    assert override.partition("=")[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_rejects_several_etas_before_any_output(config_path, tmp_path, capsys):
    # a run starts from one scale; a list is the family verb's
    assert main(["-c", str(config_path), "--set", "family.eta=1e-12,2e-12", "simulate"]) == 1
    assert "family.eta" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bump_without_width_runs_the_api_default(tmp_path):
    # the width default is check_base's, 0.25 R, for the CLI as for base_data
    path = tmp_path / "run.ini"
    text = BASE.format(outdir=tmp_path / "out")
    path.write_text(text.replace("R = 1.0", "R = 2.0").replace("width = 0.3\n", ""))
    grid = make_grid(5, 2.0, 96)
    assert load_config(path).base_params["width"] == check_base("bump", grid)["width"] == 0.5
    assert main(["-c", str(path), "--set", "stepper.t_end=1e-3", "simulate"]) == 0
    u0, _ = base_data("bump", grid, baseline=1.0, amplitude=0.5)
    assert np.array_equal(read_snapshot(tmp_path / "out" / "snapshot_00000000.snap").u, u0.values)


def test_missing_config_is_error(capsys):
    assert main(["simulate"]) == 1
    assert "config" in capsys.readouterr().err


def write_graded_snapshot(path):
    from radks.grid import integrate, make_grid
    from radks.initial_data import base_data, check_base, w22_norm
    from radks.snapshots import write_snapshot

    g = make_grid(5, 1.0, 64, h_min=1e-6)
    u, v = base_data("bump", g, baseline=1.0, amplitude=0.5, width=0.3)
    write_snapshot(path, g, u, v)


def test_energy_verb_rejects_graded_snapshot(config_path, tmp_path, capsys):
    snap = tmp_path / "graded.snap"
    write_graded_snapshot(snap)
    assert main(["-c", str(config_path), "energy", str(snap)]) == 1
    captured = capsys.readouterr()
    assert "mesh mismatch" in captured.err
    assert "F=" not in captured.out


def test_energy_verb_rejects_malformed_t_line(config_path, tmp_path, capsys):
    snap = tmp_path / "bad_t.snap"
    snap.write_bytes(write_base_snapshot(snap).replace(b"# t=0.5\n", b"# t=abc\n"))
    assert main(["-c", str(config_path), "energy", str(snap)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "t=abc" in captured.err
    assert "Traceback" not in captured.err and "F=" not in captured.out


def test_energy_verb_rejects_one_row_snapshot(config_path, tmp_path, capsys):
    snap = tmp_path / "one.snap"
    body = np.array([0.5, 1.0, 1.0]).tobytes()  # r, u, v of one cell
    snap.write_bytes(b"# format_version=3\n# rows=1\nr,u,v\n" + body)
    assert main(["-c", str(config_path), "energy", str(snap)]) == 1
    assert "mesh mismatch" in capsys.readouterr().err


def test_energy_verb_rejects_csv_snapshot(config_path, tmp_path, capsys):
    # the CSV snapshots of versions 2 and 1 no longer read
    snap = tmp_path / "old.csv"
    snap.write_text("# format_version=2\n# t=0.5\nr,u,v\n0.5,1,1\n")
    assert main(["-c", str(config_path), "energy", str(snap)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "expected '# format_version=3'" in err
    assert "got '# format_version=2'" in err


@pytest.mark.parametrize("verb", ["energy", "probe"])
def test_missing_input_file_is_error(config_path, tmp_path, capsys, verb):
    missing = tmp_path / "missing.snap"
    assert main(["-c", str(config_path), verb, str(missing)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.snap" in err
    assert "Traceback" not in err


def test_probe_rejects_missing_snapshot_dir(config_path, tmp_path, capsys):
    assert main(["-c", str(config_path), "simulate"]) == 0
    out = tmp_path / "out"
    capsys.readouterr()
    code = main(["-c", str(config_path), "probe", str(out / "diagnostics.csv"),
                 str(tmp_path / "no-such-dir")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no-such-dir" in err
    assert not (out / "probe_report.csv").exists()


def test_probe_rejects_diagnostics_without_rows(config_path, tmp_path, capsys):
    # a header and no row, as a run killed before its first sample leaves it
    diag = tmp_path / "diagnostics.csv"
    diag.write_text("# format_version=1\n" + ",".join(DIAGNOSTICS_COLUMNS) + "\n")
    assert main(["-c", str(config_path), "probe", str(diag)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{diag} has no rows" in err
    assert not (tmp_path / "out" / "probe_report.csv").exists()


@pytest.mark.parametrize("contents", ["family", "empty"])
def test_probe_rejects_a_snapshot_dir_without_run_snapshots(
    config_path, tmp_path, capsys, contents
):
    # a family-only outdir or an empty folder holds no state to probe: an
    # error, not a report of the trajectory rows alone
    assert main(["-c", str(config_path), "simulate"]) == 0
    diag = tmp_path / "out" / "diagnostics.csv"
    snap_dir = tmp_path / "snaps"
    if contents == "family":
        assert main(["-c", str(config_path), "--set", f"run.outdir={snap_dir}", "family"]) == 0
        assert list(snap_dir.glob("snapshot_eta_*.snap"))
    else:
        snap_dir.mkdir()
    capsys.readouterr()
    assert main(["-c", str(config_path), "probe", str(diag), str(snap_dir)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert str(snap_dir) in err[0]
    assert "snapshot_<8 digits>.snap" in err[0] and "snapshot_final.snap" in err[0]
    assert not (tmp_path / "out" / "probe_report.csv").exists()
    # without a directory probe reports the trajectory alone
    assert main(["-c", str(config_path), "probe", str(diag)]) == 0
    assert len(read_table(tmp_path / "out" / "probe_report.csv")[1]) > 0


def test_in_process_main_leaves_the_collector_alone(config_path):
    frozen = gc.get_freeze_count()
    assert main(["-c", str(config_path), "simulate"]) == 0
    assert gc.get_freeze_count() == frozen


def test_entry_point_freezes_the_heap_before_main(config_path, monkeypatch):
    # the one entry of the console script and of python -m radks.cli
    events = []
    monkeypatch.setattr(radks.cli.gc, "freeze", lambda: events.append("freeze"))
    monkeypatch.setattr(radks.cli, "main", lambda: events.append("main") or 2)
    assert radks.cli.entry_point() == 2
    assert events == ["freeze", "main"]


def test_probe_verb_rejects_graded_snapshot(config_path, tmp_path, capsys):
    assert main(["-c", str(config_path), "simulate"]) == 0
    out = tmp_path / "out"
    write_graded_snapshot(out / "snapshot_99999999.snap")  # read after simulate's steps
    code = main(["-c", str(config_path), "probe", str(out / "diagnostics.csv"), str(out)])
    assert code == 1
    assert "mesh mismatch" in capsys.readouterr().err


def test_energy_and_probe_read_graded_snapshot_on_graded_config(config_path, tmp_path, capsys):
    # the config's grid is the snapshot's mesh: graded files read back too
    from radks.cli import cmd_energy, cmd_probe
    from radks.energy import compute_energy
    from radks.probes import probe_entropy_floor
    from radks.snapshots import write_snapshot

    assert main(["-c", str(config_path), "simulate"]) == 0
    graded = make_grid(5, 1.0, 64, h_min=1e-6)
    cfg = replace(load_config(config_path), grid=graded)
    u, v = base_data("bump", graded, baseline=1.0, amplitude=0.5, width=0.3)
    snap_dir = tmp_path / "graded"
    snap_dir.mkdir()
    write_snapshot(snap_dir / "snapshot_final.snap", graded, u, v, t=0.05)
    rep = compute_energy(u, v, build_solver(graded))
    capsys.readouterr()

    assert cmd_energy(cfg, str(snap_dir / "snapshot_final.snap")) == 0
    assert f"F={rep.F!r}\n" in capsys.readouterr().out

    assert cmd_probe(cfg, str(tmp_path / "out" / "diagnostics.csv"), str(snap_dir)) == 0
    header, rows = read_table(tmp_path / "out" / "probe_report.csv")
    floor = [row for row in rows if row[header.index("probe")] == "entropy_floor"]
    assert len(floor) == 1
    assert float(floor[0][header.index("sample")]) == 0.05
    assert float(floor[0][header.index("lhs")]) == probe_entropy_floor(rep).lhs


def test_snapshot_on_other_uniform_mesh_is_rejected(config_path, tmp_path, capsys):
    # no grid is inferred from the r column: an N=64 file does not fit N=96
    from radks.snapshots import write_snapshot

    assert main(["-c", str(config_path), "simulate"]) == 0
    g = make_grid(5, 1.0, 64)
    u, v = base_data("bump", g, baseline=1.0, amplitude=0.5, width=0.3)
    snap_dir = tmp_path / "n64"
    snap_dir.mkdir()
    write_snapshot(snap_dir / "snapshot_00000000.snap", g, u, v, t=0.0)
    capsys.readouterr()
    for verb in (["probe", str(tmp_path / "out" / "diagnostics.csv"), str(snap_dir)],
                 ["energy", str(snap_dir / "snapshot_00000000.snap")]):
        assert main(["-c", str(config_path), *verb]) == 1
        err = capsys.readouterr().err
        assert "mesh mismatch" in err and "N=96" in err
