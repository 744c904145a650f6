"""Tests of the benchmark itself: the tracer sees every call, the gates
fail corrupted outputs, seeds generate the documented inputs, and
BENCHMARK.json declares exactly the metrics the benchmark prints."""

import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import layers
import run
import speed
import workloads
from tracer import Tracer, load_spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPANNED = ("helmholtz.solve", "helmholtz.shifted_solve", "energy.compute_energy", "dynamics.step")


def _traced(fn):
    """Run fn under the tracer and under a profile hook that counts every
    Python call by code object, whatever name it was reached through."""
    import radks.dynamics
    import radks.energy
    import radks.helmholtz

    codes = {
        radks.helmholtz.solve.__code__: "helmholtz.solve",
        radks.helmholtz.shifted_solve.__code__: "helmholtz.shifted_solve",
        radks.energy.compute_energy.__code__: "energy.compute_energy",
        radks.dynamics.step.__code__: "dynamics.step",
    }
    truth = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            truth[codes[frame.f_code]] += 1

    tracer = Tracer()
    tracer.install()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        tracer.uninstall()
    return tracer.spans, truth


def _tiny_problem():
    from radks.dynamics import default_stepper_config
    from radks.grid import make_grid
    from radks.helmholtz import build_solver
    from radks.initial_data import base_data

    grid = make_grid(5, 1.0, 16)
    u0, v0 = base_data("bump", grid, baseline=1.0, amplitude=0.5, width=0.3)
    cfg = default_stepper_config(grid, t_end=1.0, dt_max=1e-3, dt_init=1e-3, output_every=1)
    return grid, build_solver(grid), u0, v0, cfg


def test_one_step_records_its_solves():
    import radks.dynamics as dynamics

    _, solver, u0, v0, cfg = _tiny_problem()
    state = dynamics.State(t=0.0, step=0, u=u0, v=v0, dt=1e-3)
    spans, truth = _traced(lambda: dynamics.step(state, cfg, solver))
    names = Counter(span[0] for span in spans)
    steps = [i for i, span in enumerate(spans) if span[0] == "dynamics.step"]
    assert len(steps) == 1
    children = Counter(span[0] for span in spans if span[1] == steps[0])
    # Checked against the profile hook, not fixed numbers (1 solve and 2
    # shifted solves per step when this was written), so a change that
    # removes solves leaves the test valid.
    for name in ("helmholtz.solve", "helmholtz.shifted_solve"):
        assert truth[name] > 0
        assert names[name] == children[name] == truth[name]


def test_sampled_states_add_solves_and_energy():
    import radks.dynamics as dynamics

    _, solver, u0, v0, cfg = _tiny_problem()
    spans, truth = _traced(lambda: dynamics.run(u0, v0, cfg, solver=solver, max_steps=3))
    names = Counter(span[0] for span in spans)
    assert names["dynamics.step"] == 3
    # Each sampled state adds solves and an energy evaluation on top of
    # the steps (2 and 1 when this was written).
    for name in SPANNED:
        assert truth[name] > 0
        assert names[name] == truth[name], name


def test_layer_metrics_cover_every_declared_metric():
    _, solver, u0, v0, cfg = _tiny_problem()
    import radks.dynamics as dynamics

    spans, _ = _traced(lambda: dynamics.run(u0, v0, cfg, solver=solver, max_steps=3))
    metrics = layers.layer_metrics([spans])
    assert set(metrics) == set(layers.UNITS) - {"trace.overhead_s"}
    assert metrics["dynamics.step.calls"] == 3
    assert metrics["helmholtz.solves_per_step"] == metrics["helmholtz.solve.calls"] / 3
    assert metrics["dynamics.dt_at_max_frac"] == 1.0
    assert metrics["dynamics.dt_distinct"] == 1


def test_sweep_workers_write_their_spans(tmp_path):
    """Forked pool workers exit without atexit; their spans must still land."""
    config = tmp_path / "run.ini"
    config.write_text(
        "# format_version=1\n[grid]\nn = 5\nR = 1.0\nN = 32\n"
        "[stepper]\nt_end = 0.01\ndt_max = 5e-3\noutput_every = 1\n"
        "[base]\nkind = bump\nbaseline = 1.0\nwidth = 0.3\n"
        f"[run]\noutdir = {tmp_path / 'out'}\nworkers = 2\n"
        "[sweep]\nbase.amplitude = 0.1, 0.2\n"
    )
    spans_dir = tmp_path / "spans"
    spans_dir.mkdir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    done = subprocess.run(
        [sys.executable, str(BENCH / "traced.py"), str(spans_dir), "-c", str(config), "sweep"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    processes = load_spans(spans_dir)
    assert len(processes) >= 2
    acc = layers.aggregate(processes)
    assert acc["cli.simulate_run"]["calls"] == 2
    assert acc["dynamics.step"]["calls"] > 0
    assert acc["dynamics.run.sink"]["calls"] >= acc["dynamics.run"]["calls"] > 0
    metrics = layers.layer_metrics(processes, workers=2)
    assert metrics["cli.simulate_run.self_s"] > 0.0
    assert 0.0 < metrics["sweep.busy_frac"] <= 1.0
    assert metrics["sweep.point_s.max"] <= metrics["sweep.point_s.sum"]


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _diagnostics(masses) -> str:
    rows = "".join(f"{0.1 * i},1e-4,{m!r},2.0,-1.0,1.0,0.0\n" for i, m in enumerate(masses))
    return "# format_version=1\nt,dt,mass,sup_u,F,D,identity_residual\n" + rows


@pytest.mark.parametrize("drift,ok", [(1e-12, True), (1e-6, False)])
def test_blowup_gate_mass_drift(tmp_path, drift, ok):
    p = workloads.Plan(workload="blowup", outdir=tmp_path)
    _write(tmp_path / "summary.txt", "# format_version=1\nstatus=blown_up\nsteps=10\nt_blowup=0.1\n")
    _write(tmp_path / "diagnostics.csv", _diagnostics([277.0, 277.0 * (1 + drift), 277.0]))
    problems, info = workloads.check(p, [2], [""])
    assert (problems == []) is ok
    assert info["steps"] == 10


def test_blowup_gate_wrong_exit_and_status(tmp_path):
    p = workloads.Plan(workload="blowup", outdir=tmp_path)
    _write(tmp_path / "summary.txt", "# format_version=1\nstatus=completed\nsteps=10\n")
    _write(tmp_path / "diagnostics.csv", _diagnostics([1.0, 1.0]))
    problems, _ = workloads.check(p, [0], [""])
    assert len(problems) == 2


def test_missing_outputs_fail(tmp_path):
    p = workloads.Plan(workload="blowup", outdir=tmp_path / "absent")
    problems, _ = workloads.check(p, [2], [""])
    assert problems and "unreadable" in problems[0]


SCORECARD = (
    "[PASS] conservation             (  5.62s)  mass drift 3.34e-11\n"
    "[{mark}] entropy_floor            (  0.46s)  0 violations\n"
    "2/2 checks passed in 6.1s\n"
)


def test_scorecard_gate_fails_on_fail_line():
    p = workloads.Plan(workload="scorecard", outdir=Path("."))
    assert workloads.check(p, [0], [SCORECARD.format(mark="PASS")])[0] == []
    problems, _ = workloads.check(p, [1], [SCORECARD.format(mark="FAIL")])
    assert len(problems) == 2
    assert workloads.scorecard_seconds(SCORECARD.format(mark="PASS")) == {
        "conservation": 5.62, "entropy_floor": 0.46}


def test_probe_study_gate_fails_on_false_hard_pass(tmp_path):
    p = workloads.Plan(workload="probe_study", outdir=tmp_path)
    _write(tmp_path / "summary.txt", "# format_version=1\nstatus=blown_up\nsteps=3\n")
    _write(tmp_path / "diagnostics.csv", _diagnostics([1.0, 1.0]))
    report = ("# format_version=1\nprobe,param,sample,lhs,rhs_free,implied_C,hard_pass\n"
              "entropy_floor,,0.0,-1.0,9.6,0.0,true\nodi_c5,,,1.0,1.0,1.0,\n")
    _write(tmp_path / "probe_report.csv", report)
    assert workloads.check(p, [2, 0], ["", ""])[0] == []
    _write(tmp_path / "probe_report.csv", report + "entropy_floor,,0.1,20.0,9.6,2.0,false\n")
    assert len(workloads.check(p, [2, 0], ["", ""])[0]) == 1


def test_sweep_gate_fails_on_error_row(tmp_path):
    p = workloads.Plan(workload="sweep", outdir=tmp_path)
    header = "# format_version=1\nparam:base.amplitude,status,t_out\n"
    good = "1e7,completed,0.5\n2e7,blown_up,1e-4\n4e7,blown_up,1e-4\n8e7,blown_up,1e-4\n"
    _write(tmp_path / "sweep" / "sweep.csv", header + good)
    assert workloads.check(p, [0], [""])[0] == []
    _write(tmp_path / "sweep" / "sweep.csv", header + good.replace("4e7,blown_up", "4e7,error: ValueError"))
    assert len(workloads.check(p, [0], [""])[0]) == 1


def test_seed_zero_gives_reference_inputs(tmp_path):
    blow = workloads.plan("blowup", 0, tmp_path / "b")
    assert blow.inputs == {"amplitude": 2e7, "N": 8192, "width": 0.06}
    sweep = workloads.plan("sweep", 0, tmp_path / "s")
    assert sweep.inputs["amplitudes"] == list(workloads.SWEEP_AMPLITUDES)
    assert workloads.plan("scorecard", 0, tmp_path / "c").commands == [["verify", "full"]]


def test_other_seeds_jitter_within_bounds(tmp_path):
    first = workloads.plan("sweep", 7, tmp_path / "a")
    again = workloads.plan("sweep", 7, tmp_path / "b")
    assert first.inputs == again.inputs
    for amp, ref in zip(first.inputs["amplitudes"], workloads.SWEEP_AMPLITUDES):
        assert amp != ref and abs(amp / ref - 1.0) <= 0.01
    assert abs(first.inputs["width"] / 0.06 - 1.0) <= 0.005


def test_benchmark_json_declares_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == layers.UNITS
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}


def test_speed_factor_follows_the_busiest_cpu():
    probe = speed.SpeedProbe([0, 1])
    probe._samples[0] += [(1.0, 2e-4), (2.0, 4e-4), (3.0, 9e-4)]
    probe._samples[1] += [(1.0, 3e-4), (2.0, 5e-4)]
    # the mean of the busier CPU's samples started in [1, 3)
    assert probe.factor((1.0, {0: 10, 1: 0}), (3.0, {0: 30, 1: 15})) == pytest.approx(
        speed.NOMINAL_S / 3e-4
    )
    assert probe.factor((1.0, {0: 10, 1: 0}), (3.0, {0: 20, 1: 15})) == pytest.approx(
        speed.NOMINAL_S / 4e-4
    )
    # a window without a sample of its own uses the next one, or the last
    assert probe.factor((2.5, {0: 0, 1: 0}), (2.6, {0: 1, 1: 0})) == pytest.approx(
        speed.NOMINAL_S / 9e-4
    )
    assert probe.factor((2.5, {0: 0, 1: 0}), (2.6, {0: 0, 1: 1})) == pytest.approx(
        speed.NOMINAL_S / 5e-4
    )


def test_speed_probe_samples_its_cpus_and_stops():
    cpus = sorted(os.sched_getaffinity(0))[:1]
    with speed.SpeedProbe(cpus) as probe:
        start = probe.mark()
        time.sleep(0.1)
        end = probe.mark()
    assert set(start[1]) == set(cpus)
    assert probe._samples[cpus[0]]
    assert probe.factor(start, end) > 0.0
    assert not any(thread.is_alive() for thread in probe._threads)


def test_refuses_to_run_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "blowup", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
