"""Per-layer metrics computed from traced spans.

Self time is a span's duration minus the durations of its direct child
spans.  `METRICS` lists every per-layer metric with its unit, its better
direction, and the end-to-end metric and workload it is expected to move;
BENCHMARK.json declares the same names.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# name, unit, better, what it should move
METRICS = [
    ("helmholtz.solve.calls", "count", "lower",
     "wall_s on probe_study (calls per sample); flat on scorecard"),
    ("helmholtz.solve.self_s", "s", "lower",
     "wall_s on scorecard (dt constant, factor reuse pays) and blowup (cheaper calls)"),
    ("helmholtz.shifted_solve.calls", "count", "lower", "wall_s on blowup and scorecard"),
    ("helmholtz.shifted_solve.self_s", "s", "lower",
     "wall_s on scorecard; on blowup only through cheaper calls, a dt-keyed cache never hits"),
    ("helmholtz.build_solver.calls", "count", "lower",
     "setup_s (relaxed base_data factors a second time)"),
    ("helmholtz.solves_per_step", "calls/step", "lower", "wall_s on probe_study"),
    ("dynamics.step.calls", "count", "lower", "wall_s on blowup and scorecard"),
    ("dynamics.step.self_s", "s", "lower", "wall_s on blowup and scorecard"),
    ("dynamics.step.p50_us", "us", "lower", "wall_s on blowup and scorecard"),
    ("dynamics.step.p99_us", "us", "lower", "wall_s on blowup and scorecard"),
    ("dynamics.steps_per_s", "1/s", "higher",
     "wall_s on blowup and scorecard (a layer rate, not an end-to-end one)"),
    ("dynamics.adapt_dt.self_s", "s", "lower", "wall_s on blowup and scorecard"),
    ("dynamics.run.self_s", "s", "lower", "wall_s on blowup and scorecard"),
    ("dynamics.dt_at_max_frac", "ratio", "higher",
     "workload property a factorization cache depends on: 0 on blowup, near 1 on scorecard"),
    ("dynamics.dt_distinct", "count", "lower",
     "workload property: distinct dt values, the factorizations a dt-keyed cache must hold"),
    ("grid.integrate.calls", "count", "lower", "wall_s on blowup and probe_study"),
    ("grid.integrate.self_s", "s", "lower",
     "wall_s on blowup (large N) and probe_study; small on scorecard"),
    ("grid.laplacian.calls", "count", "lower", "wall_s on blowup and probe_study"),
    ("energy.compute_energy.calls", "count", "lower", "wall_s on probe_study"),
    ("energy.compute_energy.self_s", "s", "lower", "wall_s on probe_study"),
    ("energy.compute_f.calls", "count", "lower", "wall_s on probe_study"),
    ("energy.compute_g.calls", "count", "lower", "wall_s on probe_study"),
    ("probes.self_s", "s", "lower", "wall_s on probe_study"),
    ("probes.probe_local_inequalities.calls", "count", "lower", "wall_s on probe_study"),
    ("snapshots.write_snapshot.calls", "count", "lower", "wall_s on probe_study only"),
    ("snapshots.write_snapshot.self_s", "s", "lower", "wall_s on probe_study only"),
    ("snapshots.write_snapshot.bytes", "B", "lower", "wall_s on probe_study only"),
    ("snapshots.read_snapshot.self_s", "s", "lower", "wall_s on probe_study only"),
    ("snapshots.DiagnosticsWriter.write.self_s", "s", "lower", "wall_s on probe_study only"),
    ("initial_data.base_data.self_s", "s", "lower", "setup_s on blowup, probe_study and sweep"),
    ("initial_data.w22_norm.calls", "count", "lower", "setup_s on blowup, probe_study and sweep"),
    ("config.load_config.calls", "count", "lower",
     "setup_s; wall_s on sweep (the config is reloaded for each point)"),
    ("config.load_config.self_s", "s", "lower", "setup_s; wall_s on sweep"),
    ("cli.simulate_run.self_s", "s", "lower",
     "wall_s on probe_study (sink, summary, snapshot assembly)"),
    ("sweep.point_s.max", "s", "lower", "wall_s on sweep (the slowest point ends the sweep)"),
    ("sweep.point_s.sum", "s", "lower", "wall_s on sweep"),
    ("sweep.busy_frac", "ratio", "higher",
     "wall_s on sweep: sum of point time / (workers x sweep wall)"),
    ("verify.conservation.s", "s", "lower", "wall_s on scorecard"),
    ("verify.entropy_floor.s", "s", "lower", "wall_s on scorecard"),
    ("verify.energy_identity.s", "s", "lower", "wall_s on scorecard"),
    ("verify.family.s", "s", "lower", "wall_s on scorecard"),
    ("trace.overhead_s", "s", "lower",
     "none: traced wall_s minus untraced wall_s, the cost of measuring the layers"),
]

UNITS = {name: unit for name, unit, _, _ in METRICS}
VERIFY_CHECKS = ("conservation", "entropy_floor", "energy_identity", "family")


def _self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for _, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [t1 - t0 - inner for (_, _, t0, t1, _), inner in zip(spans, child)]


def aggregate(processes) -> dict:
    """name -> calls, total, self seconds, durations and attrs over all processes."""
    acc = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0, "durations": [], "attrs": []})
    for spans in processes:
        for (name, _, t0, t1, attr), own in zip(spans, _self_times(spans)):
            entry = acc[name]
            entry["calls"] += 1
            entry["total"] += t1 - t0
            entry["self"] += own
            entry["durations"].append(t1 - t0)
            if attr is not None:
                entry["attrs"].append(attr)
    return acc


def _self_under(processes, name, ancestor) -> float:
    """Self seconds of the spans called `name` that run inside an `ancestor` span."""
    total = 0.0
    for spans in processes:
        inside = [False] * len(spans)
        for i, ((span, parent, _, _, _), own) in enumerate(zip(spans, _self_times(spans))):
            # a parent is recorded before its children
            inside[i] = parent >= 0 and (inside[parent] or spans[parent][0] == ancestor)
            if inside[i] and span == name:
                total += own
    return total


def _percentile_us(durations, q) -> float:
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return 1e6 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(processes, workers: int = 1, verify_seconds=None) -> dict:
    """Every metric of `METRICS` except trace.overhead_s, from one traced run.

    `verify_seconds` maps scorecard check names to the seconds the
    scorecard itself printed; absent checks read 0.
    """
    acc = aggregate(processes)  # absent names read as zero calls

    def get(name, field):
        return acc[name][field]

    steps = get("dynamics.step", "calls")
    dts = get("dynamics.step", "attrs")
    step_durations = get("dynamics.step", "durations")
    run_total = get("dynamics.run", "total")
    sweep_wall = get("sweep.run_sweep", "total")
    points = get("cli.simulate_run", "durations") if sweep_wall else []
    out = {
        "helmholtz.solve.calls": get("helmholtz.solve", "calls"),
        "helmholtz.solve.self_s": get("helmholtz.solve", "self"),
        "helmholtz.shifted_solve.calls": get("helmholtz.shifted_solve", "calls"),
        "helmholtz.shifted_solve.self_s": get("helmholtz.shifted_solve", "self"),
        "helmholtz.build_solver.calls": get("helmholtz.build_solver", "calls"),
        "helmholtz.solves_per_step": get("helmholtz.solve", "calls") / steps if steps else 0.0,
        "dynamics.step.calls": steps,
        "dynamics.step.self_s": get("dynamics.step", "self"),
        "dynamics.step.p50_us": _percentile_us(step_durations, 0.50),
        "dynamics.step.p99_us": _percentile_us(step_durations, 0.99),
        "dynamics.steps_per_s": steps / run_total if run_total else 0.0,
        "dynamics.adapt_dt.self_s": get("dynamics.adapt_dt", "self"),
        "dynamics.run.self_s": get("dynamics.run", "self"),
        "dynamics.dt_at_max_frac": sum(dt == dt_max for dt, dt_max in dts) / steps if steps else 0.0,
        "dynamics.dt_distinct": len({dt for dt, _ in dts}),
        "grid.integrate.calls": get("grid.integrate", "calls"),
        "grid.integrate.self_s": get("grid.integrate", "self"),
        "grid.laplacian.calls": get("grid.laplacian", "calls"),
        "energy.compute_energy.calls": get("energy.compute_energy", "calls"),
        "energy.compute_energy.self_s": get("energy.compute_energy", "self"),
        "energy.compute_f.calls": get("energy.compute_f", "calls"),
        "energy.compute_g.calls": get("energy.compute_g", "calls"),
        "probes.self_s": sum(e["self"] for n, e in acc.items() if n.startswith("probes.")),
        "probes.probe_local_inequalities.calls": get("probes.probe_local_inequalities", "calls"),
        "snapshots.write_snapshot.calls": get("snapshots.write_snapshot", "calls"),
        "snapshots.write_snapshot.self_s": get("snapshots.write_snapshot", "self"),
        "snapshots.write_snapshot.bytes": sum(get("snapshots.write_snapshot", "attrs")),
        "snapshots.read_snapshot.self_s": get("snapshots.read_snapshot", "self"),
        "snapshots.DiagnosticsWriter.write.self_s": get("snapshots.DiagnosticsWriter.write", "self"),
        "initial_data.base_data.self_s": get("initial_data.base_data", "self"),
        "initial_data.w22_norm.calls": get("initial_data.w22_norm", "calls"),
        "config.load_config.calls": get("config.load_config", "calls"),
        "config.load_config.self_s": get("config.load_config", "self"),
        # simulate_run's own work includes the sink it hands to dynamics.run
        "cli.simulate_run.self_s": get("cli.simulate_run", "self")
        + _self_under(processes, "dynamics.run.sink", "cli.simulate_run"),
        "sweep.point_s.max": max(points, default=0.0),
        "sweep.point_s.sum": sum(points, 0.0),
        "sweep.busy_frac": sum(points) / (workers * sweep_wall) if sweep_wall else 0.0,
    }
    for check in VERIFY_CHECKS:
        out[f"verify.{check}.s"] = (verify_seconds or {}).get(check, 0.0)
    return out


def median_metrics(runs: list[dict]) -> dict:
    """Per-metric median over several traced runs of one workload."""
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}
