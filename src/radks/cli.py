"""Command-line interface: simulate, family, probe, sweep, verify, energy.

Exit codes: 0 success (simulate: run completed), 2 blowup detected (the
scientifically expected outcome, distinguishable in shell pipelines),
1 stall or error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .config import RunConfig, load_config, resolve_output_dir
from .dynamics import SimStatus, run
from .energy import compute_energy
from .errors import RadksError, SnapshotFormatError
from .grid import Grid, RadialField, make_grid, integrate
from .helmholtz import build_solver
from .initial_data import base_data, build_family, eta_star, family_energy_scan, FamilyParams, w22_norm
from .probes import (
    ProbeResult,
    probe_entropy_floor,
    probe_fd_ratio,
    probe_local_inequalities,
    probe_mass_identities,
    probe_odi,
    probe_pointwise_v,
    probe_pointwise_w,
)
from .snapshots import (
    DiagnosticsWriter,
    FORMAT_VERSION,
    format_float,
    read_diagnostics,
    read_snapshot,
    write_probe_rows,
    write_snapshot,
    write_table,
)
from . import verify as verify_mod
from . import sweep as sweep_mod

__all__ = ["main", "simulate_run"]


def _build_problem(cfg: RunConfig):
    grid = cfg.grid
    solver = build_solver(grid)
    params = {k: v for k, v in cfg.base_params.items() if v not in (None, "")}
    u0, v0 = base_data(cfg.base_kind, grid, solver, **params)
    return grid, solver, u0, v0


def resolve_etas(cfg: RunConfig, grid: Grid, u0: RadialField) -> list[float]:
    if cfg.eta_spec != "auto":
        return [float(x) for x in cfg.eta_spec.split(",") if x.strip()]
    iota = float(np.min(u0.values))
    star = eta_star(iota, cfg.gamma, grid.n, grid.ball_volume, cap=min(1.0, grid.R))
    return [star / (4 * 2**k) for k in range(cfg.eta_count)]


def simulate_run(cfg: RunConfig):
    """Shared by the simulate verb and the sweep worker.

    An explicit single-valued family.eta perturbs the base pair with the
    concentrated bump at that scale (this is how eta sweeps work); the
    default "auto" leaves the base pair untouched.  Returns (RunSummary,
    extras) with the trajectory maxima of the probe constants.
    """
    grid, solver, u0, v0 = _build_problem(cfg)
    if cfg.eta_spec != "auto":
        etas = resolve_etas(cfg, grid, u0)
        if len(etas) == 1:
            u0, v0 = build_family(
                FamilyParams(u0=u0, v0=v0, gamma=cfg.gamma, eta=etas[0]), grid
            )

    outdir = resolve_output_dir(cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    pconf = cfg.probe
    v0_norm = w22_norm(v0)
    max_c = {"fd": 0.0, "w": 0.0, "v": 0.0}
    sample_count = 0

    with DiagnosticsWriter(outdir / "diagnostics.csv") as diag:

        def sink(state, sample):
            nonlocal sample_count
            diag.write(sample)
            m = sample.mass
            max_c["fd"] = max(
                max_c["fd"],
                max(-sample.F, 0.0) / (max(sample.D, 0.0) ** pconf.theta + 1.0),
            )
            max_c["w"] = max(max_c["w"], probe_pointwise_w(state.report.w, m).implied_c)
            max_c["v"] = max(
                max_c["v"], probe_pointwise_v(state.v, pconf, m, v0_norm).implied_c
            )
            if cfg.snapshot_every and sample_count % cfg.snapshot_every == 0:
                write_snapshot(
                    outdir / f"snapshot_{state.step:08d}.csv",
                    grid, state.u, state.v, t=state.t,
                )
            sample_count += 1

        state, summary, samples = run(
            u0, v0, cfg.stepper, solver=solver, sink=sink, max_steps=cfg.max_steps
        )

    write_snapshot(outdir / "snapshot_final.csv", grid, state.u, state.v, t=state.t)
    with (outdir / "summary.txt").open("w") as handle:
        handle.write(f"# format_version={FORMAT_VERSION}\n")
        for key, value in (
            ("status", summary.status.value),
            ("t_final", format_float(summary.t_final)),
            ("t_blowup", "" if summary.t_blowup is None else format_float(summary.t_blowup)),
            ("steps", summary.steps),
            ("peak_sup", format_float(summary.peak_sup)),
            ("F0", format_float(summary.F0)),
            ("min_F", format_float(summary.min_F)),
            ("mass_initial", format_float(samples[0].mass)),
            ("mass_final", format_float(samples[-1].mass)),
            ("max_C_fd", format_float(max_c["fd"])),
            ("max_C_w", format_float(max_c["w"])),
            ("max_C_v", format_float(max_c["v"])),
        ):
            handle.write(f"{key}={value}\n")
    extras = {
        "max_C_fd": max_c["fd"],
        "max_C_w": max_c["w"],
        "max_C_v": max_c["v"],
        "outdir": outdir,
        "samples": samples,
    }
    return summary, extras


def cmd_simulate(cfg: RunConfig) -> int:
    summary, extras = simulate_run(cfg)
    print(f"status={summary.status.value} t_final={summary.t_final:g} "
          f"peak_sup={summary.peak_sup:g} outputs in {extras['outdir']}")
    if summary.status is SimStatus.COMPLETED:
        return 0
    if summary.status is SimStatus.BLOWN_UP:
        return 2
    return 1


def cmd_family(cfg: RunConfig) -> int:
    grid, solver, u0, v0 = _build_problem(cfg)
    etas = resolve_etas(cfg, grid, u0)
    if not etas:
        raise RadksError("family requires a nonempty eta list")
    rows = family_energy_scan(u0, v0, cfg.gamma, etas, grid, solver)
    outdir = resolve_output_dir(cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    write_table(
        outdir / "family.csv",
        ["eta", "F", "mass", "min_u"],
        [[r.eta, r.F, r.mass, r.min_u] for r in rows],
    )
    for idx, r in enumerate(rows):
        write_snapshot(outdir / f"snapshot_eta_{idx:02d}.csv", grid, r.u, r.v)
    print(f"{len(rows)} rows in {outdir / 'family.csv'}")
    return 0


def _check_snapshot_grid(path, snap, grid: Grid) -> None:
    if not snap.on_grid(grid):
        raise SnapshotFormatError(
            f"{path}: mesh mismatch: the r column is not the cell centers of the "
            f"uniform {grid.N}-cell mesh on (0, {grid.R:g}]; only uniform-mesh "
            "snapshots can be read back"
        )


def _grid_from_snapshot(path, snap, n: int) -> Grid:
    """The uniform mesh whose cell centers are the snapshot's r column."""
    # on a uniform mesh r[0] = h/2 exactly, so R = r[-1] + r[0]
    grid = make_grid(n, float(snap.r[-1] + snap.r[0]), len(snap.r))
    _check_snapshot_grid(path, snap, grid)
    return grid


def cmd_probe(cfg: RunConfig, diagnostics_path: str, snapshot_dir: str) -> int:
    diag_rows = read_diagnostics(diagnostics_path)
    if not diag_rows:
        raise RadksError(f"{diagnostics_path} has no rows")
    snaps = sorted(Path(snapshot_dir).glob("snapshot_*.csv")) if snapshot_dir else []
    results = []

    grid = None
    solver = None
    # diagnostics rows with the TrajectorySample attributes the probes read
    samples = [SimpleNamespace(**row, int_v=math.nan, int_w=math.nan) for row in diag_rows]
    pconf = cfg.probe
    for snap_path in snaps:
        snap = read_snapshot(snap_path)
        if grid is None:
            grid = _grid_from_snapshot(snap_path, snap, cfg.n)
            solver = build_solver(grid)
        else:
            _check_snapshot_grid(snap_path, snap, grid)
        u = RadialField(snap.u, grid)
        v = RadialField(snap.v, grid)
        t = snap.t if snap.t is not None else math.nan
        m = integrate(u)
        # one energy report per snapshot feeds every probe of the state,
        # the pointwise-w probe and int w included
        rep = compute_energy(u, v, solver)
        results.append(replace(probe_entropy_floor(rep), sample=t))
        results.append(replace(probe_pointwise_w(rep.w, m), sample=t))
        results.append(replace(probe_pointwise_v(v, pconf, m, w22_norm(v)), sample=t))
        for r in probe_local_inequalities(u, v, rep, pconf):
            results.append(replace(r, sample=t))
        # enrich the nearest diagnostics sample with field integrals
        if samples:
            nearest = min(samples, key=lambda s: abs(s.t - t))
            nearest.int_v = integrate(v)
            nearest.int_w = integrate(rep.w)

    results.append(probe_fd_ratio(samples, pconf))
    enriched = [s for s in samples if not math.isnan(s.int_v)]
    if enriched:
        results.extend(probe_mass_identities(enriched))
    try:
        odi = probe_odi(samples, pconf.theta)
        results.append(
            ProbeResult(name="odi_c5", lhs=odi.c5, rhs_free=1.0, implied_c=odi.c5,
                        param=pconf.theta)
        )
        results.append(
            ProbeResult(name="odi_tail_slope", lhs=odi.tail_slope, rhs_free=1.0 / pconf.theta,
                        implied_c=odi.tail_slope, param=pconf.theta)
        )
    except RadksError:
        pass

    outdir = resolve_output_dir(cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    write_probe_rows(outdir / "probe_report.csv", results)
    print(f"{len(results)} probe rows in {outdir / 'probe_report.csv'}")
    return 0


def cmd_sweep(cfg: RunConfig, config_path: str, overrides) -> int:
    outdir = resolve_output_dir(cfg) / "sweep"
    columns, rows = sweep_mod.run_sweep(
        config_path, overrides, cfg.sweep_axes, outdir, cfg.workers
    )
    write_table(outdir / "sweep.csv", columns, rows)
    print(f"{len(rows)} runs in {outdir / 'sweep.csv'}")
    return 0


def cmd_verify(level: str) -> int:
    results = verify_mod.run_checks(level)
    print(verify_mod.scorecard(results))
    return 0 if all(r.passed for r in results) else 1


def cmd_energy(cfg: RunConfig, snapshot_path: str) -> int:
    snap = read_snapshot(snapshot_path)
    grid = _grid_from_snapshot(snapshot_path, snap, cfg.n)
    solver = build_solver(grid)
    u = RadialField(snap.u, grid)
    v = RadialField(snap.v, grid)
    rep = compute_energy(u, v, solver)
    for key in ("F", "D", "entropy_term", "mixed_term", "quad_term",
                "grad_f_term", "f_term", "g_term", "regularized_faces"):
        print(f"{key}={getattr(rep, key)!r}")
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="radks", description=__doc__)
    p.add_argument("--config", "-c", help="run configuration file")
    p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a config key (repeatable)",
    )
    sub = p.add_subparsers(dest="verb", required=True)
    sub.add_parser("simulate", help="run one trajectory")
    sub.add_parser("family", help="energy scan of the concentrated family")
    probe = sub.add_parser("probe", help="probe report from diagnostics + snapshots")
    probe.add_argument("diagnostics", help="diagnostics CSV path")
    probe.add_argument("snapshots", nargs="?", default="", help="snapshot directory")
    sub.add_parser("sweep", help="parameter sweep over [sweep] axes")
    verify = sub.add_parser("verify", help="run the verification scorecard")
    verify.add_argument("level", nargs="?", default="fast", choices=("fast", "full"))
    energy = sub.add_parser("energy", help="print the energy report of a snapshot")
    energy.add_argument("snapshot", help="snapshot CSV path")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.verb == "verify":
            return cmd_verify(args.level)
        if not args.config:
            print("error: --config is required for this verb", file=sys.stderr)
            return 1
        cfg = load_config(args.config, args.overrides)
        for warning in cfg.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        if args.verb == "simulate":
            return cmd_simulate(cfg)
        if args.verb == "family":
            return cmd_family(cfg)
        if args.verb == "probe":
            return cmd_probe(cfg, args.diagnostics, args.snapshots)
        if args.verb == "sweep":
            return cmd_sweep(cfg, args.config, args.overrides)
        if args.verb == "energy":
            return cmd_energy(cfg, args.snapshot)
        raise AssertionError(f"unhandled verb {args.verb}")
    except RadksError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
