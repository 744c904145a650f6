"""Command-line interface: simulate, family, probe, sweep, verify, energy.

Every verb works on the mesh its config builds (RunConfig.grid): probe,
energy and custom base data read snapshots onto that grid through
Snapshot.fields, which rejects a file written on any other mesh.

Exit codes: 0 success (simulate: run completed), 2 blowup detected (the
scientifically expected outcome, distinguishable in shell pipelines),
1 stall or error (a RadksError or an OSError, such as a missing input
file, is one `error: ...` line on stderr).
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

from .config import RunConfig, load_config, resolve_output_dir
from .dynamics import SimStatus, run
from .energy import compute_energy
from .errors import ConfigurationError, RadksError
from .grid import integrate
from .helmholtz import build_solver
from .initial_data import base_data, build_family, family_energy_scan, family_scales, w22_norm
from .probes import (
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
    FINAL_SNAPSHOT_NAME,
    FORMAT_VERSION,
    family_snapshot_name,
    format_float,
    read_diagnostics,
    read_snapshot,
    run_snapshot_name,
    run_snapshots,
    write_probe_rows,
    write_snapshot,
    write_table,
)
from . import verify as verify_mod

__all__ = ["main", "entry_point", "simulate_run"]


def _build_problem(cfg: RunConfig):
    solver = build_solver(cfg.grid)
    u0, v0 = base_data(cfg.base_kind, cfg.grid, solver, **cfg.base_params)
    return solver, u0, v0


def _initial_pair(cfg: RunConfig):
    """(solver, u0, v0) of the run cfg describes.

    An explicit family.eta, which must then be a single scale, perturbs
    the base pair with the concentrated bump at that scale (this is how
    eta sweeps work); the default "auto" leaves the base pair untouched.
    """
    if len(cfg.etas) > 1:
        raise ConfigurationError(f"family.eta: a run starts from one scale, got {list(cfg.etas)}")
    solver, u0, v0 = _build_problem(cfg)
    if cfg.etas:
        u0, v0 = build_family(u0, v0, cfg.gamma, cfg.etas[0])
    return solver, u0, v0


def simulate_run(cfg: RunConfig):
    """Shared by the simulate verb and the sweep worker.

    Runs from _initial_pair(cfg).  Returns (RunSummary, extras) with the
    trajectory maxima of the probe constants.
    """
    grid = cfg.grid
    solver, u0, v0 = _initial_pair(cfg)

    outdir = resolve_output_dir(cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    # an earlier run's states and summary are not this run's: probe would
    # read the states, and a killed run would leave the old summary
    for stale in run_snapshots(outdir):
        stale.unlink()
    (outdir / "summary.txt").unlink(missing_ok=True)
    pconf = cfg.probe
    v0_norm = w22_norm(v0)
    max_c = {"w": 0.0, "v": 0.0}
    sample_count = 0

    with DiagnosticsWriter(outdir / "diagnostics.csv") as diag:

        def sink(state, sample):
            nonlocal sample_count
            diag.write(sample)
            m = sample.mass
            max_c["w"] = max(max_c["w"], probe_pointwise_w(state.report.w, m).implied_c)
            max_c["v"] = max(max_c["v"], probe_pointwise_v(state.v, pconf, m, v0_norm).implied_c)
            if cfg.snapshot_every and sample_count % cfg.snapshot_every == 0:
                write_snapshot(
                    outdir / run_snapshot_name(state.step), grid, state.u, state.v, t=state.t
                )
            sample_count += 1

        state, summary, samples = run(
            u0, v0, cfg.stepper, solver=solver, sink=sink, max_steps=cfg.max_steps
        )
    max_c["fd"] = probe_fd_ratio(samples, pconf).implied_c

    write_snapshot(outdir / FINAL_SNAPSHOT_NAME, grid, state.u, state.v, t=state.t)
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
            ("min_u", format_float(summary.min_u)),
            ("first_negative_step",
             "" if summary.first_negative_step is None else summary.first_negative_step),
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
    solver, u0, v0 = _build_problem(cfg)
    etas = cfg.etas or family_scales(u0, cfg.gamma, cfg.eta_count)
    rows = family_energy_scan(u0, v0, cfg.gamma, etas, solver)
    outdir = resolve_output_dir(cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    write_table(
        outdir / "family.csv",
        ["eta", "F", "mass", "min_u"],
        [[r.eta, r.F, r.mass, r.min_u] for r in rows],
    )
    for idx, r in enumerate(rows):
        write_snapshot(outdir / family_snapshot_name(idx), cfg.grid, r.u, r.v)
    print(f"{len(rows)} rows in {outdir / 'family.csv'}")
    return 0


def cmd_probe(cfg: RunConfig, diagnostics_path: str, snapshot_dir: str) -> int:
    # trajectory rows with the TrajectorySample attributes the probes read
    samples = [SimpleNamespace(**row) for row in read_diagnostics(diagnostics_path)]
    if not samples:
        raise RadksError(f"{diagnostics_path} has no rows")
    snaps = []
    if snapshot_dir:
        if not Path(snapshot_dir).is_dir():
            raise RadksError(f"snapshot directory {snapshot_dir} is not a directory")
        # a family-only outdir or a mistyped sibling folder would otherwise
        # give a report without a single state row
        snaps = run_snapshots(snapshot_dir)
        if not snaps:
            raise RadksError(
                f"snapshot directory {snapshot_dir} holds no run snapshot "
                "(snapshot_<8 digits>.snap or snapshot_final.snap)"
            )
    pconf = cfg.probe
    solver, _, v0 = _initial_pair(cfg)
    v0_norm = w22_norm(v0)
    results, records = [], []
    for snap_path in snaps:
        snap = read_snapshot(snap_path)
        u, v = snap.fields(cfg.grid)
        t = snap.t if snap.t is not None else math.nan
        m = integrate(u)
        # one energy report per snapshot feeds every probe of the state,
        # the pointwise-w probe and int w included
        rep = compute_energy(u, v, solver)
        results.append(replace(probe_entropy_floor(rep), sample=t))
        results.append(replace(probe_pointwise_w(rep.w, m), sample=t))
        results.append(replace(probe_pointwise_v(v, pconf, m, v0_norm), sample=t))
        for r in probe_local_inequalities(u, v, rep, pconf):
            results.append(replace(r, sample=t))
        # this state's mass record, for the identity checks
        records.append(
            SimpleNamespace(t=t, mass=m, int_v=integrate(v), int_w=integrate(rep.w))
        )

    results.append(probe_fd_ratio(samples, pconf))
    results.extend(probe_mass_identities(records))
    odi, note = probe_odi(samples, pconf.theta)
    results.append(odi)
    if note:
        print(f"odi_tail_slope is nan: {note}")

    outdir = resolve_output_dir(cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    write_probe_rows(outdir / "probe_report.csv", results)
    print(f"{len(results)} probe rows in {outdir / 'probe_report.csv'}")
    return 0


def cmd_sweep(cfg: RunConfig, config_path: str, overrides) -> int:
    # imported here: the process pool it loads (multiprocessing, socket,
    # logging) costs every other verb's start-up ~20 ms and ~2 MB
    from . import sweep as sweep_mod

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
    u, v = read_snapshot(snapshot_path).fields(cfg.grid)
    rep = compute_energy(u, v, build_solver(cfg.grid))
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
    energy.add_argument("snapshot", help="snapshot path")
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
    except (RadksError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> int:
    """main for a process of its own: the `radks` script and `python -m
    radks.cli`.

    gc.freeze() moves every object the imports made out of the collector's
    reach, so no later collection walks them again, the one at interpreter
    shutdown included, and the pool workers sweep forks share those pages
    untouched.  main(argv) called in-process leaves the collector alone.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry_point())
