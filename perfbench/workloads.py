"""The four benchmark workloads: inputs from a seed, commands, and gates.

Every workload is a batch job run by one client in a closed loop; only
`sweep` starts more than one process (a pool of 2 workers).

Seed 0 gives the reference inputs exactly.  Any other seed scales each
bump amplitude by a factor in [0.99, 1.01] and the bump width by one in
[0.995, 1.005]; that keeps every run in its regime (blowup or not), and
the gates fail a run whose regime flipped.  `scorecard` runs
`verify full`, which takes no input, so its seed changes nothing.

A gate reads the outputs with its own parser, never with radks, and
returns the problems it found (empty when the run is correct) plus
information that is recorded but not gated, such as t_blowup and steps,
which a better scheme may legitimately move.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = {
    "blowup": "time to the headline result: README blowup data at N=8192, CFL-limited dt that changes every step",
    "scorecard": "verify full: smooth relaxing runs with dt pinned at dt_max, per-call overhead bound at N=400",
    "probe_study": "sampling path dominates: energy, extra solves, snapshot writes and reads, then the probe report",
    "sweep": "4 amplitudes of very uneven cost on 2 pool workers: radks.sweep and worker scheduling",
}

MASS_DRIFT_LIMIT = 1e-9
SWEEP_AMPLITUDES = (1e7, 2e7, 4e7, 8e7)

CONFIG = """\
# format_version=1
[grid]
n = 5
R = 1.0
N = {N}

[base]
kind = bump
baseline = 1.0
amplitude = {amplitude!r}
width = {width!r}
v_mode = relaxed

[stepper]
t_end = 0.5
dt_max = 1e-2
output_every = {output_every}

[run]
outdir = {outdir}
snapshot_every = {snapshot_every}
workers = {workers}
"""


@dataclass
class Plan:
    """What one iteration of a workload runs, and where it writes."""

    workload: str
    outdir: Path
    config: Path | None = None
    commands: list = field(default_factory=list)  # radks CLI argument lists
    workers: int = 1
    inputs: dict = field(default_factory=dict)


# grid size, sampling and pool size; every workload uses the README bump
SIZES = {
    "blowup": dict(N=8192, output_every=20, snapshot_every=0, workers=1),
    "probe_study": dict(N=2048, output_every=1, snapshot_every=10, workers=1),
    "sweep": dict(N=4096, output_every=20, snapshot_every=0, workers=2),
}


def _jitter(seed: int):
    rng = random.Random(seed)
    return lambda value, rel: value * (1.0 + rng.uniform(-rel, rel)) if seed else value


def plan(workload: str, seed: int, workdir: Path) -> Plan:
    """Write the workload's inputs for `seed` under `workdir`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "out"
    if workload == "scorecard":
        return Plan(workload, out, commands=[["verify", "full"]])

    jitter = _jitter(seed)
    size = SIZES[workload]
    inputs = {"N": size["N"], "width": jitter(0.06, 0.005)}
    if workload == "sweep":
        inputs["amplitudes"] = [jitter(a, 0.01) for a in SWEEP_AMPLITUDES]
        amplitude = 2e7  # every sweep point overrides it
    else:
        amplitude = inputs["amplitude"] = jitter(2e7, 0.01)
    text = CONFIG.format(amplitude=amplitude, width=inputs["width"], outdir=out, **size)
    if workload == "sweep":
        text += "\n[sweep]\nbase.amplitude = " + ", ".join(map(repr, inputs["amplitudes"])) + "\n"
    config = workdir / "run.ini"
    config.write_text(text)
    cfg = ["-c", str(config)]
    commands = [cfg + ["sweep" if workload == "sweep" else "simulate"]]
    if workload == "probe_study":
        commands.append(cfg + ["probe", str(out / "diagnostics.csv"), str(out)])
    return Plan(workload, out, config, commands, size["workers"], inputs)


# -- output parsers (independent of radks) ---------------------------------


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as handle:
        first = handle.readline()
        if not first.startswith("# format_version="):
            raise ValueError(f"{path.name}: missing format_version line")
        return list(csv.DictReader(line for line in handle if not line.startswith("#")))


def _summary(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep and not line.startswith("#"):
            out[key] = value
    return out


def mass_drift(diagnostics: Path) -> float:
    masses = [float(row["mass"]) for row in _rows(diagnostics)]
    return max(abs(m - masses[0]) for m in masses) / masses[0]


def _run_info(summary: dict) -> dict:
    return {"t_blowup": summary.get("t_blowup", ""), "steps": int(summary.get("steps", -1))}


# -- gates ------------------------------------------------------------------


def _gate_trajectory(p: Plan, exits: list[int], problems: list) -> dict:
    """simulate exited 2, blew up, and kept its mass to MASS_DRIFT_LIMIT."""
    if exits[0] != 2:
        problems.append(f"simulate exit {exits[0]}, want 2")
    summary = _summary(p.outdir / "summary.txt")
    if summary.get("status") != "blown_up":
        problems.append(f"status={summary.get('status')}, want blown_up")
    drift = mass_drift(p.outdir / "diagnostics.csv")
    if not drift <= MASS_DRIFT_LIMIT:
        problems.append(f"relative mass drift {drift:.3e} > {MASS_DRIFT_LIMIT:g}")
    return dict(_run_info(summary), mass_drift=drift)


def gate_blowup(p: Plan, exits: list[int], stdout: list[str]):
    problems: list[str] = []
    return problems, _gate_trajectory(p, exits, problems)


def gate_probe_study(p: Plan, exits: list[int], stdout: list[str]):
    problems: list[str] = []
    info = _gate_trajectory(p, exits, problems)
    if exits[1] != 0:
        problems.append(f"probe exit {exits[1]}, want 0")
    hard = [row["hard_pass"] for row in _rows(p.outdir / "probe_report.csv") if row["hard_pass"]]
    if not hard:
        problems.append("probe_report.csv has no hard_pass rows")
    failed = sum(value != "true" for value in hard)
    if failed:
        problems.append(f"{failed} of {len(hard)} hard_pass rows are not true")
    info["hard_pass_rows"] = len(hard)
    return problems, info


def scorecard_seconds(stdout: str) -> dict:
    """Per-check seconds as the scorecard printed them: `[PASS] name ( 5.62s) ...`."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("["):
            name, _, rest = line.split("]", 1)[1].strip().partition(" ")
            out[name] = float(rest.strip().split("s)", 1)[0].lstrip("("))
    return out


def gate_scorecard(p: Plan, exits: list[int], stdout: list[str]):
    problems = []
    if exits[0] != 0:
        problems.append(f"verify exit {exits[0]}, want 0")
    checks = [line for line in stdout[0].splitlines() if line.startswith("[")]
    if not checks:
        problems.append("scorecard printed no check lines")
    problems += [f"not PASS: {line}" for line in checks if not line.startswith("[PASS]")]
    return problems, {"checks": len(checks), "check_s": scorecard_seconds(stdout[0])}


def gate_sweep(p: Plan, exits: list[int], stdout: list[str]):
    problems = []
    if exits[0] != 0:
        problems.append(f"sweep exit {exits[0]}, want 0")
    rows = _rows(p.outdir / "sweep" / "sweep.csv")
    if len(rows) != len(SWEEP_AMPLITUDES):
        problems.append(f"{len(rows)} sweep rows, want {len(SWEEP_AMPLITUDES)}")
    rows.sort(key=lambda row: float(row["param:base.amplitude"]))
    for i, row in enumerate(rows):
        want = "completed" if i == 0 else "blown_up"
        if row["status"] != want:
            problems.append(f"amplitude {row['param:base.amplitude']}: status {row['status']}, want {want}")
    info = {}
    for summary in sorted((p.outdir / "sweep").glob("*/summary.txt")):
        info[summary.parent.name] = _run_info(_summary(summary))
    return problems, info


GATES = {
    "blowup": gate_blowup,
    "scorecard": gate_scorecard,
    "probe_study": gate_probe_study,
    "sweep": gate_sweep,
}


def check(p: Plan, exits: list[int], stdout: list[str]):
    """(problems, info) for one iteration; unreadable outputs are a problem too."""
    try:
        return GATES[p.workload](p, exits, stdout)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"outputs unreadable: {type(exc).__name__}: {exc}"], {}
