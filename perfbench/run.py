"""radks benchmark: run one workload for a while and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is blowup, scorecard, probe_study, sweep, or all (each in turn).

Run from anywhere; it finds the repository from its own path and runs the
program from `src` the way a user does: every workload iteration starts
fresh `python -m radks.cli ...` processes with `src` on PYTHONPATH.
Iterations repeat until about S seconds have passed (at least one), and
the outputs of every iteration pass through the workload's gates.

--trace 0 reports the end-to-end metrics as medians over iterations:
  wall_s       wall time of the workload's CLI processes, imports included,
               at the nominal core speed of perfbench/speed.py
  setup_s      median over fresh processes of import radks.cli + load_config
               + make_grid + build_solver + base_data (scorecard: import
               only), at the nominal core speed
  peak_rss_mb  peak resident memory of the workload's processes
The CPUs of a shared host change speed by tens of percent within seconds,
so the benchmark pins itself and its children to one CPU (the sweep: one
per pool worker), watches the speed of those CPUs with perfbench/speed.py
while each child runs, and scales the child's wall seconds to the nominal
speed.  The raw wall seconds are printed and recorded beside them.
fail_frac (iterations whose outputs failed a gate) is printed, and carried
in the `attempted` and `failed` fields of the result.

--trace 1 alternates untraced iterations with iterations run under
perfbench/traced.py and reports the per-layer metrics of perfbench/layers.py
(medians over traced iterations) plus trace.overhead_s, the traced minus
the untraced median wall_s.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is a JSON record of
provenance and per-iteration details.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import speed
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"

SETUP_REPEATS = 7
PROCESS_TIMEOUT_S = 150.0


@dataclass
class Iteration:
    traced: bool
    wall_s: float = 0.0  # at the nominal core speed
    raw_wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    exits: list = field(default_factory=list)
    stdout: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("RADKS_OUTPUT_ROOT", None)
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(argv: list[str], log_stem: Path, probe: speed.SpeedProbe):
    """(exit code, wall seconds, wall seconds at the nominal core speed,
    peak RSS in MB, stdout) of one child process.

    Peak RSS comes from wait4, which covers the child and every descendant
    it waited for (the sweep's pool workers).  A child still running after
    PROCESS_TIMEOUT_S is killed with its process group.
    """
    with open(f"{log_stem}.out", "w+") as out, open(f"{log_stem}.err", "w") as err:
        killer = threading.Timer(PROCESS_TIMEOUT_S, lambda: _kill_group(proc.pid))
        start = probe.mark()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=_child_env(), stdout=out, stderr=err, start_new_session=True
        )
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = probe.mark()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        wall = end[0] - start[0]
        nominal = wall * probe.factor(start, end)
        return proc.returncode, wall, nominal, usage.ru_maxrss / 1024.0, out.read()


def command_line(argv: list[str], spans_dir: Path | None) -> list[str]:
    if spans_dir is None:
        return [sys.executable, "-m", "radks.cli", *argv]
    return [sys.executable, str(BENCH / "traced.py"), str(spans_dir), *argv]


def run_iteration(
    plan: workloads.Plan, traced: bool, workdir: Path, probe: speed.SpeedProbe
) -> Iteration:
    shutil.rmtree(plan.outdir, ignore_errors=True)
    spans_dir = workdir / "spans" if traced else None
    if spans_dir is not None:
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
    it = Iteration(traced=traced)
    for k, argv in enumerate(plan.commands):
        code, wall, nominal, rss, stdout = run_process(
            command_line(argv, spans_dir), workdir / f"cmd{k}", probe
        )
        it.exits.append(code)
        it.stdout.append(stdout)
        it.wall_s += nominal
        it.raw_wall_s += wall
        it.peak_rss_mb = max(it.peak_rss_mb, rss)
    it.problems, it.info = workloads.check(plan, it.exits, it.stdout)
    if traced:
        it.layer = layers.layer_metrics(
            tracer.load_spans(spans_dir), plan.workers, it.info.get("check_s")
        )
    return it


def setup_seconds(plan: workloads.Plan, workdir: Path, probe: speed.SpeedProbe):
    """Set-up seconds of SETUP_REPEATS fresh processes: (at the nominal core
    speed, raw)."""
    argv = [sys.executable, str(BENCH / "setup_time.py")]
    if plan.config is not None:
        argv.append(str(plan.config))
    nominal, raw = [], []
    for _ in range(SETUP_REPEATS):
        code, wall, scaled, _, stdout = run_process(argv, workdir / "setup", probe)
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}: {(workdir / 'setup.err').read_text()}")
        seconds = float(stdout.strip().splitlines()[-1])
        raw.append(seconds)
        nominal.append(seconds * scaled / wall)
    return nominal, raw


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    # a checkout that is not itself a repository may sit inside another one
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "radks").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args, plan: workloads.Plan) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "inputs": plan.inputs,
        "commands": [command_line(argv, None) for argv in plan.commands],
        "traced_commands": [command_line(argv, Path("<spans>")) for argv in plan.commands]
        if args.trace else [],
    }


def measure(
    plan: workloads.Plan, seconds: float, trace: bool, workdir: Path, probe: speed.SpeedProbe
) -> list[Iteration]:
    """Iterate while another iteration would end less than half an iteration
    past `seconds` (at least one iteration).

    With trace on, iterations alternate untraced and traced, at least one
    of each.
    """
    iterations: list[Iteration] = []
    start = time.perf_counter()
    while True:
        it = run_iteration(plan, trace and len(iterations) % 2 == 1, workdir, probe)
        iterations.append(it)
        if any(code < 0 for code in it.exits):
            break  # killed: stop rather than overrun the run's time limit
        if trace and len(iterations) < 2:
            continue
        if time.perf_counter() - start + 0.5 * it.raw_wall_s > seconds:
            break
    return iterations


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def report(args, plan, iterations, setups, raw_setups, cpus) -> dict:
    walls = [it.wall_s for it in iterations if not it.traced]
    if args.trace:
        traced = [it for it in iterations if it.traced]
        metrics = layers.median_metrics([it.layer for it in traced])
        metrics["trace.overhead_s"] = (
            statistics.median(it.wall_s for it in traced) - statistics.median(walls)
        )
        units = layers.UNITS
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(it.peak_rss_mb for it in iterations),
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    failed = sum(bool(it.problems) for it in iterations)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"iterations={len(iterations)} ({len(walls)} untraced)")
    if not args.trace:
        raw_walls = [it.raw_wall_s for it in iterations if not it.traced]
        for name, values, raw in (
            ("wall_s", walls, raw_walls),
            ("setup_s", setups, raw_setups),
            ("peak_rss_mb", [it.peak_rss_mb for it in iterations], None),
        ):
            q1, q3 = _quartiles(values)
            print(f"  {name:<12s} median {metrics[name]:.6g} {units[name]}  "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"
                  + (f"  (raw median {statistics.median(raw):.6g})" if raw else ""))
    else:
        for name in sorted(metrics):
            print(f"  {name:<44s} {metrics[name]:.6g} {units[name]}")
    print(f"  {'fail_frac':<12s} {failed / len(iterations):g} ratio  ({failed}/{len(iterations)})")
    for k, it in enumerate(iterations):
        for problem in it.problems:
            print(f"  iteration {k} FAILED: {problem}")
    record = provenance(args, plan)
    record["iterations"] = [
        {"traced": it.traced, "wall_s": it.wall_s, "raw_wall_s": it.raw_wall_s,
         "peak_rss_mb": it.peak_rss_mb,
         "exits": it.exits, "problems": it.problems, "info": it.info}
        for it in iterations
    ]
    record["setup_s"] = setups
    record["raw_setup_s"] = raw_setups
    record["cpus"] = cpus
    record["speed_probe"] = {"nominal_s": speed.NOMINAL_S, "period_s": speed.PERIOD_S,
                             "loop": speed.LOOP}
    print("record " + json.dumps(record))
    return {
        "correct": failed == 0,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_workload(args) -> dict:
    """Run one workload pinned to one CPU per worker process; the children
    inherit the pinning and the speed probe watches those CPUs."""
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    allowed = os.sched_getaffinity(0)
    try:
        plan = workloads.plan(args.workload, args.seed, workdir)
        cpus = sorted(allowed)[: plan.workers]
        os.sched_setaffinity(0, cpus)
        with speed.SpeedProbe(cpus) as probe:
            setups, raw_setups = ([], []) if args.trace else setup_seconds(plan, workdir, probe)
            iterations = measure(plan, args.seconds, bool(args.trace), workdir, probe)
        return report(args, plan, iterations, setups, raw_setups, cpus)
    finally:
        os.sched_setaffinity(0, allowed)
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "radks" / "cli.py").is_file():
        print(f"error: no radks sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)

    if args.workload != "all":
        print(json.dumps(run_workload(args)))
        return 0
    # every workload in turn; the last line merges them as <workload>.<metric>
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        result = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        print(json.dumps(result))
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
