"""Parallel parameter sweeps over simulate runs.

Axes come from the [sweep] config section (dotted keys, comma-separated
values).  Every parameter point is an independent run in its own output
subdirectory; failures are recorded per row and never abort the sweep.
Rows are emitted in sorted parameter order, so the result CSV is
byte-identical for any worker count.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .errors import ConfigurationError

__all__ = ["SWEEP_COLUMNS", "expand_axes", "run_sweep"]

SWEEP_COLUMNS_FIXED = [
    "status",
    "t_out",
    "peak_sup",
    "F0",
    "min_F",
    "max_C_fd",
    "max_C_w",
    "max_C_v",
]


def SWEEP_COLUMNS(axes: dict) -> list[str]:
    return [f"param:{k}" for k in sorted(axes)] + SWEEP_COLUMNS_FIXED


def expand_axes(axes: dict) -> list[tuple[tuple[str, str], ...]]:
    """Cartesian product of axis values, deterministically ordered."""
    if not axes:
        raise ConfigurationError("sweep requires a nonempty [sweep] section")
    keys = sorted(axes)
    points = []
    for combo in itertools.product(*(axes[k] for k in keys)):
        points.append(tuple(zip(keys, combo)))
    return points


def _point_slug(point) -> str:
    return "_".join(f"{k.split('.')[-1]}={v}" for k, v in point)


def _run_point(args):
    """Worker: one simulate run for one parameter point."""
    config_path, base_overrides, point, run_dir = args
    from .cli import simulate_run
    from .config import load_config

    overrides = list(base_overrides) + [f"{k}={v}" for k, v in point] + [
        f"run.outdir={run_dir}"
    ]
    try:
        cfg = load_config(config_path, overrides)
        summary, extras = simulate_run(cfg)
        return point, [
            summary.status.value,
            float(summary.t_final),
            float(summary.peak_sup),
            float(summary.F0),
            float(summary.min_F),
            float(extras["max_C_fd"]),
            float(extras["max_C_w"]),
            float(extras["max_C_v"]),
        ]
    except Exception as exc:  # recorded, never fatal to the sweep
        # a rejected config gives its keyed violations on one line, without its path
        problems = getattr(exc, "problems", None)
        detail = "; ".join(f"{k}: {m}" for k, m in problems.items()) if problems else exc
        return point, [f"error: {type(exc).__name__}: {detail}", "", "", "", "", "", "", ""]


def run_sweep(config_path, base_overrides, axes: dict, outdir: Path, workers: int):
    """Run every point, return (columns, rows sorted by parameter tuple)."""
    points = expand_axes(axes)
    outdir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for point in points:
        run_dir = outdir / _point_slug(point)
        jobs.append((str(config_path), tuple(base_overrides), point, str(run_dir)))

    if workers <= 1:
        results = [_run_point(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_point, jobs))

    results.sort(key=lambda item: item[0])
    columns = SWEEP_COLUMNS(axes)
    rows = []
    for point, payload in results:
        rows.append([v for _, v in point] + payload)
    return columns, rows
