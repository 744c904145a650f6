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

__all__ = ["run_sweep"]

# sweep.csv's columns after the parameters, each with the entry of the
# point's summary.txt record it holds
_COLUMNS = {
    "status": "status", "t_out": "t_final", "peak_sup": "peak_sup", "F0": "F0",
    "min_F": "min_F", "max_C_fd": "max_C_fd", "max_C_w": "max_C_w", "max_C_v": "max_C_v",
}


def _point_slug(point) -> str:
    return "_".join(f"{k.split('.')[-1]}={v}" for k, v in point)


def _run_point(args):
    """Worker: one simulate run for one parameter point, and its cells."""
    config_path, base_overrides, point, run_dir = args
    from .cli import simulate_run
    from .config import load_config

    overrides = [*base_overrides, *(f"{k}={v}" for k, v in point), f"run.outdir={run_dir}"]
    try:
        cfg = load_config(config_path, overrides)
        _, record = simulate_run(cfg)
        return point, [record[key] for key in _COLUMNS.values()]
    except Exception as exc:  # recorded, never fatal to the sweep
        # a rejected config gives its keyed violations on one line, without its path
        problems = getattr(exc, "problems", None)
        detail = "; ".join(f"{k}: {m}" for k, m in problems.items()) if problems else exc
        return point, [f"error: {type(exc).__name__}: {detail}"] + [None] * (len(_COLUMNS) - 1)


def run_sweep(config_path, base_overrides, axes: dict, outdir: Path, workers: int):
    """Run every point of the axes' cartesian product, return (columns,
    rows sorted by parameter tuple)."""
    if not axes:
        raise ConfigurationError("sweep requires a nonempty [sweep] section")
    keys = sorted(axes)
    points = [tuple(zip(keys, combo)) for combo in itertools.product(*(axes[k] for k in keys))]
    outdir.mkdir(parents=True, exist_ok=True)
    jobs = [
        (str(config_path), tuple(base_overrides), point, str(outdir / _point_slug(point)))
        for point in points
    ]

    if workers <= 1:
        results = [_run_point(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_point, jobs))

    results.sort(key=lambda item: item[0])
    columns = [f"param:{k}" for k in keys] + list(_COLUMNS)
    return columns, [[v for _, v in point] + cells for point, cells in results]
