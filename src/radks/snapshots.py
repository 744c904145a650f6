"""File formats: snapshot, diagnostics, probe, and sweep CSVs.

Every file starts with a `# format_version=1` line.  Floats are written
with shortest round-trip decimal formatting (Python repr), so snapshots
round-trip bit-exactly and identical runs produce byte-identical files.
Diagnostics rows are flushed as they are written; a killed run leaves a
parseable prefix.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .errors import SnapshotFormatError
from .grid import Grid, RadialField

__all__ = [
    "FORMAT_VERSION",
    "Snapshot",
    "write_snapshot",
    "read_snapshot",
    "DiagnosticsWriter",
    "DIAGNOSTICS_COLUMNS",
    "read_diagnostics",
    "write_probe_rows",
    "PROBE_COLUMNS",
    "format_float",
]

FORMAT_VERSION = 1
SNAPSHOT_COLUMNS = ["r", "u", "v", "w", "f", "g"]
_SNAPSHOT_BLOCK_ROWS = 256
DIAGNOSTICS_COLUMNS = ["t", "dt", "mass", "sup_u", "F", "D", "identity_residual"]
PROBE_COLUMNS = ["probe", "param", "sample", "lhs", "rhs_free", "implied_C", "hard_pass"]


def format_float(x: float) -> str:
    return repr(float(x))


def _version_line() -> str:
    return f"# format_version={FORMAT_VERSION}\n"


def _check_version(first_line: str, path) -> None:
    if first_line.strip() != f"# format_version={FORMAT_VERSION}":
        raise SnapshotFormatError(
            f"{path}: expected '# format_version={FORMAT_VERSION}' on the first line, "
            f"got {first_line.strip()!r}"
        )


@dataclass(frozen=True)
class Snapshot:
    r: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    f: np.ndarray
    g: np.ndarray
    t: Optional[float] = None

    def on_grid(self, grid: Grid) -> bool:
        """True when the r column holds grid's cell centers; the tolerance
        only absorbs the round-off of a grid rebuilt from the column."""
        return self.r.shape == grid.centers.shape and bool(
            np.allclose(self.r, grid.centers, rtol=1e-13, atol=0.0)
        )


def write_snapshot(
    path,
    grid: Grid,
    u: RadialField,
    v: RadialField,
    w: RadialField,
    f: RadialField,
    g_cells: np.ndarray,
    t: Optional[float] = None,
) -> None:
    """Write one profile per cell center.

    g is face-sampled by construction; the stored column carries the mean
    of the two adjacent face values so every column shares the r axis.
    """
    path = Path(path)
    columns = (grid.centers, u.values, v.values, w.values, f.values,
               RadialField(g_cells, grid).values)
    with path.open("w", newline="") as handle:
        handle.write(_version_line())
        if t is not None:
            handle.write(f"# t={format_float(t)}\n")
        # blocks of repr'd values in csv's default CRLF dialect: memory stays flat in N
        handle.write(",".join(SNAPSHOT_COLUMNS) + "\r\n")
        for start in range(0, grid.N, _SNAPSHOT_BLOCK_ROWS):
            block = slice(start, start + _SNAPSHOT_BLOCK_ROWS)
            cells = (map(repr, c[block].tolist()) for c in columns)
            handle.write("".join(",".join(row) + "\r\n" for row in zip(*cells)))


def read_snapshot(path) -> Snapshot:
    path = Path(path)
    t = None
    with path.open() as handle:
        first = handle.readline()
        _check_version(first, path)
        pos = handle.tell()
        line = handle.readline()
        while line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            if key.strip() == "t":
                t = float(value)
            pos = handle.tell()
            line = handle.readline()
        handle.seek(pos)
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != SNAPSHOT_COLUMNS:
            raise SnapshotFormatError(
                f"{path}: expected header {SNAPSHOT_COLUMNS}, got {header}"
            )
        rows = [row for row in reader if row]
    if not rows:
        raise SnapshotFormatError(f"{path}: snapshot has no data rows")
    try:  # a ragged row or a wrong column count fails the conversion or the unpacking
        r, u, v, w, f, g = np.array(rows, dtype=float).T.copy()
    except (TypeError, ValueError) as exc:
        raise SnapshotFormatError(f"{path}: malformed numeric data ({exc})") from exc
    return Snapshot(r=r, u=u, v=v, w=w, f=f, g=g, t=t)


class DiagnosticsWriter:
    """Row-flushed writer for the trajectory diagnostics CSV."""

    def __init__(self, path):
        self._handle = Path(path).open("w", newline="")
        self._handle.write(_version_line())
        self._writer = csv.writer(self._handle)
        self._writer.writerow(DIAGNOSTICS_COLUMNS)
        self._handle.flush()

    def write(self, sample) -> None:
        self._writer.writerow([format_float(getattr(sample, c)) for c in DIAGNOSTICS_COLUMNS])
        self._handle.flush()

    def close(self) -> None:
        self._handle.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def read_diagnostics(path) -> list[dict]:
    path = Path(path)
    with path.open() as handle:
        first = handle.readline()
        _check_version(first, path)
        reader = csv.DictReader(handle)
        if reader.fieldnames != DIAGNOSTICS_COLUMNS:
            raise SnapshotFormatError(
                f"{path}: expected header {DIAGNOSTICS_COLUMNS}, got {reader.fieldnames}"
            )
        out = []
        for row in reader:
            try:
                out.append({k: float(v) for k, v in row.items()})
            except (TypeError, ValueError) as exc:
                raise SnapshotFormatError(f"{path}: malformed row {row!r}") from exc
    return out


def write_probe_rows(path, rows: Iterable) -> None:
    """Probe report CSV: probe,param,sample,lhs,rhs_free,implied_C,hard_pass."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        handle.write(_version_line())
        writer = csv.writer(handle)
        writer.writerow(PROBE_COLUMNS)
        for row in rows:
            hard = "" if row.hard_pass is None else str(bool(row.hard_pass)).lower()
            writer.writerow(
                [
                    row.name,
                    "" if row.param is None else format_float(row.param),
                    "" if row.sample is None else format_float(row.sample),
                    format_float(row.lhs),
                    format_float(row.rhs_free),
                    format_float(row.implied_c),
                    hard,
                ]
            )


def write_table(path, columns: list[str], rows: Iterable[Iterable]) -> None:
    """Generic versioned CSV used by the family and sweep outputs."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        handle.write(_version_line())
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                [format_float(x) if isinstance(x, float) else x for x in row]
            )


def read_table(path) -> tuple[list[str], list[list[str]]]:
    path = Path(path)
    with path.open() as handle:
        first = handle.readline()
        _check_version(first, path)
        reader = csv.reader(handle)
        header = next(reader)
        return header, [row for row in reader if row]
