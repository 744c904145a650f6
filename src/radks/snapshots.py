"""File formats: snapshot, diagnostics, probe, and sweep CSVs.

Every file starts with a `# format_version=N` line.  Snapshots are
version 2 and hold the state alone: columns r,u,v, one row per cell
center.  w, f and g are derived from (u, v) by compute_energy, so they
are not stored; a version-1 snapshot (r,u,v,w,f,g) still reads, its
last three columns parsed and dropped.  Every other file is version 1.
Floats are written with shortest round-trip decimal formatting (Python
repr), so snapshots round-trip bit-exactly and identical runs produce
byte-identical files.  Diagnostics rows are flushed as they are written;
a killed run leaves a parseable prefix.
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
    "SNAPSHOT_FORMAT_VERSION",
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
SNAPSHOT_FORMAT_VERSION = 2
SNAPSHOT_COLUMNS = ["r", "u", "v"]
# the column header under each readable snapshot version line; the reader
# keeps r,u,v and drops version 1's w,f,g
_SNAPSHOT_HEADERS = {
    f"# format_version={SNAPSHOT_FORMAT_VERSION}": SNAPSHOT_COLUMNS,
    "# format_version=1": ["r", "u", "v", "w", "f", "g"],
}
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
    t: Optional[float] = None

    def on_grid(self, grid: Grid) -> bool:
        """True when the r column holds grid's cell centers; the tolerance
        only absorbs the round-off of a grid rebuilt from the column."""
        return self.r.shape == grid.centers.shape and bool(
            np.allclose(self.r, grid.centers, rtol=1e-13, atol=0.0)
        )


def write_snapshot(
    path, grid: Grid, u: RadialField, v: RadialField, t: Optional[float] = None
) -> None:
    """Write the state (u, v), one row per cell center."""
    path = Path(path)
    columns = (grid.centers, u.values, v.values)
    with path.open("w", newline="") as handle:
        handle.write(f"# format_version={SNAPSHOT_FORMAT_VERSION}\n")
        if t is not None:
            handle.write(f"# t={format_float(t)}\n")
        # blocks of repr'd values in csv's default CRLF dialect: memory stays flat in N
        handle.write(",".join(SNAPSHOT_COLUMNS) + "\r\n")
        for start in range(0, grid.N, _SNAPSHOT_BLOCK_ROWS):
            block = slice(start, start + _SNAPSHOT_BLOCK_ROWS)
            cells = (map(repr, c[block].tolist()) for c in columns)
            handle.write("".join(",".join(row) + "\r\n" for row in zip(*cells)))


def read_snapshot(path) -> Snapshot:
    """Read a version-2 (r,u,v) or version-1 (r,u,v,w,f,g) snapshot."""
    path = Path(path)
    with path.open() as handle:
        lines = handle.read().splitlines()
    first = lines[0].strip() if lines else ""
    columns = _SNAPSHOT_HEADERS.get(first)
    if columns is None:
        raise SnapshotFormatError(
            f"{path}: expected '# format_version={SNAPSHOT_FORMAT_VERSION}' "
            f"(or 1) on the first line, got {first!r}"
        )
    t = None
    pos = 1
    while pos < len(lines) and lines[pos].startswith("#"):
        key, _, value = lines[pos][1:].strip().partition("=")
        if key.strip() == "t":
            try:
                t = float(value)
            except ValueError as exc:
                raise SnapshotFormatError(f"{path}: malformed t line {lines[pos]!r}") from exc
        pos += 1
    header = lines[pos].split(",") if pos < len(lines) else None
    if header != columns:
        raise SnapshotFormatError(f"{path}: expected header {columns}, got {header}")
    rows = lines[pos + 1:]
    if not any(rows):
        raise SnapshotFormatError(f"{path}: snapshot has no data rows")
    try:  # a ragged row or a non-number fails the parse; blank lines are skipped
        data = np.loadtxt(rows, delimiter=",", ndmin=2, comments=None)
    except ValueError as exc:
        raise SnapshotFormatError(f"{path}: malformed numeric data ({exc})") from exc
    if data.shape[1] != len(columns):
        raise SnapshotFormatError(
            f"{path}: rows have {data.shape[1]} fields, expected {len(columns)}"
        )
    r, u, v = np.ascontiguousarray(data[:, :3].T)
    return Snapshot(r=r, u=u, v=v, t=t)


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
