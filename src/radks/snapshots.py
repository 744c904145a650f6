"""File formats: snapshot, diagnostics, probe, and sweep CSVs.

Every file starts with a `# format_version=N` line.  Snapshots are
version 2 and hold the state alone: columns r,u,v, one row per cell
center.  w, f and g are derived from (u, v) by compute_energy, so they
are not stored; a version-1 snapshot (r,u,v,w,f,g) still reads, its
last three columns parsed and dropped.  A snapshot carries no mesh
header: Snapshot.fields reads it onto the grid the caller's config
built, after checking that the r column holds that grid's cell centers,
so graded and uniform meshes read back alike.  Every other file is
version 1.  Floats are written with shortest round-trip decimal
formatting (Python repr), so snapshots round-trip bit-exactly and
identical runs produce byte-identical files.  Diagnostics rows are
flushed as they are written; a killed run leaves a parseable prefix.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache
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
    path: Path
    r: np.ndarray
    u: np.ndarray
    v: np.ndarray
    t: Optional[float] = None

    def fields(self, grid: Grid) -> tuple[RadialField, RadialField]:
        """(u, v) on grid; raises SnapshotFormatError unless the r column
        holds grid's cell centers.

        The column round-trips bit-exactly, so a snapshot written on the
        same mesh matches exactly; the tolerance only forgives last-bit
        differences in centers that another math library computed for
        the same (n, R, N, h_min).
        """
        if self.r.shape != grid.centers.shape or not np.allclose(
            self.r, grid.centers, rtol=1e-13, atol=0.0
        ):
            raise SnapshotFormatError(
                f"{self.path}: mesh mismatch: the r column ({len(self.r)} rows) is not "
                f"the cell centers of the configured mesh (n={grid.n}, R={grid.R:g}, "
                f"N={grid.N}, h_min={grid.h_min:g})"
            )
        return RadialField(self.u, grid), RadialField(self.v, grid)


def write_snapshot(
    path, grid: Grid, u: RadialField, v: RadialField, t: Optional[float] = None
) -> None:
    """Write the state (u, v), one row per cell center."""
    path = Path(path)
    r_blocks = _rendered_centers(grid.centers.tobytes())
    with path.open("w", newline="") as handle:
        handle.write(f"# format_version={SNAPSHOT_FORMAT_VERSION}\n")
        if t is not None:
            handle.write(f"# t={format_float(t)}\n")
        # blocks of repr'd values in csv's default CRLF dialect: memory stays flat in N
        handle.write(",".join(SNAPSHOT_COLUMNS) + "\r\n")
        for start, r_text in zip(range(0, grid.N, _SNAPSHOT_BLOCK_ROWS), r_blocks):
            block = slice(start, start + _SNAPSHOT_BLOCK_ROWS)
            cells = (map(repr, c[block].tolist()) for c in (u.values, v.values))
            rows = zip(r_text.split(","), *cells)
            handle.write("".join(",".join(row) + "\r\n" for row in rows))


@lru_cache(maxsize=1)
def _rendered_centers(centers: bytes) -> tuple[str, ...]:
    """The r column as text, given the float64 bytes of grid.centers: one
    string per block of rows, the repr of each center joined by commas.

    Every snapshot of a run repeats the same r column, so it is rendered
    once per mesh; keyed by the column's bytes, the cached text is the
    text a fresh rendering would give, and one string per block holds it
    in a quarter of the memory of one string per value.
    """
    r = np.frombuffer(centers).tolist()
    return tuple(
        ",".join(map(repr, r[start:start + _SNAPSHOT_BLOCK_ROWS]))
        for start in range(0, len(r), _SNAPSHOT_BLOCK_ROWS)
    )


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
    return Snapshot(path=path, r=r, u=u, v=v, t=t)


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
    """Diagnostics rows as {column: float}, parsed through read_table."""
    header, rows = read_table(path)
    if header != DIAGNOSTICS_COLUMNS:
        raise SnapshotFormatError(f"{path}: expected header {DIAGNOSTICS_COLUMNS}, got {header}")
    out = []
    for row in rows:
        try:  # a ragged row fails zip, a non-number fails float
            out.append(dict(zip(header, map(float, row), strict=True)))
        except ValueError as exc:
            raise SnapshotFormatError(f"{path}: malformed row {row!r}") from exc
    return out


def write_probe_rows(path, rows: Iterable) -> None:
    """Probe report CSV: probe,param,sample,lhs,rhs_free,implied_C,hard_pass."""
    write_table(path, PROBE_COLUMNS, (
        [r.name, r.param, r.sample, r.lhs, r.rhs_free, r.implied_c, r.hard_pass]
        for r in rows
    ))


def _cell(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    return format_float(x) if isinstance(x, float) else x


def write_table(path, columns: list[str], rows: Iterable[Iterable]) -> None:
    """Versioned CSV of the family, sweep and probe outputs: floats in
    round-trip repr, bools as true/false, None as an empty cell."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        handle.write(_version_line())
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(x) for x in row])


def read_table(path) -> tuple[list[str], list[list[str]]]:
    """(header, nonblank rows) of a versioned CSV; header is None when absent."""
    path = Path(path)
    with path.open() as handle:
        _check_version(handle.readline(), path)
        reader = csv.reader(handle)
        header = next(reader, None)
        return header, [row for row in reader if row]
