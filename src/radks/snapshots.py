"""File formats: snapshot, diagnostics, summary, probe, and sweep files.

Every file starts with a `# format_version=N` line.  Snapshots are
version 3 and hold the state alone: a short text header (the version
line, an optional `# t=<repr>` line, `# rows=<N>` and the column line
`r,u,v`), then the r, u and v columns, N raw little-endian float64
values each, in that order.  w, f and g are derived from (u, v) by
compute_energy, so they are not stored.  The raw bytes round-trip
bit-exactly, and identical runs produce byte-identical files.  Only
version 3 reads: the CSV snapshots of versions 2 and 1 are rejected,
and write_snapshot makes a version-3 file of any state.  A snapshot
carries no mesh header: Snapshot.fields reads it onto the grid the
caller's config built, after checking that the r column holds that
grid's cell centers, so graded and uniform meshes read back alike.
This module also owns the snapshot file names: run_snapshot_name,
FINAL_SNAPSHOT_NAME, family_snapshot_name and run_snapshots.

Every other file is version-1 text, floats in shortest round-trip
decimal (Python repr): CSV, and summary.txt with one `key=value` line
per entry of the run's record (write_summary).  Diagnostics rows are
flushed as written; a killed run leaves a parseable prefix.
read_diagnostics reads them back as a Trajectory of those seven columns,
bit-equal to the run's.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .dynamics import Trajectory
from .errors import SnapshotFormatError
from .grid import Grid, RadialField

__all__ = [
    "FORMAT_VERSION",
    "SNAPSHOT_FORMAT_VERSION",
    "Snapshot",
    "write_snapshot",
    "read_snapshot",
    "run_snapshot_name",
    "FINAL_SNAPSHOT_NAME",
    "family_snapshot_name",
    "run_snapshots",
    "DiagnosticsWriter",
    "DIAGNOSTICS_COLUMNS",
    "read_diagnostics",
    "write_probe_rows",
    "PROBE_COLUMNS",
    "write_summary",
    "format_float",
]

FORMAT_VERSION = 1
SNAPSHOT_FORMAT_VERSION = 3
SNAPSHOT_COLUMNS = ["r", "u", "v"]
_SNAPSHOT_VERSION_LINE = f"# format_version={SNAPSHOT_FORMAT_VERSION}\n".encode()
_SNAPSHOT_COLUMN_LINE = (",".join(SNAPSHOT_COLUMNS) + "\n").encode()
_SNAPSHOT_DTYPE = np.dtype("<f8")
_SNAPSHOT_SUFFIX = ".snap"
FINAL_SNAPSHOT_NAME = "snapshot_final" + _SNAPSHOT_SUFFIX
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


def run_snapshot_name(step: int) -> str:
    """File name of the state simulate writes after `step` steps."""
    return f"snapshot_{step:08d}{_SNAPSHOT_SUFFIX}"


def family_snapshot_name(index: int) -> str:
    """File name of the family verb's `index`-th scan member."""
    return f"snapshot_eta_{index:02d}{_SNAPSHOT_SUFFIX}"


def run_snapshots(folder) -> list[Path]:
    """The run snapshots simulate wrote into folder: the step states in
    step order, then the final one.  Other files there, the family
    verb's scan members among them, are not listed."""
    folder = Path(folder)
    paths = sorted(folder.glob("snapshot_" + "[0-9]" * 8 + _SNAPSHOT_SUFFIX))
    final = folder / FINAL_SNAPSHOT_NAME
    return paths + [final] if final.is_file() else paths


def write_snapshot(
    path, grid: Grid, u: RadialField, v: RadialField, t: Optional[float] = None
) -> None:
    """Write the state (u, v) on grid: the text header, then the r, u and
    v columns as raw little-endian float64.

    One writev call hands the header and each column's own buffer to the
    kernel: a snapshot costs system calls and the file's creation, not
    its bytes, so no buffer or copy stands between.
    """
    header = _SNAPSHOT_VERSION_LINE
    if t is not None:
        header += f"# t={format_float(t)}\n".encode()
    header += f"# rows={grid.N}\n".encode() + _SNAPSHOT_COLUMN_LINE
    columns = [
        np.ascontiguousarray(c, dtype=_SNAPSHOT_DTYPE) for c in (grid.centers, u.values, v.values)
    ]
    size = len(header) + sum(c.nbytes for c in columns)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        written = os.writev(fd, [header, *columns])
    finally:
        os.close(fd)
    if written != size:
        raise OSError(f"{path}: wrote {written} of {size} bytes")


def read_snapshot(path) -> Snapshot:
    """Read a version-3 snapshot: the header lines, then 3 * rows float64
    values.  Any other first line, the CSV snapshots of versions 2 and 1
    among them, is a SnapshotFormatError."""
    path = Path(path)
    data = path.read_bytes()
    if not data.startswith(_SNAPSHOT_VERSION_LINE):
        first = data.split(b"\n", 1)[0].decode(errors="replace").strip()
        raise SnapshotFormatError(
            f"{path}: expected '# format_version={SNAPSHOT_FORMAT_VERSION}' "
            f"on the first line, got {first!r}"
        )
    end = data.find(b"\n" + _SNAPSHOT_COLUMN_LINE)
    if end < 0:
        raise SnapshotFormatError(f"{path}: no column line {SNAPSHOT_COLUMNS} after the header")
    lines = data[len(_SNAPSHOT_VERSION_LINE):end + 1].decode(errors="replace").splitlines()
    if not all(line.startswith("#") for line in lines):
        raise SnapshotFormatError(f"{path}: header lines must start with '#', got {lines}")
    fields = {}
    for line in lines:
        key, _, value = line[1:].partition("=")
        fields[key.strip()] = value.strip()
    t = None
    if "t" in fields:
        try:
            t = float(fields["t"])
        except ValueError as exc:
            raise SnapshotFormatError(f"{path}: malformed t line '# t={fields['t']}'") from exc
    try:
        rows = int(fields["rows"])
    except (KeyError, ValueError) as exc:
        raise SnapshotFormatError(
            f"{path}: expected a '# rows=<count>' header line, got {lines}"
        ) from exc
    if rows < 1:
        raise SnapshotFormatError(f"{path}: snapshot has no data rows")
    start = end + 1 + len(_SNAPSHOT_COLUMN_LINE)
    expected = len(SNAPSHOT_COLUMNS) * rows * _SNAPSHOT_DTYPE.itemsize
    if len(data) - start != expected:
        raise SnapshotFormatError(
            f"{path}: body holds {len(data) - start} bytes, but {rows} rows of "
            f"{SNAPSHOT_COLUMNS} as float64 take {expected}"
        )
    # read-only views of data; Snapshot.fields copies them into the fields
    r, u, v = np.frombuffer(data, dtype=_SNAPSHOT_DTYPE, offset=start).reshape(3, rows)
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


def read_diagnostics(path) -> Trajectory:
    """The diagnostics rows as a Trajectory over DIAGNOSTICS_COLUMNS,
    parsed through read_table."""
    header, rows = read_table(path)
    if header != DIAGNOSTICS_COLUMNS:
        raise SnapshotFormatError(f"{path}: expected header {DIAGNOSTICS_COLUMNS}, got {header}")
    out = Trajectory(DIAGNOSTICS_COLUMNS)
    for row in rows:
        try:  # a non-number fails float, a ragged row fails append
            out.append([float(x) for x in row])
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
    if x is None:
        return ""
    if isinstance(x, Enum):
        return x.value
    return format_float(x) if isinstance(x, float) else x


def write_table(path, columns: list[str], rows: Iterable[Iterable]) -> None:
    """Versioned CSV of the family, sweep and probe outputs: floats in
    round-trip repr, bools true/false, None an empty cell, an enum its value."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        handle.write(_version_line())
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(x) for x in row])


def write_summary(path, record: dict) -> None:
    """summary.txt: the version line, then `key=value` per entry, valued as write_table's cells."""
    with Path(path).open("w") as handle:
        handle.write(_version_line())
        handle.writelines(f"{key}={_cell(value)}\n" for key, value in record.items())


def read_table(path) -> tuple[list[str], list[list[str]]]:
    """(header, nonblank rows) of a versioned CSV; header is None when absent."""
    path = Path(path)
    with path.open() as handle:
        _check_version(handle.readline(), path)
        reader = csv.reader(handle)
        header = next(reader, None)
        return header, [row for row in reader if row]
