"""Cell-centered radial finite-volume mesh and discrete operators.

The mesh covers the ball of radius R in n space dimensions with N
radial cells, either uniform (faces at i*R/N) or geometrically graded
towards the origin (cell widths h_min q^i, with the ratio q fixed by
requiring the N cells to fill (0, R]).  r = 0 is a face and never a
sample point, which sidesteps the (n-1)/r singularity.  Every operator
reads the mesh through per-face spacings (the distance between the
centers on either side of a face), so uniform and graded meshes share
one code path.  All differential operators are written in flux form;
the no-flux boundary conditions and the discrete divergence theorem
then hold by telescoping.

A field's values never change: the RadialField constructor copies them
into a read-only array, and _adopt makes read-only an array that only
the new field holds.  So a value derived from one can be kept on it,
read-only.  Four are, because a later call reads them again: a field's
gradient_faces, a density's w = (I - L)^{-1} u (radks.helmholtz._kept_w),
and a grid's face_power and dt-bound constant (radks.dynamics).  A kept
value lives as long as its holder; two threads that miss at once compute
equal values, and one is kept.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, GridMismatchError

__all__ = [
    "Grid",
    "RadialField",
    "unit_sphere_area",
    "make_grid",
    "constant_field",
    "field_from_function",
    "integrate",
    "sup_norm",
    "face_means",
    "gradient_faces",
    "laplacian",
]


def unit_sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n (2 pi^{n/2} / Gamma(n/2)).

    Evaluated through the log-Gamma function so large n stays finite.
    """
    return math.exp(math.log(2.0) + 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)  # copy, so the caller's buffer stays writable
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Grid:
    """Cell-centered radial mesh on (0, R], uniform or graded.

    h is the largest cell width and h_min the smallest; both equal R/N
    on a uniform mesh.  spacing[i] is the width of the dual cell around
    face i: the distance between the neighbouring centers at interior
    faces, and the half-cell distance to the nearest center at r = 0 and
    r = R.  Face gradients divide by it and face quadratures weight by
    face_weights = face_areas * spacing.

    Immutable after construction, apart from face_power's cache of
    powers of r, filled on first use; safe to share between threads.
    """

    n: int
    R: float
    N: int
    h: float
    h_min: float
    faces: np.ndarray        # r_{i+1/2}, length N+1, faces[0] = 0, faces[N] = R
    centers: np.ndarray      # r_i = (r_{i-1/2} + r_{i+1/2})/2, length N
    spacing: np.ndarray      # dual-cell widths, length N+1
    volumes: np.ndarray      # V_i = omega_n (r_{i+1/2}^n - r_{i-1/2}^n)/n
    face_areas: np.ndarray   # A_{i+1/2} = omega_n r_{i+1/2}^{n-1}
    coupling: np.ndarray     # A / spacing at the interior faces, length N-1
    face_weights: np.ndarray # A * spacing, the face quadrature weights, length N+1
    omega_n: float
    ball_volume: float       # omega_n R^n / n

    def same_as(self, other: "Grid") -> bool:
        # make_grid is deterministic in (n, R, N, h_min), so these four
        # fix the faces; h_min separates a graded mesh from a uniform one
        return self is other or (
            self.n == other.n
            and self.N == other.N
            and self.R == other.R
            and self.h_min == other.h_min
        )

    @cached_property
    def _face_powers(self) -> dict:
        return {}

    def face_power(self, p: float) -> np.ndarray:
        """r^p at the N-1 interior faces, read-only.

        Computed once per exponent and kept on this grid, so a probe that
        weights every sample of a run by the same power pays for it once.
        """
        powers = self._face_powers
        if p not in powers:
            powers[p] = _readonly(self.faces[1:-1] ** p)
        return powers[p]


def _log_expm1(x):
    """log(e^x - 1) for x > 0 without overflow."""
    return x + np.log(-np.expm1(-x))


def _graded_faces(R: float, N: int, h_min: float) -> np.ndarray:
    """Faces R (q^i - 1)/(q^N - 1) with q solved so the first width is h_min.

    The width ratio q = e^s follows from (e^{Ns} - 1)/(e^s - 1) = R/h_min,
    whose left side increases from N (as s -> 0) without bound; it is
    bisected in s, with logarithms throughout so tiny h_min cannot
    overflow.
    """
    target = math.log(R / h_min)

    def log_ratio(s: float) -> float:
        return float(_log_expm1(N * s) - _log_expm1(s))

    lo, hi = 0.0, 1.0
    while log_ratio(hi) < target:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if log_ratio(mid) < target:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    faces = np.zeros(N + 1)
    i = np.arange(1, N + 1, dtype=float)
    faces[1:] = R * np.exp(_log_expm1(i * s) - _log_expm1(N * s))
    faces[N] = R  # exact boundary face, whatever the last ulp of the exponentials
    return faces


def make_grid(n: int, R: float, N: int, h_min: float | None = None) -> Grid:
    """Build the radial mesh; rejects n < 2, N < 4 and nonpositive R.

    With h_min (0 < h_min < R/N) the cell widths grow geometrically from
    h_min at the origin; without it the mesh is uniform with h = R/N.
    The innermost cell's volume omega_n h_min^n / n must be a normal
    float64, or the mesh is rejected keyed h_min (R when uniform).
    """
    problems = {}
    if not isinstance(n, (int, np.integer)) or n < 2:
        problems["n"] = f"dimension n must be an integer >= 2, got {n!r}"
    if not isinstance(N, (int, np.integer)) or N < 4:
        problems["N"] = f"cell count N must be an integer >= 4, got {N!r}"
    if not (isinstance(R, (int, float, np.floating)) and math.isfinite(R) and R > 0):
        problems["R"] = f"radius R must be a positive finite number, got {R!r}"
    if h_min is not None and not problems and not (
        isinstance(h_min, (int, float, np.floating)) and 0.0 < h_min < R / N
    ):
        problems["h_min"] = (
            f"smallest cell width h_min must lie in (0, R/N) = (0, {R / N:g}), got {h_min!r}"
        )
    if problems:
        raise ConfigurationError(problems=problems)

    n = int(n)
    N = int(N)
    R = float(R)
    omega = unit_sphere_area(n)
    # in logarithms, as the volume itself may underflow
    key, width = ("R", R / N) if h_min is None else ("h_min", float(h_min))
    log10_volume = math.log10(omega / n) + n * math.log10(width)
    if log10_volume < math.log10(sys.float_info.min):
        message = f"the smallest cell volume would be 10^{log10_volume:.1f}, not a normal float64"
        raise ConfigurationError(problems={key: message})
    if h_min is None:
        h = R / N
        faces = h * np.arange(N + 1, dtype=float)
        faces[N] = R  # exact boundary face, so r_{N+1/2} = R holds identically
        centers = h * (np.arange(1, N + 1, dtype=float) - 0.5)
        spacing = np.full(N + 1, h)
        spacing[[0, N]] = 0.5 * h
        h_min = h
    else:
        faces = _graded_faces(R, N, float(h_min))
        centers = 0.5 * (faces[:-1] + faces[1:])
        spacing = np.empty(N + 1)
        spacing[0] = centers[0]
        spacing[1:-1] = np.diff(centers)
        spacing[N] = R - centers[-1]
        widths = np.diff(faces)
        h, h_min = float(np.max(widths)), float(widths[0])
    # Volumes as differences of the cumulative ball volume: their exact sum
    # telescopes to omega_n R^n / n.
    cumulative = (omega / n) * faces**n
    volumes = np.diff(cumulative)
    face_areas = omega * faces ** (n - 1)
    return Grid(
        n=n,
        R=R,
        N=N,
        h=h,
        h_min=h_min,
        faces=_readonly(faces),
        centers=_readonly(centers),
        spacing=_readonly(spacing),
        volumes=_readonly(volumes),
        face_areas=_readonly(face_areas),
        coupling=_readonly(face_areas[1:-1] / spacing[1:-1]),
        face_weights=_readonly(face_areas * spacing),
        omega_n=omega,
        ball_volume=float(cumulative[-1]),
    )


@dataclass(frozen=True, eq=False)
class RadialField:
    """One scalar unknown sampled at cell centers.

    values is a read-only copy of the array passed in, so it stays what
    it was at construction.  That lets the field keep its face gradient,
    and a density its w, computed on first use (see the module docstring).
    """

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        values = _readonly(self.values)
        if values.shape != (self.grid.N,):
            raise GridMismatchError(
                f"field has {values.shape[0] if values.ndim == 1 else values.shape} "
                f"values but the grid has {self.grid.N} cells"
            )
        object.__setattr__(self, "values", values)


def _adopt(values: np.ndarray, grid: Grid) -> RadialField:
    """RadialField over a fresh (N,) float array that no one else holds.

    Skips the defensive copy of the constructor: the array is only made
    read-only, so it must not be reachable from anywhere else.  A writer
    that kept it could change the values under the face gradient and w
    the field keeps.
    """
    values.setflags(write=False)
    field = object.__new__(RadialField)
    field.__dict__.update(values=values, grid=grid)
    return field


def constant_field(grid: Grid, value: float) -> RadialField:
    return RadialField(np.full(grid.N, float(value)), grid)


def field_from_function(grid: Grid, fn) -> RadialField:
    """Sample a radial profile fn(r) at the cell centers."""
    return RadialField(np.asarray([fn(r) for r in grid.centers], dtype=float), grid)


def integrate(field: RadialField) -> float:
    """Midpoint-rule integral over the ball, sum f_i V_i.

    NumPy's pairwise sum: deterministic, and accurate to round-off (a
    relative error of O(log N) ulps of sum |f_i| V_i).
    """
    return float(np.add.reduce(field.values * field.grid.volumes))


def sup_norm(field: RadialField) -> float:
    return float(np.abs(field.values).max())


def face_means(field: RadialField) -> np.ndarray:
    """Arithmetic mean of the two neighbouring cells at each interior face."""
    return 0.5 * (field.values[:-1] + field.values[1:])


def gradient_faces(field: RadialField) -> np.ndarray:
    """Face-sampled radial derivative, zero at r = 0 and r = R.

    Interior faces carry the difference (f_{i+1} - f_i)/(r_{i+1} - r_i),
    which on a uniform mesh is exact for quadratics; the boundary values
    encode symmetry at the origin and the homogeneous Neumann condition
    at r = R.  Kept on the field, read-only.
    """
    g = field.__dict__.get("_gradient_faces")
    if g is None:
        f = field.values
        g = np.zeros(field.grid.N + 1)
        inner = g[1:-1]
        np.subtract(f[1:], f[:-1], out=inner)
        inner /= field.grid.spacing[1:-1]
        g.setflags(write=False)
        field.__dict__["_gradient_faces"] = g
    return g


def _add_flux_divergence(out: np.ndarray, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Add to out_i the net face flux F_{i+1/2} - F_{i-1/2} of the cell values.

    F = weights * (f_{i+1} - f_i) at the N-1 interior faces and zero at
    r = 0 and r = R, so the additions telescope to zero.  With weights
    A / spacing (Grid.coupling) this is V_i (Lf)_i: the one face-flux
    kernel of the flux-form Laplacian, of (I - L) in the energy, and of
    the shifted solves' refinement, which passes beta A / spacing.
    """
    flux = np.subtract(values[1:], values[:-1])
    flux *= weights
    out[:-1] += flux
    out[1:] -= flux
    return out


def laplacian(field: RadialField) -> RadialField:
    """Flux-form radial Laplacian with zero-flux ends.

    (Lf)_i = [A_{i+1/2} g_{i+1/2} - A_{i-1/2} g_{i-1/2}] / V_i with g the
    face gradients.  Annihilates constants and has zero discrete mean for
    every field (fluxes telescope).
    """
    grid = field.grid
    div = _add_flux_divergence(np.zeros(grid.N), field.values, grid.coupling)
    return _adopt(np.divide(div, grid.volumes, out=div), grid)
