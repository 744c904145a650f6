"""Base initial data and the concentrated low-energy family.

The family adds to a positive base pair (u0, v0) a mollifier bump at
scale eta, with amplitudes chosen so the energy of the pair diverges to
-infinity as eta shrinks while the pair itself converges back to
(u0, v0) in weak norms.  The admissible range (0, eta_star) is fixed by
two smallness conditions on psi(eta) = eta^{n/2-2} (ln 1/eta)^{2 gamma};
they guarantee the perturbed density stays positive.

The bump is deposited by exact per-cell integration rather than point
sampling, and the flat compensating constant is replaced by the exact
discrete-mass corrector, so the integral of u is preserved exactly on
every grid, including grids much coarser than eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AdmissibilityError, ConfigurationError, ResolutionError
from .grid import Grid, RadialField, constant_field, integrate, laplacian
from .helmholtz import HelmholtzSolver, build_solver, solve
from .energy import EnergyReport, compute_energy

__all__ = [
    "MollifierSpec",
    "FamilyParams",
    "FamilyRow",
    "mollifier_spec",
    "mollifier_value",
    "eta_star",
    "bump_cell_fractions",
    "build_family",
    "family_energy_scan",
    "base_data",
    "bump_density",
    "w22_norm",
    "w22_distance",
    "l1_distance",
]


@dataclass(frozen=True)
class MollifierSpec:
    """Radially nonincreasing unit-mass bump supported in the unit ball."""

    n: int
    normalization: float  # c_n with omega_n int_0^1 phi r^{n-1} dr = 1


def _gauss_panels(a: float, b: float, panels: int = 8, order: int = 16):
    """Composite Gauss-Legendre nodes/weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        nodes.append(mid + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _profile(rho: np.ndarray) -> np.ndarray:
    out = np.zeros_like(rho)
    inside = rho < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - rho[inside] ** 2))
    return out


@lru_cache(maxsize=None)
def mollifier_spec(n: int) -> MollifierSpec:
    """Normalize exp(-1/(1-r^2)) on the unit ball of R^n to unit integral."""
    from .grid import unit_sphere_area

    nodes, weights = _gauss_panels(0.0, 1.0, panels=32, order=16)
    raw = float(np.sum(weights * _profile(nodes) * nodes ** (n - 1)))
    return MollifierSpec(n=n, normalization=1.0 / (unit_sphere_area(n) * raw))


def mollifier_value(spec: MollifierSpec, r: float) -> float:
    """c_n exp(-1/(1-r^2)) for r < 1, zero outside."""
    if r < 0:
        raise ConfigurationError(f"radius must be nonnegative, got {r}")
    if r >= 1.0:
        return 0.0
    return spec.normalization * math.exp(-1.0 / (1.0 - r * r))


def _psi(eta: float, n: int, gamma: float) -> float:
    """eta^{n/2-2} (ln 1/eta)^{2 gamma}, evaluated in log space."""
    s = -math.log(eta)
    return math.exp((0.5 * n - 2.0) * math.log(eta) + 2.0 * gamma * math.log(s))


def eta_star(
    iota: float, gamma: float, n: int, volume: float, cap: float = 1.0
) -> float:
    """Largest scale below which both smallness conditions hold.

    psi is increasing up to its interior peak and vanishes at 0, so the
    running supremum over (0, x) equals psi(x) on the increasing branch;
    the threshold is found by bisection in s = ln(1/eta).
    """
    problems = []
    if n < 5:
        problems.append(f"family construction needs n >= 5, got {n}")
    if not gamma > 1.0:
        problems.append(f"gamma must exceed 1, got {gamma}")
    if not iota > 0.0:
        problems.append(f"minimum density iota must be positive, got {iota}")
    if not volume > 0.0:
        problems.append(f"volume must be positive, got {volume}")
    if problems:
        raise ConfigurationError("; ".join(problems))
    cap = min(cap, 1.0 - 1e-12)

    bound = min(volume * iota, 0.5)
    power = 0.5 * n - 2.0
    s_peak = 2.0 * gamma / power

    def psi_s(s: float) -> float:
        return math.exp(2.0 * gamma * math.log(s) - power * s)

    if psi_s(max(s_peak, -math.log(cap))) < bound:
        return cap
    # Bisect psi(s) = bound on the decreasing-in-s branch (s > s_peak),
    # i.e. the increasing branch in eta.
    lo = max(s_peak, -math.log(cap))
    hi = lo
    while psi_s(hi) >= bound:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if psi_s(mid) >= bound:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return min(math.exp(-hi), cap)


@dataclass(frozen=True)
class FamilyParams:
    """Base pair plus the exponent and scale of the added bump."""

    u0: RadialField
    v0: RadialField
    gamma: float
    eta: float

    @property
    def iota(self) -> float:
        return float(np.min(self.u0.values))

    def __post_init__(self):
        problems = []
        if not self.gamma > 1.0:
            problems.append(f"gamma must exceed 1, got {self.gamma}")
        if not 0.0 < self.eta < 1.0:
            problems.append(f"eta must lie in (0, 1), got {self.eta}")
        if float(np.min(self.u0.values)) <= 0.0:
            problems.append("base density u0 must be strictly positive")
        if float(np.min(self.v0.values)) < 0.0:
            problems.append("base signal v0 must be nonnegative")
        if problems:
            raise ConfigurationError("; ".join(problems))


def bump_cell_fractions(grid: Grid, eta: float) -> np.ndarray:
    """Fraction of the unit bump mass inside each cell, by exact quadrature.

    Works on the reference scale rho = r/eta, so scales far below h are
    integrated as accurately as resolved ones.
    """
    spec = mollifier_spec(grid.n)
    fractions = np.zeros(grid.N)
    for i in range(grid.N):
        lo = grid.faces[i] / eta
        if lo >= 1.0:
            break
        hi = min(grid.faces[i + 1] / eta, 1.0)
        # panel count grows with the covered reference span, so a single
        # cell swallowing the whole bump is still integrated to round-off
        panels = max(4, min(64, int(64 * (hi - lo)) + 4))
        nodes, weights = _gauss_panels(lo, hi, panels=panels, order=16)
        fractions[i] = (
            grid.omega_n
            * spec.normalization
            * float(np.sum(weights * _profile(nodes) * nodes ** (grid.n - 1)))
        )
    return fractions


def build_family(
    params: FamilyParams, grid: Grid, strict_resolution: bool = False
) -> tuple[RadialField, RadialField]:
    """Construct the perturbed pair (u_eta, v_eta) on the given grid.

    The density bump carries total mass psi(eta); the matching flat
    subtraction is the exact discrete-mass corrector, so
    integrate(u_eta) == integrate(u0) to round-off.  With
    strict_resolution the bump must cover at least 8 cell centers;
    otherwise coarse grids receive the cell-averaged bump.
    """
    if not params.u0.grid.same_as(grid):
        raise ConfigurationError("base fields do not live on the target grid")
    n, gamma, eta = grid.n, params.gamma, params.eta
    star = eta_star(params.iota, gamma, n, grid.ball_volume, cap=min(1.0, grid.R))
    if eta >= star:
        raise AdmissibilityError(
            f"eta={eta:g} is not admissible: needs eta < eta_star={star:.6g}"
        )
    if eta >= grid.R:
        raise AdmissibilityError(f"bump scale eta={eta:g} must be interior to R={grid.R:g}")
    cells_inside = int(np.count_nonzero(grid.centers < eta))
    if strict_resolution and cells_inside < 8:
        raise ResolutionError(
            f"bump at eta={eta:g} covers {cells_inside} cell centers; "
            "at least 8 are required to resolve it"
        )

    fractions = bump_cell_fractions(grid, eta)
    s = -math.log(eta)
    u_amp = _psi(eta, n, gamma)  # total bump mass in u
    v_amp = math.exp((0.5 * n + 2.0) * math.log(eta) - gamma * math.log(s))
    u_bump = u_amp * fractions / grid.volumes
    v_bump = v_amp * fractions / grid.volumes

    corrector = math.fsum(u_bump * grid.volumes) / math.fsum(grid.volumes)
    u_eta = params.u0.values + u_bump - corrector
    if float(np.min(u_eta)) <= 0.0:
        raise AdmissibilityError(
            f"perturbed density is not positive (eta={eta:g} too large for this grid)"
        )
    v_eta = params.v0.values + v_bump
    return RadialField(u_eta, grid), RadialField(v_eta, grid)


@dataclass(frozen=True)
class FamilyRow:
    eta: float
    F: float
    mass: float
    min_u: float
    report: EnergyReport
    u: RadialField
    v: RadialField


def family_energy_scan(
    u0: RadialField,
    v0: RadialField,
    gamma: float,
    etas,
    grid: Grid,
    solver: HelmholtzSolver,
) -> list[FamilyRow]:
    """One energy row per requested scale, in the given order."""
    rows = []
    for eta in etas:
        params = FamilyParams(u0=u0, v0=v0, gamma=gamma, eta=float(eta))
        u_eta, v_eta = build_family(params, grid)
        rep = compute_energy(u_eta, v_eta, solver)
        rows.append(
            FamilyRow(
                eta=float(eta),
                F=rep.F,
                mass=integrate(u_eta),
                min_u=float(np.min(u_eta.values)),
                report=rep,
                u=u_eta,
                v=v_eta,
            )
        )
    return rows


def bump_density(r, baseline: float, amplitude: float, width: float):
    """The bump base density baseline + amplitude exp(-(r/width)^2) at radius (or radii) r."""
    return baseline + amplitude * np.exp(-((r / width) ** 2))


def base_data(
    kind: str, grid: Grid, solver: HelmholtzSolver | None = None, **params
) -> tuple[RadialField, RadialField]:
    """Positive radial base pairs: constant, bump, or a snapshot file.

    solver, a HelmholtzSolver on grid, serves the relaxed bump's solves;
    one is built when it is not given.
    """
    if kind == "constant":
        value = float(params.get("value", 1.0))
        if value <= 0.0:
            raise AdmissibilityError(f"constant base value must be positive, got {value}")
        return constant_field(grid, value), constant_field(grid, value)
    if kind == "bump":
        baseline = float(params.get("baseline", 1.0))
        amplitude = float(params.get("amplitude", 0.0))
        width = float(params.get("width", 0.25 * grid.R))
        v_mode = str(params.get("v_mode", "flat"))
        if width <= 0.0:
            raise ConfigurationError(f"bump width must be positive, got {width}")
        u = bump_density(grid.centers, baseline, amplitude, width)
        if float(np.min(u)) <= 0.0:
            raise AdmissibilityError("bump base density is not strictly positive")
        u_field = RadialField(u, grid)
        if v_mode == "flat":
            return u_field, constant_field(grid, baseline)
        if v_mode == "relaxed":
            # signal in quasi-steady balance with the density
            if solver is None:
                solver = build_solver(grid)
            return u_field, solve(solver, solve(solver, u_field))
        raise ConfigurationError(f"bump v_mode must be flat or relaxed, got {v_mode!r}")
    if kind == "custom":
        from .snapshots import read_snapshot

        path = params.get("path")
        if not path:
            raise ConfigurationError("custom base data requires a path")
        snap = read_snapshot(path)
        if len(snap.u) != grid.N:
            raise ConfigurationError(
                f"snapshot has {len(snap.u)} rows but the grid has {grid.N} cells"
            )
        if not snap.on_grid(grid):
            raise ConfigurationError(
                f"snapshot {path} was written on another mesh: its r column "
                "does not match the grid's cell centers"
            )
        u = RadialField(snap.u, grid)
        v = RadialField(snap.v, grid)
        if float(np.min(u.values)) <= 0.0:
            raise AdmissibilityError("snapshot density is not strictly positive")
        return u, v
    raise ConfigurationError(f"unknown base-data kind {kind!r}")


def w22_norm(field: RadialField) -> float:
    """Discrete W^{2,2} norm: L2 of the field, its face gradient, and L f."""
    from .grid import gradient_faces

    grid = field.grid
    l2 = math.fsum(field.values**2 * grid.volumes)
    fr = gradient_faces(field)
    grad = math.fsum(fr**2 * grid.face_areas * grid.spacing)
    lap = laplacian(field)
    second = math.fsum(lap.values**2 * grid.volumes)
    return math.sqrt(l2 + grad + second)


def w22_distance(a: RadialField, b: RadialField) -> float:
    return w22_norm(RadialField(a.values - b.values, a.grid))


def l1_distance(a: RadialField, b: RadialField) -> float:
    return math.fsum(np.abs(a.values - b.values) * a.grid.volumes)
