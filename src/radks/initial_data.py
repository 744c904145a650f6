"""Base initial data and the concentrated low-energy family.

The family adds to a positive base pair (u0, v0) a mollifier bump at
scale eta, with amplitudes chosen so the energy of the pair diverges to
-infinity as eta shrinks while the pair itself converges back to
(u0, v0) in weak norms.  The admissible range (0, eta_star) is fixed by
two smallness conditions on psi(eta) = eta^{n/2-2} (ln 1/eta)^{2 gamma};
they guarantee the perturbed density stays positive.

build_family(u0, v0, gamma, eta) is the one constructor of a family
member, on u0's grid.  Each rule has one owner: eta_star checks gamma > 1,
n >= 5, a positive minimum density and the volume; build_family checks
0 < eta < eta_star, v0 >= 0 and that v0 shares u0's grid; check_family
holds the scalar rules a config can be checked against before any field
exists.  family_scales is the automatic scan eta_star/4, eta_star/8, ...

The bump is deposited by exact per-cell integration rather than point
sampling, and the flat compensating constant is replaced by the exact
discrete-mass corrector, so the integral of u is preserved exactly on
every grid, including grids much coarser than eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import AdmissibilityError, ConfigurationError, GridMismatchError
from .grid import (
    Grid,
    RadialField,
    constant_field,
    gradient_faces,
    integrate,
    laplacian,
    unit_sphere_area,
)
from .helmholtz import HelmholtzSolver, _kept_w, build_solver, solve
from .energy import EnergyReport, compute_energy
from .snapshots import read_snapshot

__all__ = [
    "FamilyRow",
    "check_family",
    "check_base",
    "mollifier_normalization",
    "eta_star",
    "family_eta_star",
    "family_scales",
    "bump_cell_fractions",
    "build_family",
    "family_energy_scan",
    "base_data",
    "bump_density",
    "w22_norm",
    "w22_distance",
    "l1_distance",
]


# The 16-point Gauss-Legendre nodes and weights on [-1, 1], numpy's
# leggauss(16) bit for bit, stored so that no run loads numpy.polynomial;
# tuples, so that importing the module allocates no array
_GAUSS_X = (
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318, -0.755404408355003,
    -0.6178762444026438, -0.45801677765722737, -0.2816035507792589, -0.09501250983763744,
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
)
_GAUSS_W = (
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926, 0.12462897125553407,
    0.1495959888165767, 0.16915651939500265, 0.18260341504492364, 0.18945061045506864,
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
)


def _gauss_panels(a: float, b: float, panels: int):
    """Composite 16-point Gauss-Legendre nodes/weights on [a, b]."""
    edges = np.linspace(a, b, panels + 1)
    mid = (0.5 * (edges[:-1] + edges[1:]))[:, None]
    half = (0.5 * (edges[1:] - edges[:-1]))[:, None]
    return (mid + half * _GAUSS_X).ravel(), (half * _GAUSS_W).ravel()


def _profile(rho: np.ndarray) -> np.ndarray:
    out = np.zeros_like(rho)
    inside = rho < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - rho[inside] ** 2))
    return out


@lru_cache(maxsize=None)
def mollifier_normalization(n: int) -> float:
    """c_n with omega_n int_0^1 c_n exp(-1/(1-r^2)) r^{n-1} dr = 1: the
    factor that makes the radially nonincreasing bump on the unit ball of
    R^n a unit-mass mollifier."""
    nodes, weights = _gauss_panels(0.0, 1.0, panels=32)
    raw = float(np.sum(weights * _profile(nodes) * nodes ** (n - 1)))
    return 1.0 / (unit_sphere_area(n) * raw)


def _psi(s: float, n: int, gamma: float) -> float:
    """psi = eta^{n/2-2} (ln 1/eta)^{2 gamma} at s = ln(1/eta), in log space."""
    return math.exp(2.0 * gamma * math.log(s) - (0.5 * n - 2.0) * s)


def _raise(error: type, problems: dict) -> None:
    """Raise error with problems, its text `param: message` for each, if any."""
    if problems:
        raise error("; ".join(f"{k}: {m}" for k, m in problems.items()), problems=problems)


def check_family(gamma: float, etas=()) -> None:
    """Raise ConfigurationError keyed gamma and eta unless gamma > 1 and every
    scale eta lies in (0, 1); eta < eta_star needs u0 and is build_family's."""
    problems = {}
    if not gamma > 1.0:
        problems["gamma"] = f"must exceed 1, got {gamma}"
    if not all(0.0 < eta < 1.0 for eta in etas):
        problems["eta"] = f"entries must lie in (0, 1), got {list(etas)}"
    _raise(ConfigurationError, problems)


def eta_star(
    iota: float, gamma: float, n: int, volume: float, cap: float = 1.0
) -> float:
    """Largest scale below which both smallness conditions hold.

    psi is increasing up to its interior peak and vanishes at 0, so the
    running supremum over (0, x) equals psi(x) on the increasing branch;
    the threshold is found by bisection in s = ln(1/eta).
    """
    check_family(gamma)
    problems = {}
    if n < 5:
        problems["n"] = f"must be >= 5 for the family construction, got {n}"
    if not iota > 0.0:
        problems["iota"] = f"the minimum density must be positive, got {iota}"
    if not volume > 0.0:
        problems["volume"] = f"must be positive, got {volume}"
    _raise(ConfigurationError, problems)
    cap = min(cap, 1.0 - 1e-12)

    bound = min(volume * iota, 0.5)
    s_peak = 2.0 * gamma / (0.5 * n - 2.0)
    if _psi(max(s_peak, -math.log(cap)), n, gamma) < bound:
        return cap
    # Bisect psi(s) = bound on the decreasing-in-s branch (s > s_peak),
    # i.e. the increasing branch in eta.
    lo = max(s_peak, -math.log(cap))
    hi = lo
    while _psi(hi, n, gamma) >= bound:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _psi(mid, n, gamma) >= bound:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return min(math.exp(-hi), cap)


def family_eta_star(u0: RadialField, gamma: float) -> float:
    """The admissible bound of the family on the base density u0: eta_star
    of u0's minimum and its grid's ball, capped at min(1, R)."""
    grid = u0.grid
    iota = float(np.min(u0.values))
    return eta_star(iota, gamma, grid.n, grid.ball_volume, cap=min(1.0, grid.R))


def family_scales(u0: RadialField, gamma: float, count: int) -> list[float]:
    """The automatic scan on the base density u0: count scales halving
    down from eta_star/4, so eta_star/4, eta_star/8, ..."""
    star = family_eta_star(u0, gamma)
    return [star / (4 * 2**k) for k in range(count)]


def bump_cell_fractions(grid: Grid, eta: float) -> np.ndarray:
    """Fraction of the unit bump mass inside each cell, by exact quadrature.

    Works on the reference scale rho = r/eta, so scales far below h are
    integrated as accurately as resolved ones.
    """
    normalization = mollifier_normalization(grid.n)
    fractions = np.zeros(grid.N)
    for i in range(grid.N):
        lo = grid.faces[i] / eta
        if lo >= 1.0:
            break
        hi = min(grid.faces[i + 1] / eta, 1.0)
        # panel count grows with the covered reference span, so a single
        # cell swallowing the whole bump is still integrated to round-off
        panels = max(4, min(64, int(64 * (hi - lo)) + 4))
        nodes, weights = _gauss_panels(lo, hi, panels=panels)
        fractions[i] = (
            grid.omega_n
            * normalization
            * float(np.sum(weights * _profile(nodes) * nodes ** (grid.n - 1)))
        )
    return fractions


def build_family(
    u0: RadialField, v0: RadialField, gamma: float, eta: float
) -> tuple[RadialField, RadialField]:
    """The family member (u_eta, v_eta) over the base pair (u0, v0), on u0's grid.

    family_eta_star checks gamma and u0 (keys gamma, n, iota, volume);
    this adds 0 < eta < eta_star (key eta) and v0 >= 0 (key v0), raising
    AdmissibilityError, and raises GridMismatchError when v0 lives on
    another grid.  The density bump carries total mass psi(eta); the
    matching flat subtraction is the exact discrete-mass corrector, so
    integrate(u_eta) == integrate(u0) to round-off.  A grid coarser than
    eta receives the cell-averaged bump.
    """
    grid = u0.grid
    if not v0.grid.same_as(grid):
        raise GridMismatchError("v0 does not live on the grid of u0")
    star = family_eta_star(u0, gamma)
    problems = {}
    if not 0.0 < eta < star:
        problems["eta"] = f"must lie in (0, eta_star={star:.6g}), got {eta}"
    if float(np.min(v0.values)) < 0.0:
        problems["v0"] = "the base signal must be nonnegative"
    _raise(AdmissibilityError, problems)

    n = grid.n
    fractions = bump_cell_fractions(grid, eta)
    s = -math.log(eta)
    u_amp = _psi(s, n, gamma)  # total bump mass in u
    v_amp = math.exp((0.5 * n + 2.0) * math.log(eta) - gamma * math.log(s))
    u_bump = u_amp * fractions / grid.volumes
    v_bump = v_amp * fractions / grid.volumes

    corrector = math.fsum(u_bump * grid.volumes) / math.fsum(grid.volumes)
    u_eta = u0.values + u_bump - corrector
    if float(np.min(u_eta)) <= 0.0:
        raise AdmissibilityError(
            f"perturbed density is not positive (eta={eta:g} too large for this grid)"
        )
    v_eta = v0.values + v_bump
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
    solver: HelmholtzSolver,
) -> list[FamilyRow]:
    """One energy row per requested scale, in the given order."""
    rows = []
    for eta in etas:
        u_eta, v_eta = build_family(u0, v0, gamma, float(eta))
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


def check_base(kind: str, grid: Grid | None, **params) -> dict:
    """params of a base pair of this kind, defaults filled in, once they
    pass every rule that needs no field built, no solve and no snapshot
    read; raises AdmissibilityError keyed by parameter otherwise.  With
    grid None an unset bump width stays unset and the density goes unchecked.
    """
    p = {"value": 1.0, "baseline": 1.0, "amplitude": 0.0, "v_mode": "flat", "path": "", **params}
    if "width" not in p and grid is not None:
        p["width"] = 0.25 * grid.R
    problems = {}
    if kind == "constant":
        if not p["value"] > 0.0:
            problems["value"] = f"must be positive when kind=constant, got {p['value']}"
    elif kind == "bump":
        baseline, amplitude, width = p["baseline"], p["amplitude"], p.get("width")
        if width is not None and not width > 0.0:
            problems["width"] = f"must be positive when kind=bump, got {width}"
        elif grid is not None:
            # the profile is monotone in r, so its minimum over the cell
            # centers is at the first or the last one; a NaN input, which
            # a config loader has already reported unparsable, adds nothing
            ends = (float(grid.centers[0]), float(grid.centers[-1]))
            low = float(min(bump_density(r, baseline, amplitude, width) for r in ends))
            if low <= 0.0:
                problems["amplitude"] = (
                    f"the bump density (baseline={baseline}, amplitude={amplitude}) must be "
                    f"positive at every cell center, got a minimum of {low}"
                )
    elif kind == "custom":
        if not p["path"]:
            problems["path"] = "required when kind=custom"
        elif not Path(p["path"]).is_file():
            problems["path"] = f"{p['path']!r} is not a readable file"
    else:
        problems["kind"] = f"must be constant|bump|custom, got {kind!r}"
    if p["v_mode"] not in ("flat", "relaxed"):
        problems["v_mode"] = f"must be flat or relaxed, got {p['v_mode']!r}"
    _raise(AdmissibilityError, problems)
    return p


def base_data(
    kind: str, grid: Grid, solver: HelmholtzSolver | None = None, **params
) -> tuple[RadialField, RadialField]:
    """Positive radial base pairs: constant, bump, or a snapshot file read
    onto grid (Snapshot.fields checks its mesh).

    params pass check_base before anything is built.  solver, a
    HelmholtzSolver on grid, serves the relaxed bump's solves; one is
    built when it is not given.
    """
    p = check_base(kind, grid, **params)
    if kind == "constant":
        return constant_field(grid, p["value"]), constant_field(grid, p["value"])
    if kind == "bump":
        u = RadialField(bump_density(grid.centers, p["baseline"], p["amplitude"], p["width"]), grid)
        if p["v_mode"] == "flat":
            return u, constant_field(grid, p["baseline"])
        # signal in quasi-steady balance with the density; u keeps its w,
        # which the run's first state then reads
        if solver is None:
            solver = build_solver(grid)
        return u, solve(solver, _kept_w(solver, u))
    u, v = read_snapshot(p["path"]).fields(grid)
    # a NaN compares false, so it fails this test
    if not float(np.min(u.values)) > 0.0:
        raise AdmissibilityError("snapshot density is not strictly positive")
    return u, v


def w22_norm(field: RadialField) -> float:
    """Discrete W^{2,2} norm: L2 of the field, its face gradient, and L f."""
    grid = field.grid
    l2 = math.fsum(field.values**2 * grid.volumes)
    fr = gradient_faces(field)
    grad = math.fsum(fr**2 * grid.face_weights)
    lap = laplacian(field)
    second = math.fsum(lap.values**2 * grid.volumes)
    return math.sqrt(l2 + grad + second)


def w22_distance(a: RadialField, b: RadialField) -> float:
    return w22_norm(RadialField(a.values - b.values, a.grid))


def l1_distance(a: RadialField, b: RadialField) -> float:
    return math.fsum(np.abs(a.values - b.values) * a.grid.volumes)
