"""Energy functional, dissipation rate, and the discrete energy identity.

F(u, v) = int (u log u - u v) + 1/2 int |(I - L)v|^2 is non-increasing
along trajectories; its dissipation rate splits into a signal part built
from f = (I - L)v - w and a transport part built from the face quantity
g = u_r/sqrt(u) - sqrt(u) v_r.  The same discrete operator (I - L) is
used for w, f, and the quadratic term, so (I - L)v = f + w holds exactly
and the identity residual measures only the time discretization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, GridMismatchError
from .grid import RadialField, _adopt, gradient_faces
from .helmholtz import HelmholtzSolver, apply_operator, solve

__all__ = [
    "EnergyReport",
    "DENSITY_FLOOR",
    "compute_f",
    "compute_g",
    "compute_energy",
    "identity_residual",
]

# Floor applied only inside logarithms and square roots, realizing
# the convention 0 log 0 = 0.
DENSITY_FLOOR = 1e-300


@dataclass(frozen=True)
class EnergyReport:
    """Energy, dissipation, and their components at one state."""

    F: float
    D: float
    entropy_term: float   # int u log u
    mixed_term: float     # int u v
    quad_term: float      # 1/2 int |(I - L)v|^2
    grad_f_term: float    # int |grad f|^2
    f_term: float         # int f^2
    g_term: float         # int g^2
    regularized_faces: int


def _signal(u: RadialField, solver: HelmholtzSolver, w: Optional[RadialField]) -> RadialField:
    """w = (I - L)^{-1} u: the given one, or a fresh solve."""
    if w is None:
        return solve(solver, u)
    if not w.grid.same_as(u.grid):
        raise GridMismatchError("w and u live on different grids")
    return w


def compute_f(
    u: RadialField,
    v: RadialField,
    solver: HelmholtzSolver,
    w: Optional[RadialField] = None,
) -> RadialField:
    """f = (I - L)v - w with w the screened-Poisson solve of u.

    Pass w when it is already known (it must be solve(solver, u)) to skip
    the solve.
    """
    if not u.grid.same_as(v.grid):
        raise GridMismatchError("u and v live on different grids")
    w = _signal(u, solver, w)
    return _adopt(apply_operator(solver, v) - w.values, u.grid)


def _face_means(u: RadialField) -> np.ndarray:
    return 0.5 * (u.values[:-1] + u.values[1:])


def compute_g(u: RadialField, v: RadialField) -> np.ndarray:
    """Face-sampled g = u_r/sqrt(ubar) - sqrt(ubar) v_r, zero at the ends.

    ubar is the arithmetic face mean floored at DENSITY_FLOOR; faces that
    needed the floor are counted by compute_energy.
    """
    if not u.grid.same_as(v.grid):
        raise GridMismatchError("u and v live on different grids")
    g = np.zeros(u.grid.N + 1)
    ubar = np.maximum(_face_means(u), DENSITY_FLOOR)
    root = np.sqrt(ubar)
    ur = gradient_faces(u)[1:-1]
    vr = gradient_faces(v)[1:-1]
    g[1:-1] = ur / root - root * vr
    return g


def _entropy_density(u: np.ndarray) -> np.ndarray:
    return np.where(u > 0.0, u * np.log(np.maximum(u, DENSITY_FLOOR)), 0.0)


def _face_weights(grid) -> np.ndarray:
    return grid.face_areas * grid.spacing


def compute_energy(
    u: RadialField,
    v: RadialField,
    solver: HelmholtzSolver,
    w: Optional[RadialField] = None,
) -> EnergyReport:
    """Evaluate every term of F and D at the state (u, v).

    Pass w when it is already known (it must be solve(solver, u)) to skip
    the solve.
    """
    grid = u.grid
    if not grid.same_as(v.grid):
        raise GridMismatchError("u and v live on different grids")
    w = _signal(u, solver, w)
    opv = apply_operator(solver, v)
    f = _adopt(opv - w.values, grid)

    entropy = float(np.sum(_entropy_density(u.values) * grid.volumes))
    mixed = float(np.sum(u.values * v.values * grid.volumes))
    quad = 0.5 * float(np.sum(opv * opv * grid.volumes))

    weights = _face_weights(grid)
    fr = gradient_faces(f)
    grad_f = float(np.sum(fr * fr * weights))
    f_sq = float(np.sum(f.values * f.values * grid.volumes))
    g = compute_g(u, v)
    g_sq = float(np.sum(g * g * weights))
    regularized = int(np.count_nonzero(_face_means(u) <= DENSITY_FLOOR))

    return EnergyReport(
        F=entropy - mixed + quad,
        D=grad_f + f_sq + g_sq,
        entropy_term=entropy,
        mixed_term=mixed,
        quad_term=quad,
        grad_f_term=grad_f,
        f_term=f_sq,
        g_term=g_sq,
        regularized_faces=regularized,
    )


def identity_residual(
    before: EnergyReport, after: EnergyReport, delta_t: float
) -> float:
    """Normalized defect of dF/dt + D = 0 between two diagnostic samples.

    D is time-averaged with the trapezoid rule, so the residual isolates
    the first-order splitting error of the stepper.
    """
    if not delta_t > 0.0:
        raise ConfigurationError(f"samples must be separated by dt > 0, got {delta_t!r}")
    rate = (after.F - before.F) / delta_t
    return abs(rate + 0.5 * (before.D + after.D)) / (1.0 + abs(before.F))
