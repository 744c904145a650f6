"""Energy functional, dissipation rate, and the discrete energy identity.

F(u, v) = int (u log u - u v) + 1/2 int |(I - L)v|^2 is non-increasing
along trajectories; its dissipation rate splits into a signal part built
from f = (I - L)v - w and a transport part built from the face quantity
g = u_r/sqrt(u) - sqrt(u) v_r.  The same discrete operator (I - L) is
used for w, f, and the quadratic term, so (I - L)v = f + w holds exactly
and the identity residual measures only the time discretization.

compute_energy is the one evaluation of a state: its EnergyReport
carries the fields w, f and g next to the integrals, so the stepper
and the probes read them instead of solving again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, GridMismatchError
from .grid import RadialField, _adopt, gradient_faces
from .helmholtz import HelmholtzSolver, apply_operator, solve

__all__ = [
    "EnergyReport",
    "DENSITY_FLOOR",
    "compute_g",
    "compute_energy",
    "identity_residual",
]

# Floor applied only inside logarithms and square roots, realizing
# the convention 0 log 0 = 0.
DENSITY_FLOOR = 1e-300


@dataclass(frozen=True)
class EnergyReport:
    """Energy, dissipation, their components, and the fields behind them.

    w = (I - L)^{-1} u and f = (I - L)v - w are cell fields, g is
    face-sampled (compute_g); they do not take part in comparisons.
    """

    F: float
    D: float
    entropy_term: float   # int u log u
    mixed_term: float     # int u v
    quad_term: float      # 1/2 int |(I - L)v|^2
    grad_f_term: float    # int |grad f|^2
    f_term: float         # int f^2
    g_term: float         # int g^2
    regularized_faces: int
    w: RadialField = field(compare=False, repr=False)
    f: RadialField = field(compare=False, repr=False)
    g: np.ndarray = field(compare=False, repr=False)


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


def compute_energy(u: RadialField, v: RadialField, solver: HelmholtzSolver) -> EnergyReport:
    """Evaluate every term of F and D at the state (u, v), with w, f and g."""
    grid = u.grid
    if not grid.same_as(v.grid):
        raise GridMismatchError("u and v live on different grids")
    w = solve(solver, u)
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
        w=w,
        f=f,
        g=g,
    )


def identity_residual(before, after, delta_t: float) -> float:
    """Normalized defect of dF/dt + D = 0 between two diagnostic samples.

    D is time-averaged with the trapezoid rule, so the residual isolates
    the first-order splitting error of the stepper.  Only .F and .D are
    read, so before and after may be EnergyReports or TrajectorySamples.
    """
    if not delta_t > 0.0:
        raise ConfigurationError(f"samples must be separated by dt > 0, got {delta_t!r}")
    rate = (after.F - before.F) / delta_t
    return abs(rate + 0.5 * (before.D + after.D)) / (1.0 + abs(before.F))
