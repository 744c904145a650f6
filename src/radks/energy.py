"""Energy functional, dissipation rate, and the discrete energy identity.

F(u, v) = int (u log u - u v) + 1/2 int |(I - L)v|^2 is non-increasing
along trajectories; its dissipation rate splits into a signal part built
from f = (I - L)v - w and a transport part built from the face quantity
g = u_r/sqrt(u) - sqrt(u) v_r.  The same discrete operator (I - L) is
used for w, f, and the quadratic term: (I - L)v is v - grid.laplacian(v),
the flux-form L whose matrix V + K the solve for w factors.  So
(I - L)v = f + w holds exactly.  The identity residual is still not a
time-discretization error alone: it barely moves with dt (the
first-decade residual of the README blowup at N=1024 is 6.71 at cfl 0.9
and 5.86 at cfl 0.01).  Most of it is spatial, the gap between D's
transport term (g with the arithmetic face mean) and the dissipation of
the upwind flux the step takes.

compute_energy is the one evaluation of a state: its EnergyReport
carries the fields w, f and g next to the integrals, so the probes read
them instead of solving again.  w is the one u keeps (helmholtz._kept_w),
so the step from the same state reads it too, and the face gradients it
takes stay on u, v and f (see radks.grid).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, GridMismatchError
from .grid import RadialField, _adopt, face_means, gradient_faces, laplacian
from .helmholtz import HelmholtzSolver, _kept_w

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


def compute_g(u: RadialField, v: RadialField) -> np.ndarray:
    """Face-sampled g = u_r/sqrt(ubar) - sqrt(ubar) v_r, zero at the ends.

    ubar is the arithmetic face mean floored at DENSITY_FLOOR; faces that
    needed the floor are counted by compute_energy.  u_r and v_r are the
    ones u and v keep.
    """
    if not u.grid.same_as(v.grid):
        raise GridMismatchError("u and v live on different grids")
    g = np.zeros(u.grid.N + 1)
    root = np.sqrt(np.maximum(face_means(u), DENSITY_FLOOR))
    g[1:-1] = gradient_faces(u)[1:-1] / root - root * gradient_faces(v)[1:-1]
    return g


def _entropy_density(u: np.ndarray) -> np.ndarray:
    return np.where(u > 0.0, u * np.log(np.maximum(u, DENSITY_FLOOR)), 0.0)


def compute_energy(u: RadialField, v: RadialField, solver: HelmholtzSolver) -> EnergyReport:
    """Evaluate every term of F and D at the state (u, v), with w, f and g.

    w is the one u keeps, solved here if u has none yet.  The face
    gradients it reads stay on u, v and f, so a probe of the same state
    finds them computed.
    """
    grid = u.grid
    if not grid.same_as(v.grid):
        raise GridMismatchError("u and v live on different grids")
    w = _kept_w(solver, u)
    opv = v.values - laplacian(v).values
    f = _adopt(opv - w.values, grid)

    # np.add.reduce is the pairwise sum np.sum calls, without its wrapper
    entropy = float(np.add.reduce(_entropy_density(u.values) * grid.volumes))
    mixed = float(np.add.reduce(u.values * v.values * grid.volumes))
    quad = 0.5 * float(np.add.reduce(opv * opv * grid.volumes))

    weights = grid.face_weights
    fr = gradient_faces(f)
    grad_f = float(np.add.reduce(fr * fr * weights))
    f_sq = float(np.add.reduce(f.values * f.values * grid.volumes))
    g = compute_g(u, v)
    g_sq = float(np.add.reduce(g * g * weights))
    regularized = int(np.count_nonzero(face_means(u) <= DENSITY_FLOOR))

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

    D is time-averaged with the trapezoid rule; the module docstring says
    what the residual measures.  Only .F and .D are read: run passes the
    previous sample's TrajectorySample row as before and the new state's
    EnergyReport as after.
    """
    if not delta_t > 0.0:
        raise ConfigurationError(f"samples must be separated by dt > 0, got {delta_t!r}")
    rate = (after.F - before.F) / delta_t
    return abs(rate + 0.5 * (before.D + after.D)) / (1.0 + abs(before.F))
