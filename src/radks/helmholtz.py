"""Tridiagonal solves of the screened Neumann problems (alpha I - beta L)x = rhs.

L is the flux-form radial Laplacian from :mod:`radks.grid`.  Each system
is assembled in the volume-weighted form (alpha V_i + beta K) x = V_i rhs_i,
K the stiffness of the zero-flux mesh: SPD for alpha > 0, beta >= 0, so
LAPACK factors it as L D L^T (``dpttrf``) and solves with ``dpttrs``.
(I - L)w = u is alpha = beta = 1, factored once per grid by
:func:`build_solver`; the stepper's dt-dependent systems take the same
path through :func:`shifted_solve`.  The K rows sum to zero, so
alpha sum x_i V_i = sum rhs_i V_i: the discrete mass identity of u and w.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import ConfigurationError, GridMismatchError
from .grid import Grid, RadialField, laplacian

__all__ = [
    "HelmholtzSolver",
    "build_solver",
    "solve",
    "apply_operator",
    "shifted_solve",
]


def _assemble(grid: Grid, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of alpha*diag(V) + beta*K (no flux at the ends)."""
    coupling = beta * (grid.face_areas[1:-1] / grid.spacing[1:-1])
    diag = alpha * grid.volumes
    diag[:-1] += coupling
    diag[1:] += coupling
    return diag, -coupling


def _factor(grid: Grid, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """L D L^T factors of alpha*diag(V) + beta*K."""
    d, e, info = dpttrf(*_assemble(grid, alpha, beta))
    if info != 0:
        raise ConfigurationError(
            f"alpha I - beta L with alpha={alpha!r}, beta={beta!r} is not positive "
            f"definite (LAPACK dpttrf info={info}); need alpha > 0 and beta >= 0"
        )
    return d, e


def _solve(grid: Grid, alpha: float, beta: float, factor, rhs: np.ndarray) -> np.ndarray:
    """x with (alpha I - beta L)x = rhs, from the factors of that operator.

    One refinement pass against the flux-form L (which divides by V_i
    where the factored system weights by it) solves that L to round-off.
    """
    d, e = factor
    x = dpttrs(d, e, grid.volumes * rhs)[0]
    defect = rhs - (alpha * x - beta * laplacian(RadialField(x, grid)).values)
    return x + dpttrs(d, e, grid.volumes * defect)[0]


@dataclass(frozen=True)
class HelmholtzSolver:
    """Reusable factorization of (I - L) on one grid."""

    grid: Grid
    _factor: tuple[np.ndarray, np.ndarray]


def build_solver(grid: Grid) -> HelmholtzSolver:
    """Factorize (I - L); the matrix is an SPD M-matrix, so this cannot fail."""
    return HelmholtzSolver(grid=grid, _factor=_factor(grid, 1.0, 1.0))


def solve(solver: HelmholtzSolver, u: RadialField) -> RadialField:
    """w = (I - L)^{-1} u; preserves the discrete integral of u to round-off."""
    if not u.grid.same_as(solver.grid):
        raise GridMismatchError("input field does not live on the solver grid")
    grid = solver.grid
    x = _solve(grid, 1.0, 1.0, solver._factor, u.values)
    # Mass projection: telescoping makes sum w V = sum u V an identity of
    # the scheme, and the constant shift (well below discretization error)
    # pins it down to the round-off of the two sums in floating point.
    gap = float(np.sum(grid.volumes * u.values) - np.sum(grid.volumes * x))
    return RadialField(x + gap / grid.ball_volume, grid)


def apply_operator(solver: HelmholtzSolver, v: RadialField) -> np.ndarray:
    """Values of (I - L)v, using the same flux-form L as the solve."""
    if not v.grid.same_as(solver.grid):
        raise GridMismatchError("input field does not live on the solver grid")
    return v.values - laplacian(v).values


def shifted_solve(grid: Grid, alpha: float, beta: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (alpha I - beta L) x = rhs for alpha > 0, beta >= 0.

    Used by the time stepper, where alpha and beta depend on dt, so each
    call factors its own operator.  Raises ConfigurationError when the
    operator is not positive definite.
    """
    return _solve(grid, alpha, beta, _factor(grid, alpha, beta), rhs)
