"""Tridiagonal solves of the screened Neumann problems (alpha I - beta L)x = rhs.

L is the flux-form radial Laplacian from :mod:`radks.grid`, which also
applies it (:func:`radks.grid.laplacian`); this module only solves.  Each
system is assembled in the volume-weighted form
(alpha V_i + beta K) x = V_i rhs_i, K the stiffness of the zero-flux
mesh: an SPD M-matrix for alpha > 0, beta >= 0, whose L D L^T factors
LAPACK's ``dpttrs`` solves with.  K's rows sum to zero, so the rows of
alpha V + beta K sum to alpha V_i.

(I - L)w = u is factored once per grid by :func:`build_solver`, from
those row sums: the recurrence of :func:`_row_sum_factor` adds and
multiplies positive numbers only, so no pivot loses digits to
cancellation, where ``dpttrf`` subtracts the couplings from a diagonal
they dominate and loses the mass mode.  :func:`solve` takes its right-hand
side u as cell values and makes one ``dpttrs`` call: every step of that
solve adds nonnegative terms, so w >= 0 exactly for u >= 0, and
int w = int u holds to a relative ~1e-14 of int |u| at N = 8192.

The stepper's dt-dependent systems go through :func:`shifted_solve`,
which takes the right-hand side in the form the system is assembled in,
the cell integrals b = V rhs: the stepper builds the u-update's
b = V u - dt (F+ - F-) straight from its face fluxes, with no division
by V to undo.  It factors with ``dpttrf`` and keeps the factors of the
last two (alpha, beta) pairs on the solver, so they are reused while dt
repeats.  Each shifted solve ends with one correcting ``dpttrs`` call
against V times the flux-form defect of a first solution.  By default
the first solution is the dpttrs solve of the same system, and its
defect b - alpha V x + beta (F+ - F-) is formed directly from the face
fluxes F of x (the kernel of :func:`radks.grid.laplacian`) with the
weights alpha V and beta A / spacing, cached beside the factors of a
pair when its first defect is formed.  The fluxes telescope, so the pass
holds the mass identity alpha sum x_i V_i = sum b_i to a few ulps.  A
caller may instead hand in a first solution and its defect
(shifted_solve's ``guess``), which saves the first dpttrs call: the
stepper's v-update passes the state's v, within O(dt) of v+, and its
defect dt V (w - (I - L) v).  The u-update keeps its first solve, which
is >= 0 for b >= 0 and depends on b alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_loader
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, GridMismatchError
from .grid import Grid, RadialField, _add_flux_divergence, _adopt

__all__ = [
    "HelmholtzSolver",
    "build_solver",
    "solve",
    "shifted_solve",
]

_FLAPACK = "scipy.linalg._flapack"


def _load_lapack(linalg_dir: Path | None):
    """dpttrf and dpttrs from SciPy's compiled LAPACK module in linalg_dir.

    Loading the ``_flapack`` extension file directly skips the import of
    the scipy package (about 0.3 s of every process's start-up) and gives
    the same routine objects that ``scipy.linalg.lapack`` exports.  Where
    the file is missing or cannot load on its own (Windows wheels, whose
    scipy ``__init__`` first adds its DLL directory), the public import
    is used instead.
    """
    for suffix in EXTENSION_SUFFIXES if linalg_dir is not None else ():
        path = linalg_dir / f"_flapack{suffix}"
        if path.is_file():
            loader = ExtensionFileLoader(_FLAPACK, str(path))
            try:
                module = module_from_spec(spec_from_loader(_FLAPACK, loader))
                loader.exec_module(module)
            except (ImportError, OSError):
                break
            return module.dpttrf, module.dpttrs
    from scipy.linalg.lapack import dpttrf, dpttrs

    return dpttrf, dpttrs


_scipy = find_spec("scipy")
dpttrf, dpttrs = _load_lapack(
    Path(_scipy.submodule_search_locations[0], "linalg") if _scipy else None
)


def _assemble(grid: Grid, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of alpha*diag(V) + beta*K (no flux at the ends)."""
    coupling = beta * grid.coupling
    diag = alpha * grid.volumes
    diag[:-1] += coupling
    diag[1:] += coupling
    return diag, -coupling


def _factor(grid: Grid, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """L D L^T factors (d, e) of alpha*diag(V) + beta*K."""
    d, e, info = dpttrf(*_assemble(grid, alpha, beta), overwrite_d=True, overwrite_e=True)
    if info != 0:
        raise ConfigurationError(
            f"alpha I - beta L with alpha={alpha!r}, beta={beta!r} is not positive "
            f"definite (LAPACK dpttrf info={info}); need alpha > 0 and beta >= 0"
        )
    return d, e


def _defect(factor, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """V times the flux-form defect of x, formed in b's memory.

    b = V rhs.  V (rhs - (alpha I - beta L)x) = b - alpha V x + beta (F+ - F-),
    with F the face fluxes A (x_{i+1} - x_i) / spacing, from the weights
    kept after the factors in factor.  The fluxes telescope, so the defect
    sums to sum b - alpha sum V x.  x is only read.
    """
    _, _, volumes, coupling = factor
    b -= volumes * x
    return _add_flux_divergence(b, x, coupling)


# cells per Python list in _row_sum_factor: lists of the whole grid would
# raise a run's peak memory
_CHUNK = 512


def _row_sum_factor(volumes: np.ndarray, coupling: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L D L^T factors (d, l) of diag(V) + K, computed from its row sums.

    K has couplings c at the interior faces and zero row sums.  After
    cells 1..i-1 are eliminated, row i of what is left sums to
    s_1 = V_1, s_{i+1} = V_{i+1} + c_i s_i / d_i, with the pivots
    d_i = s_i + c_i (d_N = s_N) and l_i = -c_i / d_i.  No step subtracts,
    so no pivot loses digits to cancellation, however small V_i is
    against c_i (Alfa, Xue, Ye, Math. Comp. 71 (2002)): at N = 8192,
    n = 5..8, uniform or graded to h_min = 1e-12, the pivots lie within
    2.5e-15 relative of the exact ones.  The recurrence is sequential, a
    Python loop over chunks of _CHUNK cells (1-2 ms at N = 8192).  Raises
    ConfigurationError when a pivot is zero, which takes a cell volume
    and its couplings that all underflow.
    """
    d = np.empty(volumes.shape[0])
    d[0] = s = float(volumes[0])
    try:
        for start in range(1, d.shape[0], _CHUNK):
            stop = start + _CHUNK
            cells = zip(volumes[start:stop].tolist(), coupling[start - 1 : stop - 1].tolist())
            d[start:stop] = [s := v + c * s / (s + c) for v, c in cells]
    except ZeroDivisionError:
        raise ConfigurationError(
            "I - L has a zero pivot on this grid: its cell volumes and couplings underflow"
        ) from None
    d[:-1] += coupling
    lower = coupling / d[:-1]
    return d, np.negative(lower, out=lower)


def _solve(grid: Grid, factor, rhs: np.ndarray) -> np.ndarray:
    """w with (I - L)w = rhs, from the row-sum factors of V + K: one dpttrs
    call on V rhs.  rhs is only read."""
    # overwrite_b by position: V rhs is a temporary
    return dpttrs(factor[0], factor[1], grid.volumes * rhs, True)[0]


@dataclass(frozen=True)
class HelmholtzSolver:
    """Reusable factorization of (I - L) on one grid.

    _shifted maps (alpha, beta) to the factors of the last two operators
    shifted_solve factored, oldest first (the stepper's v- and
    u-operators of one dt), followed by the defect weights once a first
    solve of that pair has formed a defect.
    """

    grid: Grid
    _factor: tuple[np.ndarray, ...]
    _shifted: dict = field(default_factory=dict, repr=False, compare=False)


def build_solver(grid: Grid) -> HelmholtzSolver:
    """Factorize (I - L) from the row sums of V + K (see _row_sum_factor)."""
    return HelmholtzSolver(grid=grid, _factor=_row_sum_factor(grid.volumes, grid.coupling))


def solve(solver: HelmholtzSolver, u: RadialField) -> RadialField:
    """w = (I - L)^{-1} u in one dpttrs call.

    w >= 0 exactly for u >= 0, and int w = int u to a relative ~1e-14 of
    int |u| at N = 8192.  solve keeps nothing and always solves, so it
    serves as the independent check of the w that u keeps (_kept_w), and
    a count of its calls is a count of real solves.
    """
    if not u.grid.same_as(solver.grid):
        raise GridMismatchError("input field does not live on the solver grid")
    return _adopt(_solve(solver.grid, solver._factor, u.values), solver.grid)


def _kept_w(solver: HelmholtzSolver, u: RadialField) -> RadialField:
    """w = (I - L)^{-1} u, solved on the first call and kept on u, read-only.

    w is a function of u alone (0 = Lw - w + u), so u keeps it as radks.grid
    keeps a field's face gradient: a state's energy report and its steps
    share one solve.  Every solver of u's grid gives the same w.
    """
    if not u.grid.same_as(solver.grid):
        raise GridMismatchError("input field does not live on the solver grid")
    w = u.__dict__.get("_w")
    if w is None:
        w = u.__dict__["_w"] = solve(solver, u)
    return w


def shifted_solve(
    solver: HelmholtzSolver,
    alpha: float,
    beta: float,
    b: np.ndarray,
    guess: np.ndarray | None = None,
) -> np.ndarray:
    """Solve (alpha I - beta L) x = rhs on the solver grid, alpha > 0, beta >= 0,
    from the cell integrals b = V rhs of the right-hand side.

    Used by the time stepper, where alpha and beta depend on dt.  b is a
    float array of one value per cell, and the solve overwrites it.  The
    result is a first dpttrs solve plus one refinement pass, whose defect
    is formed in b's memory.  The mass identity reads alpha sum V x =
    sum b, and the refinement pass holds it to a few ulps of sum |b|.

    guess, when given, replaces the first solve, and b is then the
    caller's defect of guess, V (rhs - (alpha I - beta L) guess): the
    result is guess plus one correcting solve against b, one dpttrs call
    instead of two, and alpha sum V (x - guess) = sum b.  The round-off
    of that solve scales with x - guess, so a guess close to x gives x to
    a few ulps.  The stepper's v-update (I + dt (I - L)) v+ = v + dt w
    passes v, within O(dt) of v+, and its defect dt V (w - (I - L) v),
    formed from L's face fluxes without cancelling V (v + dt w) against
    (1 + dt) V v.  The u-update keeps its first solve, which is >= 0
    exactly for b >= 0 (the positivity of u rests on it).  guess is only
    read.

    The factors of the last two (alpha, beta) pairs stay on the solver
    and are reused when an equal pair comes back, so a reused factor is
    the one a fresh factorization would give (beta = -0.0 and +0.0 share
    one, whose couplings differ only in the sign of zero).  Raises
    ConfigurationError when the operator is not positive definite.
    """
    recent = solver._shifted
    factor = recent.get((alpha, beta))
    if factor is None:
        if len(recent) > 1:  # keep two pairs alive at most, the new one included
            del recent[next(iter(recent))]
        factor = recent[alpha, beta] = _factor(solver.grid, alpha, beta)
    x = guess
    if x is None:
        if len(factor) == 2:  # the pair's first defect: form its weights once
            grid = solver.grid
            factor = recent[alpha, beta] = (*factor, alpha * grid.volumes, beta * grid.coupling)
        # the first solve; b becomes its defect, which the pass below corrects
        x = dpttrs(factor[0], factor[1], b)[0]
        _defect(factor, b, x)
    # overwrite_b by position: f2py parses a keyword argument more slowly
    correction = dpttrs(factor[0], factor[1], b, True)[0]
    correction += x
    return correction
