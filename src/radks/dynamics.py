"""IMEX time stepping for the coupled cell/signal system.

One step does, in order:
  (a) w = (I - L)^{-1} u                        (elliptic signal, kept on
                                                 u: solved once per state)
  (b) (I + dt (I - L)) v+ = v + dt w            (implicit linear v-update)
  (c) (I - dt L) u+ = u - dt div Phi(u, v+)     (implicit diffusion,
                                                 explicit upwind advection)
Both flux sums telescope, so the integral of u is conserved exactly;
upwinding plus the M-matrix solves keep u nonnegative whenever dt
respects the advective stability bound, the reciprocal of the fastest
per-cell outflow rate, which depends on v alone.  adapt_dt never takes a
step above that bound: there is no step floor.

run has one rule per outcome.  It blows up when sup u has grown to
blowup_factor * sup0, and reports t_blowup as the time of that step.  It
stalls when a step gives a non-finite field or leaves t where it was
(a dt too small to change t in floating point).  It completes when t
reaches t_end to a relative 1e-12 (detect_blowup), which covers the
round-off that thousands of steps of one dt leave in t; adapt_dt caps
the last step at t_end - t and never stretches a step to reach it.

Work per step: one face gradient of v per state (step computes v+_r for
the flux of (c), and v+ keeps it, as every RadialField keeps its face
gradient, for the next adapt_dt and the energy report); one max and one
min of u+, which check that it is finite and give the state its sup u
and min u (a non-finite v+ reaches u+ through the flux of (c)); three
solves, (a) to (c), in four LAPACK dpttrs calls: (a) makes one, on the
row-sum factors of (I - L); (c) two, a first solve and its refinement
pass; and (b) one, which corrects v itself, within O(dt) of v+, by its
defect dt V (w - (I - L) v) (shifted_solve's guess); and two
factorizations, of the (b) and (c) operators, only when dt moves to
another rung of adapt_dt's ladder 2^(k/16).  w is a function of u alone,
and u keeps it (helmholtz._kept_w): the step from a sampled state, whose
energy report solved w, and a second step from the same state make three
dpttrs calls and no w-solve.  Both right-hand sides are cell integrals,
the form the solves work in, so no flux is divided by V only to be
multiplied back: (b) forms v's defect from the face fluxes of L, and (c)
adds dt F, the N-1 upwind fluxes at the interior faces, into V u from
both sides, for V u - dt (F+ - F-).  The upwind flux, its per-cell
outflow-rate bound and the bound's per-grid constant sit together, their
rule stated once in advective_flux.  adapt_dt's bound takes one
reduction, over the N outflow rates.  After a step at dt_max it first
takes one over |v_r|, whose product with the constant, kept on the grid,
bounds every rate: when that bound alone keeps dt at dt_max, the rates
are not formed.  On verify's conservation run (N=400, dt_max 2e-3) the
rates are formed on 30 of 10000 steps; on a collapse, whose dt never
reaches dt_max, on every step.

run returns the final state, a RunSummary and a Trajectory: a float64
column per TrajectorySample field, with a row per emitted sample, which
the sink receives as a TrajectorySample, with the state and its
EnergyReport.
"""

from __future__ import annotations

import bisect
import math
from array import array
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .energy import EnergyReport, compute_energy, identity_residual
from .errors import ConfigurationError, GridMismatchError
from .grid import (
    Grid,
    RadialField,
    _add_flux_divergence,
    _adopt,
    gradient_faces,
    integrate,
    sup_norm,
)
from .helmholtz import HelmholtzSolver, _kept_w, build_solver, shifted_solve

__all__ = [
    "SimStatus",
    "State",
    "StepperConfig",
    "TrajectorySample",
    "Trajectory",
    "RunSummary",
    "default_stepper_config",
    "advective_flux",
    "adapt_dt",
    "step",
    "detect_blowup",
    "run",
]


class SimStatus(Enum):
    RUNNING = "running"
    COMPLETED = "completed"
    BLOWN_UP = "blown_up"
    STALLED = "stalled"


@dataclass(frozen=True)
class State:
    """Simulation state owned by exactly one run loop: the dynamics alone.

    w = (I - L)^{-1} u is kept on u (helmholtz._kept_w), so the state's
    energy report and its step share one solve; the report itself goes to
    the sink and is not kept.

    v_r at the faces is gradient_faces(v), which v keeps: the step that
    builds a state computes it once for its flux, and adapt_dt and the
    energy report read the same array.  sup and min_u, sup_norm(u) and
    min u, are filled by step from the reductions that check the new u
    is finite; a state built by hand computes them on first use.
    """

    t: float
    step: int
    u: RadialField
    v: RadialField
    dt: float
    status: SimStatus = SimStatus.RUNNING

    @cached_property
    def sup(self) -> float:
        return sup_norm(self.u)

    @cached_property
    def min_u(self) -> float:
        return float(self.u.values.min())


def _evolve(state: State, **changes) -> State:
    """dataclasses.replace(state, **changes) for fields other than u and v.

    Copies the instance dict, so the cached sup and min u come along and
    the run loop does not pay replace's walk over the fields every step.
    u and v are the same objects, with whatever they keep.
    """
    new = object.__new__(State)
    new.__dict__.update(state.__dict__, **changes)
    return new


@dataclass(frozen=True)
class StepperConfig:
    cfl: float
    dt_init: float
    dt_max: float
    t_end: float
    blowup_factor: float = 1e6
    output_every: int = 10

    def __post_init__(self):
        problems = {}
        if not 0.0 < self.cfl <= 1.0:
            problems["cfl"] = f"cfl must lie in (0, 1], got {self.cfl}"
        if not self.dt_max > 0.0:
            problems["dt_max"] = f"dt_max must be positive, got {self.dt_max}"
        # dt_init is compared only with a dt_max that passed its own check
        elif not 0.0 < self.dt_init <= self.dt_max:
            problems["dt_init"] = (
                f"dt_init must lie in (0, dt_max] = (0, {self.dt_max}], got {self.dt_init}"
            )
        if not self.t_end > 0.0:
            problems["t_end"] = f"t_end must be positive, got {self.t_end}"
        if not self.blowup_factor > 1.0:
            problems["blowup_factor"] = f"blowup_factor must exceed 1, got {self.blowup_factor}"
        if self.output_every < 1:
            problems["output_every"] = f"output_every must be >= 1, got {self.output_every}"
        if problems:
            raise ConfigurationError(problems=problems)


def default_stepper_config(grid: Optional[Grid], t_end: float, **overrides) -> StepperConfig:
    """Config with the documented defaults: cfl 0.9, dt_max 1e-2 and
    dt_init min(1e-6, dt_max); StepperConfig's own for the rest.

    No default depends on grid, which may be None.  dt_init steers
    nothing: run puts it only on the t = 0 state, whose diagnostics row
    shows it, and every step, the first included, takes its dt from
    adapt_dt.  An explicit dt_init outside (0, dt_max] is rejected.
    """
    values = {"cfl": 0.9, "dt_max": 1e-2, "t_end": t_end, **overrides}
    values.setdefault("dt_init", min(1e-6, values["dt_max"]))
    return StepperConfig(**values)


def advective_flux(u: RadialField, vel: np.ndarray) -> np.ndarray:
    """Upwind chemotactic flux A * u_up * vel at the N-1 interior faces.

    vel is the face velocity v_r = gradient_faces(v), zero at r=0 and r=R,
    where no flux passes; entry i is the flux from cell i into cell i+1,
    and u_up is the value of the cell that vel carries mass out of.

    The rule of this section, the upwind transport and its dt bound: cell
    i loses mass at the outflow rate sum A |v_r| / V_i over the faces whose
    flux leaves it, and the update V u - dt (F+ - F-) keeps a u >= 0
    nonnegative for dt up to the reciprocal of the fastest rate, at which
    the cell that sets it, holding all the mass, just empties (Filbet,
    Numer. Math. 104 (2006)).  _rates_stable_dt raises the rates by 2^-48
    relative, far more than their few roundings and the update's, so u
    stays >= 0 in floating point.  Every rate is at most max |v_r| times
    the grid's max (A_{i-1/2} + A_{i+1/2}) / V_i (_rate_per_speed), raised
    by 2^-46 to cover the rates' 2^-48 and the roundings in which the two
    differ, so _stable_dt's one-reduction bound never exceeds the rates'.
    """
    grid = u.grid
    if vel.shape != (grid.N + 1,):
        raise GridMismatchError(
            f"face velocity must have one value per face ({grid.N + 1}), got {vel.shape}"
        )
    inner = vel[1:-1]
    flux = np.where(inner > 0.0, u.values[:-1], u.values[1:])
    flux *= grid.face_areas[1:-1]
    flux *= inner
    return flux


def _rate_per_speed(grid: Grid) -> float:
    """The constant that bounds every outflow rate by max |v_r| (see
    advective_flux), computed on the first call and kept on grid."""
    rate = grid.__dict__.get("_rate_per_speed")
    if rate is None:
        outflow = np.maximum.reduce((grid.face_areas[:-1] + grid.face_areas[1:]) / grid.volumes)
        rate = grid.__dict__["_rate_per_speed"] = float(outflow) * (1.0 + 2.0**-46)
    return rate


def _stable_dt(grid: Grid, vel: np.ndarray, cap: float = math.inf) -> float:
    """Largest dt keeping the explicit upwind update positivity-preserving.

    The reciprocal of the fastest per-cell outflow rate of vel = v_r (see
    advective_flux); v_r = 0 everywhere gives +inf.  cap is the largest
    bound the caller can use.  With a finite cap, the rates are first
    bounded in one reduction, by max |v_r| times _rate_per_speed; when the
    dt of that bound is at least 2 * cap, it is returned without forming
    the rates: a result of at least 2 * cap and at most the exact bound.
    Otherwise the result is the exact bound; a NaN v_r falls through to
    the rates.
    """
    if cap < math.inf:
        rate = float(np.maximum.reduce(np.absolute(vel))) * _rate_per_speed(grid)
        dt = 1.0 / rate if rate else math.inf
        if dt >= 2.0 * cap:
            return dt
    return _rates_stable_dt(grid, vel)


def _rates_stable_dt(grid: Grid, vel: np.ndarray) -> float:
    """_stable_dt from the N per-cell outflow rates themselves."""
    area_vel = grid.face_areas * vel
    outflow = np.maximum(area_vel[1:], 0.0)
    outflow -= np.minimum(area_vel[:-1], 0.0, out=area_vel[:-1])
    outflow /= grid.volumes
    rate = float(np.maximum.reduce(outflow)) * (1.0 + 2.0**-48)
    return math.inf if rate == 0.0 else 1.0 / rate


# The dt ladder: rungs 2^(k/16), k an integer.  _RUNG_MANTISSAS holds the
# rungs in [0.5, 1), the range of math.frexp's mantissa, so every rung is
# one of them times a power of two, exactly.
_RUNGS_PER_OCTAVE = 16
_RUNG_MANTISSAS = tuple(2.0 ** (k / _RUNGS_PER_OCTAVE - 1.0) for k in range(_RUNGS_PER_OCTAVE))


def _rung_below(dt: float) -> float:
    """The largest rung of the dt ladder that does not exceed dt.

    A dt that is not positive and finite (+inf when v_r vanishes) passes
    through unchanged, for adapt_dt's dt_max clamp to handle.
    """
    if not 0.0 < dt < math.inf:
        return dt
    mantissa, exponent = math.frexp(dt)
    k = bisect.bisect_right(_RUNG_MANTISSAS, mantissa) - 1
    return math.ldexp(_RUNG_MANTISSAS[k], exponent)


def adapt_dt(state: State, cfg: StepperConfig) -> float:
    """min(rung below cfl * stable dt, dt_max, t_end - t), never more.

    The stable dt depends on v alone, through its face gradient v_r.
    cfl times it is rounded down to the ladder 2^(k/16) (16 rungs per
    octave, k an integer) before the clamp, so dt stays at or below the
    CFL step and changes only when that step moves to another rung: while
    it does not, step reuses both factorizations, at the price of a mean
    step about 2% below the CFL step.  The last step lands on t_end or
    short of it by round-off, which detect_blowup's relative test counts
    as done, so no step outruns the CFL step however short the horizon.

    When the state's own dt was the dt_max clamp, the stable dt is asked
    for no more than cap = dt_max / cfl: a bound of at least 2 * cap puts
    the rung below cfl times it above dt_max, so the clamp gives dt_max
    from that bound as from the exact one, and _stable_dt's one-reduction
    bound spares forming the rates.  A run whose dt stays below dt_max,
    such as a collapse, never tries that bound.
    """
    cap = cfg.dt_max / cfg.cfl if state.dt == cfg.dt_max else math.inf
    dt = _rung_below(cfg.cfl * _stable_dt(state.u.grid, gradient_faces(state.v), cap))
    return min(dt, cfg.dt_max, cfg.t_end - state.t)


def step(state: State, cfg: StepperConfig, solver: HelmholtzSolver) -> State:
    """Advance one IMEX step of size state.dt.

    w is the one state.u keeps (solved here if it has none), so a second
    step from the same state, at another dt, solves no w.  The new state
    is STALLED when a field is not finite or when dt is too small to
    change t (t + dt == t).
    """
    if state.status is not SimStatus.RUNNING:
        raise ConfigurationError(f"cannot step a state with status {state.status}")
    grid = state.u.grid
    dt = state.dt
    v = state.v.values
    # v+ is v plus one solve against v's defect dt V (w - (I - L) v), formed
    # from L's face fluxes, with no V (v + dt w) to cancel against V v
    defect = np.subtract(_kept_w(solver, state.u).values, v)
    defect *= grid.volumes
    _add_flux_divergence(defect, v, grid.coupling)
    defect *= dt
    v_plus = _adopt(shifted_solve(solver, 1.0 + dt, dt, defect, guess=v), grid)
    # u's right-hand side V u - dt (F+ - F-), dt F added from both sides
    flux = advective_flux(state.u, gradient_faces(v_plus))
    flux *= dt
    b = grid.volumes * state.u.values
    b[:-1] -= flux
    b[1:] += flux
    u_new = shifted_solve(solver, 1.0, dt, b)
    t = state.t + dt
    # a NaN makes both of u's reductions NaN and an infinity shows in one of
    # them; a non-finite v+ reaches u+ through v+_r and the flux, as every
    # cell has an interior face and 0 * inf is NaN
    u_max, u_min = np.maximum.reduce(u_new), np.minimum.reduce(u_new)
    ok = t != state.t and math.isfinite(u_max) and math.isfinite(u_min)
    # built like _evolve's states, without the frozen __init__; the cached
    # properties come filled, so run and the sample read this sup and min u
    # without a second pass over u
    new = object.__new__(State)
    new.__dict__.update(
        t=t,
        step=state.step + 1,
        u=_adopt(u_new, grid),
        v=v_plus,
        dt=dt,
        status=SimStatus.RUNNING if ok else SimStatus.STALLED,
        # max |u_i| is the larger of |max u| and |min u|; abs makes it +0.0
        # on a zero field, as sup_norm does
        sup=float(max(abs(u_max), abs(u_min))),
        min_u=float(u_min),
    )
    return new


def detect_blowup(state: State, cfg: StepperConfig, sup0: float) -> SimStatus:
    """Classify the current state by its own sup = sup_norm(state.u).

    BLOWN_UP when sup has grown past sup0 and reaches blowup_factor *
    sup0 (a zero density never blows up), STALLED when sup is not
    finite, COMPLETED at t_end, RUNNING otherwise.
    """
    sup = state.sup
    if not math.isfinite(sup):
        return SimStatus.STALLED
    if sup > sup0 and sup >= cfg.blowup_factor * sup0:
        return SimStatus.BLOWN_UP
    if state.t >= cfg.t_end * (1.0 - 1e-12):
        return SimStatus.COMPLETED
    return SimStatus.RUNNING


class TrajectorySample(NamedTuple):
    """One diagnostics row plus the integrals the probes need.

    The row a sink receives and Trajectory.append takes; its fields name
    the columns of run's Trajectory, in order.
    """

    t: float
    dt: float
    mass: float
    sup_u: float
    F: float
    D: float
    identity_residual: float
    int_v: float
    int_w: float
    min_u: float


class Trajectory:
    """A run's record: a growable float64 column per name, a row per sample.

    trajectory[name] is a float64 copy of that column.  Each column is an
    array('d'), so a row costs about 8 B per column and no Python object.
    """

    def __init__(self, names: Iterable[str] = TrajectorySample._fields):
        self._columns = {name: array("d") for name in names}
        self.names = tuple(self._columns)

    def append(self, row: Sequence[float]) -> None:
        """Append one row, its values in the order of names.

        A row of another length raises ValueError before any column grows.
        """
        if len(row) != len(self.names):
            raise ValueError(f"a row of {self.names} takes {len(self.names)} values, got {len(row)}")
        for column, x in zip(self._columns.values(), row):
            column.append(x)

    def __len__(self) -> int:
        return len(self._columns[self.names[0]])

    def __getitem__(self, name: str) -> np.ndarray:
        return np.array(self._columns[name])


@dataclass(frozen=True)
class RunSummary:
    """The run's record: summary.txt's first keys, in this order."""

    status: SimStatus
    t_final: float
    t_blowup: Optional[float]  # t_final when BLOWN_UP, else None
    steps: int
    peak_sup: float
    F0: float
    min_F: float  # smallest F over the samples; a NaN sample is skipped
    min_u: float  # smallest min u over the run's states, the initial one included
    first_negative_step: Optional[int]  # first step whose u has an entry < 0
    mass_initial: float  # int u of the first sample
    mass_final: float  # int u of the last sample


Sink = Callable[[State, TrajectorySample, EnergyReport], None]
"""Receives each sampled state with its diagnostics row and energy report."""


def _sample(
    state: State, solver: HelmholtzSolver, prev: Optional[TrajectorySample]
) -> tuple[TrajectorySample, EnergyReport]:
    """The diagnostics row of state, and its energy report."""
    rep = compute_energy(state.u, state.v, solver)
    res = 0.0
    if prev is not None and state.t > prev.t:
        res = identity_residual(prev, rep, state.t - prev.t)
    row = TrajectorySample(
        t=state.t,
        dt=state.dt,
        mass=integrate(state.u),
        sup_u=state.sup,
        F=rep.F,
        D=rep.D,
        identity_residual=res,
        int_v=integrate(state.v),
        int_w=integrate(rep.w),
        min_u=state.min_u,
    )
    return row, rep


def run(
    u0: RadialField,
    v0: RadialField,
    cfg: StepperConfig,
    solver: Optional[HelmholtzSolver] = None,
    sink: Optional[Sink] = None,
    max_steps: Optional[int] = None,
) -> tuple[State, RunSummary, Trajectory]:
    """March the system until t_end, blowup, stall, or max_steps.

    Emits a diagnostics sample at t = 0, every output_every steps, and at
    termination; sink (if given) receives each emitted (state, sample,
    energy report), the final state's last.  The report is not kept: w
    stays on the state's u for its step, and f and g go when the sink
    returns.  Returns (final state, summary, trajectory): the trajectory
    holds every emitted sample as a row of TrajectorySample's columns.
    The summary's min_u and first_negative_step cover every state, sampled
    or not; they only report, so a negative u neither ends the run nor is
    clipped.  u0 must be finite and nonnegative and v0 finite.
    """
    state = State(t=0.0, step=0, u=u0, v=v0, dt=cfg.dt_init)
    # a NaN makes min u NaN, which fails the test, and +inf shows in sup
    if not (state.min_u >= 0.0 and math.isfinite(state.sup)):
        raise ConfigurationError("initial cell density must be finite and nonnegative")
    if not np.isfinite(v0.values).all():
        raise ConfigurationError("initial signal must be finite")
    if not u0.grid.same_as(v0.grid):
        raise GridMismatchError("u0 and v0 live on different grids")
    if solver is None:
        solver = build_solver(u0.grid)

    # the one sup_norm of the run: every stepped state carries its own sup
    sup0 = peak = state.sup
    min_u, first_negative = state.min_u, None

    trajectory = Trajectory()
    row: Optional[TrajectorySample] = None

    def emit(st: State) -> None:
        nonlocal row
        row, report = _sample(st, solver, row)
        trajectory.append(row)
        if sink is not None:
            sink(st, row, report)

    emit(state)
    last_emitted = 0

    running = SimStatus.RUNNING  # a local: each enum member read costs a lookup
    while state.status is running:
        if max_steps is not None and state.step >= max_steps:
            break
        state = step(_evolve(state, dt=adapt_dt(state, cfg)), cfg, solver)
        peak = max(peak, state.sup)
        # a NaN compares false, so a stalled state keeps the earlier minimum;
        # u0 >= 0, so the first state below 0 also lowers min_u
        if state.min_u < min_u:
            min_u = state.min_u
            if min_u < 0.0 and first_negative is None:
                first_negative = state.step
        if state.status is running:
            status = detect_blowup(state, cfg, sup0)
            if status is not state.status:
                state = _evolve(state, status=status)
        if state.step % cfg.output_every == 0 and state.status is running:
            emit(state)
            last_emitted = state.step

    if state.step != last_emitted:
        emit(state)
    F, mass = trajectory["F"], trajectory["mass"]
    summary = RunSummary(
        status=state.status,
        t_final=state.t,
        t_blowup=state.t if state.status is SimStatus.BLOWN_UP else None,
        steps=state.step,
        peak_sup=peak,
        F0=float(F[0]),
        min_F=float(np.fmin.reduce(F)),
        min_u=min_u,
        first_negative_step=first_negative,
        mass_initial=float(mass[0]),
        mass_final=float(mass[-1]),
    )
    return state, summary, trajectory
