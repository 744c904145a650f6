"""IMEX time stepping for the coupled cell/signal system.

One step does, in order:
  (a) w = (I - L)^{-1} u                        (elliptic signal; read from
                                                 the state's energy report
                                                 when it carries one)
  (b) (I + dt (I - L)) v+ = v + dt w            (implicit linear v-update)
  (c) (I - dt L) u+ = u - dt div Phi(u, v+)     (implicit diffusion,
                                                 explicit upwind advection)
Both flux sums telescope, so the integral of u is conserved exactly;
upwinding plus the M-matrix solves keep u nonnegative whenever dt
respects the advective stability bound, which depends on v alone.
adapt_dt never takes a step above that bound: there is no step floor.

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
and min u, and one sum of v+, which checks v+; three solves, (a) to (c),
in four LAPACK dpttrs calls: (a) makes one, on the row-sum factors of
(I - L); (c) two, a first solve and its refinement pass; and (b) one,
the refinement pass of v itself, which is within O(dt) of v+
(shifted_solve's guess); and two factorizations, of the (b) and (c)
operators, only when dt moves to another rung of adapt_dt's ladder
2^(k/16).  A sampled state skips (a), so its step makes three dpttrs
calls: its energy report already solved w.  (b) and (c) hand
shifted_solve their right-hand sides as cell integrals, V (v + dt w) and
V u - dt (F+ - F-) with F the upwind face fluxes, the form the solves
work in, so no flux is divided by V only to be multiplied back.
adapt_dt's stability bound takes one reduction, over the transit and
outflow rates together.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .energy import EnergyReport, compute_energy, identity_residual
from .errors import ConfigurationError, GridMismatchError
from .grid import (
    Grid,
    RadialField,
    _adopt,
    gradient_faces,
    integrate,
    sup_norm,
)
from .helmholtz import HelmholtzSolver, build_solver, shifted_solve, solve

__all__ = [
    "SimStatus",
    "State",
    "StepperConfig",
    "TrajectorySample",
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
    """Simulation state owned by exactly one run loop.

    report, when set, is compute_energy of this state's (u, v): a sampled
    state carries it, w included, so the next step and the sink do not
    solve again.  A new u needs a new State (step builds one with
    report = None).

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
    report: Optional[EnergyReport] = None

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
    """Upwind chemotactic face flux A * u_up * vel, zero at both ends.

    vel is the face velocity v_r = gradient_faces(v), zero at r=0 and r=R.
    """
    grid = u.grid
    if vel.shape != (grid.N + 1,):
        raise GridMismatchError(
            f"face velocity must have one value per face ({grid.N + 1}), got {vel.shape}"
        )
    flux = np.zeros(grid.N + 1)
    inner = vel[1:-1]
    upwind = np.where(inner > 0.0, u.values[:-1], u.values[1:])
    upwind *= grid.face_areas[1:-1]
    np.multiply(upwind, inner, out=flux[1:-1])
    return flux


def _stable_dt(grid: Grid, vel: np.ndarray) -> float:
    """Largest dt keeping the explicit upwind update positivity-preserving.

    1 / max(max_faces |v_r| / spacing, max_i outflow_i / V_i) for the face
    velocity vel = v_r: the reciprocal of the fastest transit or per-cell
    outflow rate.  Positivity needs only the outflow rate; the transit
    rate is the one that binds on an inward collapse, because a cell's
    inner face has A / V < 1 / h, so a cell empties through it at less
    than |v_r| / h.  (On the README blowup data the transit rate is the
    larger at every step, by up to 9%.)  v_r = 0 everywhere gives +inf.
    """
    # both rates go into one buffer, so one reduction takes their maximum
    rates = np.empty(2 * grid.N + 1)
    transit, outflow = rates[: grid.N + 1], rates[grid.N + 1 :]
    np.absolute(vel, out=transit)
    transit /= grid.spacing
    area_vel = grid.face_areas * vel
    np.maximum(area_vel[1:], 0.0, out=outflow)
    outflow -= np.minimum(area_vel[:-1], 0.0, out=area_vel[:-1])
    outflow /= grid.volumes
    rate = float(np.maximum.reduce(rates))
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
    """
    dt = _rung_below(cfg.cfl * _stable_dt(state.u.grid, gradient_faces(state.v)))
    return min(dt, cfg.dt_max, cfg.t_end - state.t)


def step(state: State, cfg: StepperConfig, solver: HelmholtzSolver) -> State:
    """Advance one IMEX step of size state.dt.

    The new state is STALLED when a field is not finite (or v+ sums past
    the float range) or when dt is too small to change t (t + dt == t).
    """
    if state.status is not SimStatus.RUNNING:
        raise ConfigurationError(f"cannot step a state with status {state.status}")
    grid = state.u.grid
    dt = state.dt
    w = state.report.w if state.report is not None else solve(solver, state.u)
    # both right-hand sides are cell integrals: V (v + dt w), and
    # V u - dt (F+ - F-) from the upwind face fluxes F
    b = w.values * dt
    b += state.v.values
    b *= grid.volumes
    v_new = shifted_solve(solver, 1.0 + dt, dt, b, guess=state.v.values)
    v_plus = _adopt(v_new, grid)
    flux = advective_flux(state.u, gradient_faces(v_plus))
    outflow = np.subtract(flux[1:], flux[:-1])
    outflow *= dt
    b = grid.volumes * state.u.values
    b -= outflow
    u_new = shifted_solve(solver, 1.0, dt, b)
    t = state.t + dt
    # a NaN makes both of u's reductions NaN and an infinity shows in one of
    # them; v+, whose max and min nothing reads, is checked by its sum, which
    # a non-finite entry makes non-finite (and entries past ~1e305, whose sum
    # overflows, stall the step too)
    u_max, u_min = np.maximum.reduce(u_new), np.minimum.reduce(u_new)
    ok = t != state.t and all(map(math.isfinite, (u_max, u_min, np.add.reduce(v_new))))
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
        report=None,
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


@dataclass(frozen=True)
class TrajectorySample:
    """One diagnostics row plus the integrals the probes need.

    Scalars only: a run keeps every sample, so no per-cell field belongs here.
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


@dataclass(frozen=True)
class RunSummary:
    status: SimStatus
    t_final: float
    peak_sup: float
    t_blowup: Optional[float]  # t_final when BLOWN_UP, else None
    steps: int
    F0: float
    min_F: float
    min_u: float  # smallest min u over the run's states, the initial one included
    first_negative_step: Optional[int]  # first step whose u has an entry < 0


Sink = Callable[[State, TrajectorySample], None]


def _sample(
    state: State, solver: HelmholtzSolver, prev: Optional[TrajectorySample]
) -> tuple[State, TrajectorySample]:
    """The diagnostics of state, and state carrying its energy report."""
    rep = compute_energy(state.u, state.v, solver)
    res = 0.0
    if prev is not None and state.t > prev.t:
        res = identity_residual(prev, rep, state.t - prev.t)
    return _evolve(state, report=rep), TrajectorySample(
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


def run(
    u0: RadialField,
    v0: RadialField,
    cfg: StepperConfig,
    solver: Optional[HelmholtzSolver] = None,
    sink: Optional[Sink] = None,
    max_steps: Optional[int] = None,
) -> tuple[State, RunSummary, list[TrajectorySample]]:
    """March the system until t_end, blowup, stall, or max_steps.

    Emits a diagnostics sample at t = 0, every output_every steps, and at
    termination; sink (if given) receives each emitted (state, sample),
    the state carrying its energy report, as does the returned final state.
    The summary's min_u and first_negative_step cover every state, sampled
    or not; they only report, so a negative u neither ends the run nor is
    clipped.
    """
    state = State(t=0.0, step=0, u=u0, v=v0, dt=cfg.dt_init)
    if state.min_u < 0.0:
        raise ConfigurationError("initial cell density must be nonnegative")
    if not u0.grid.same_as(v0.grid):
        raise GridMismatchError("u0 and v0 live on different grids")
    if solver is None:
        solver = build_solver(u0.grid)

    # the one sup_norm of the run: every stepped state carries its own sup
    sup0 = peak = state.sup
    min_u, first_negative = state.min_u, None

    samples: list[TrajectorySample] = []

    def emit(st: State) -> State:
        st, smp = _sample(st, solver, samples[-1] if samples else None)
        samples.append(smp)
        if sink is not None:
            sink(st, smp)
        return st

    state = emit(state)
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
            state = emit(state)
            last_emitted = state.step

    if state.step != last_emitted:
        state = emit(state)
    summary = RunSummary(
        status=state.status,
        t_final=state.t,
        peak_sup=peak,
        t_blowup=state.t if state.status is SimStatus.BLOWN_UP else None,
        steps=state.step,
        F0=samples[0].F,
        min_F=min(s.F for s in samples),
        min_u=min_u,
        first_negative_step=first_negative,
    )
    return state, summary, samples
