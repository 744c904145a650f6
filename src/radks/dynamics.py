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
respects the advective stability bound.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .energy import EnergyReport, compute_energy, identity_residual
from .errors import ConfigurationError, GridMismatchError
from .grid import (
    Grid,
    RadialField,
    _adopt,
    flux_divergence,
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
    """

    t: float
    step: int
    u: RadialField
    v: RadialField
    dt: float
    status: SimStatus = SimStatus.RUNNING
    t_blowup: Optional[float] = None
    report: Optional[EnergyReport] = None


@dataclass(frozen=True)
class StepperConfig:
    cfl: float
    dt_init: float
    dt_min: float
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
        if not self.dt_min > 0.0:
            problems["dt_min"] = f"dt_min must be positive, got {self.dt_min}"
        elif "dt_max" not in problems and not self.dt_min <= self.dt_max:
            problems["dt_min"] = f"dt_min must not exceed dt_max={self.dt_max}, got {self.dt_min}"
        # dt_init is compared only with bounds that passed their own checks
        if {"dt_min", "dt_max"}.isdisjoint(problems) and not (
            self.dt_min <= self.dt_init <= self.dt_max
        ):
            problems["dt_init"] = (
                f"dt_init must lie in [dt_min, dt_max] = [{self.dt_min}, {self.dt_max}], "
                f"got {self.dt_init}"
            )
        if not self.t_end > 0.0:
            problems["t_end"] = f"t_end must be positive, got {self.t_end}"
        if not self.blowup_factor > 1.0:
            problems["blowup_factor"] = f"blowup_factor must exceed 1, got {self.blowup_factor}"
        if self.output_every < 1:
            problems["output_every"] = f"output_every must be >= 1, got {self.output_every}"
        if problems:
            raise ConfigurationError(problems=problems)


def default_stepper_config(grid: Grid, t_end: float, **overrides) -> StepperConfig:
    """Config with the documented defaults: dt_min and blowup factor 1e6.

    dt_min = (R 1e-8/N) (h_min/h)^2: on a uniform mesh that is R 1e-8/N;
    on a graded one the floor shrinks with the squared ratio of the
    smallest to the largest cell width, so it stays far below the steps
    the smallest cells need.  The default dt_init, 1e-6, is clamped into
    [dt_min, dt_max]; an explicit dt_init outside them is rejected.
    """
    dt_min = grid.R * 1e-8 / grid.N * (grid.h_min / grid.h) ** 2
    values = dict(
        cfl=0.9,
        dt_min=dt_min,
        dt_max=1e-2,
        t_end=t_end,
        blowup_factor=1e6,
        output_every=10,
    )
    values.update(overrides)
    if "dt_init" not in values:
        values["dt_init"] = min(max(dt_min, 1e-6, values["dt_min"]), values["dt_max"])
    return StepperConfig(**values)


def advective_flux(u: RadialField, v: RadialField) -> np.ndarray:
    """Upwind chemotactic face flux A * u_up * v_r; zero at both ends."""
    if not u.grid.same_as(v.grid):
        raise GridMismatchError("u and v live on different grids")
    grid = u.grid
    vel = gradient_faces(v)  # face velocity v_r, zero at r=0 and r=R
    flux = np.zeros(grid.N + 1)
    inner = vel[1:-1]
    upwind = np.where(inner > 0.0, u.values[:-1], u.values[1:])
    flux[1:-1] = grid.face_areas[1:-1] * upwind * inner
    return flux


def _stable_dt(u: RadialField, v: RadialField) -> float:
    """Largest dt keeping the explicit upwind update positivity-preserving.

    min(min_faces spacing / |v_r|, min_i V_i / outflow_i); near the origin
    the per-cell outflow bound is the binding one because face areas
    outgrow volumes.
    """
    grid = u.grid
    vel = gradient_faces(v)
    speed = np.abs(vel)
    if float(np.max(speed)) == 0.0:
        return math.inf
    area_vel = grid.face_areas * vel
    outflow = np.maximum(area_vel[1:], 0.0) - np.minimum(area_vel[:-1], 0.0)
    with np.errstate(divide="ignore"):
        transit = float(np.min(grid.spacing / speed))
        per_cell = np.where(outflow > 0.0, grid.volumes / outflow, math.inf)
    return min(transit, float(np.min(per_cell)))


def adapt_dt(state: State, cfg: StepperConfig) -> float:
    """clamp(cfl * stable dt, dt_min, dt_max), then capped by t_end - t."""
    dt = cfg.cfl * _stable_dt(state.u, state.v)
    dt = min(max(dt, cfg.dt_min), cfg.dt_max)
    remaining = cfg.t_end - state.t
    dt = min(dt, remaining)
    # absorb a round-off sliver into the final step instead of leaving a
    # dt ~ eps step whose diagnostics are pure noise
    if remaining - dt < 1e-12 * max(cfg.t_end, 1.0):
        dt = remaining
    return dt


def step(state: State, cfg: StepperConfig, solver: HelmholtzSolver) -> State:
    """Advance one IMEX step of size state.dt."""
    if state.status is not SimStatus.RUNNING:
        raise ConfigurationError(f"cannot step a state with status {state.status}")
    grid = state.u.grid
    dt = state.dt
    w = state.report.w if state.report is not None else solve(solver, state.u)
    v_new = shifted_solve(solver, 1.0 + dt, dt, state.v.values + dt * w.values)
    v_plus = _adopt(v_new, grid)
    flux = advective_flux(state.u, v_plus)
    rhs = state.u.values - dt * flux_divergence(grid, flux)
    u_new = shifted_solve(solver, 1.0, dt, rhs)
    ok = np.all(np.isfinite(u_new)) and np.all(np.isfinite(v_new))
    return State(
        t=state.t + dt,
        step=state.step + 1,
        u=_adopt(u_new, grid),
        v=v_plus,
        dt=dt,
        status=SimStatus.RUNNING if ok else SimStatus.STALLED,
    )


def detect_blowup(
    state: State,
    cfg: StepperConfig,
    sup0: float,
    history=None,
    sup: Optional[float] = None,
) -> tuple[SimStatus, Optional[float]]:
    """Classify the current state.

    Blowup is declared when the sup norm passes blowup_factor * sup0, or
    when dt sits at its floor and the sup norm doubled within the last
    10 * dt_min of simulated time (history holds recent (t, sup) pairs).
    sup, when given, is sup_norm(state.u), already taken by the caller.
    """
    s = sup_norm(state.u) if sup is None else sup
    if not math.isfinite(s):
        return SimStatus.STALLED, None
    if s >= cfg.blowup_factor * sup0:
        return SimStatus.BLOWN_UP, state.t
    if history and state.dt <= cfg.dt_min:
        window = 10.0 * cfg.dt_min
        recent = [sv for tv, sv in history if state.t - tv <= window]
        if recent and s >= 2.0 * min(recent):
            return SimStatus.BLOWN_UP, state.t
    if state.t >= cfg.t_end * (1.0 - 1e-14):
        return SimStatus.COMPLETED, None
    return SimStatus.RUNNING, None


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
    t_blowup: Optional[float]
    steps: int
    F0: float
    min_F: float


Sink = Callable[[State, TrajectorySample], None]


def _sample(
    state: State, solver: HelmholtzSolver, prev: Optional[TrajectorySample]
) -> tuple[State, TrajectorySample]:
    """The diagnostics of state, and state carrying its energy report."""
    rep = compute_energy(state.u, state.v, solver)
    res = 0.0
    if prev is not None and state.t > prev.t:
        res = identity_residual(prev, rep, state.t - prev.t)
    return replace(state, report=rep), TrajectorySample(
        t=state.t,
        dt=state.dt,
        mass=integrate(state.u),
        sup_u=sup_norm(state.u),
        F=rep.F,
        D=rep.D,
        identity_residual=res,
        int_v=integrate(state.v),
        int_w=integrate(rep.w),
        min_u=float(np.min(state.u.values)),
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
    """
    if np.min(u0.values) < 0.0:
        raise ConfigurationError("initial cell density must be nonnegative")
    if not u0.grid.same_as(v0.grid):
        raise GridMismatchError("u0 and v0 live on different grids")
    if solver is None:
        solver = build_solver(u0.grid)

    state = State(t=0.0, step=0, u=u0, v=v0, dt=cfg.dt_init)
    sup0 = sup_norm(u0)
    peak = sup0
    history: deque = deque()

    samples: list[TrajectorySample] = []

    def emit(st: State) -> State:
        st, smp = _sample(st, solver, samples[-1] if samples else None)
        samples.append(smp)
        if sink is not None:
            sink(st, smp)
        return st

    state = emit(state)
    f0 = samples[0].F
    min_f = f0
    last_emitted = 0

    while state.status is SimStatus.RUNNING:
        if max_steps is not None and state.step >= max_steps:
            break
        dt = adapt_dt(state, cfg)
        state = replace(state, dt=dt)
        state = step(state, cfg, solver)
        s = sup_norm(state.u)
        peak = max(peak, s)
        history.append((state.t, s))
        while history and state.t - history[0][0] > 20.0 * cfg.dt_min:
            history.popleft()
        if state.status is SimStatus.RUNNING:
            status, t_b = detect_blowup(state, cfg, sup0, history, sup=s)
            if status is not state.status:
                state = replace(state, status=status, t_blowup=t_b)
        if state.step % cfg.output_every == 0 and state.status is SimStatus.RUNNING:
            state = emit(state)
            last_emitted = state.step
            min_f = min(min_f, samples[-1].F)

    if state.step != last_emitted:
        state = emit(state)
        min_f = min(min_f, samples[-1].F)
    summary = RunSummary(
        status=state.status,
        t_final=state.t,
        peak_sup=peak,
        t_blowup=state.t_blowup,
        steps=state.step,
        F0=f0,
        min_F=min_f,
    )
    return state, summary, samples
