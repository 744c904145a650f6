import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radks import dynamics, helmholtz
from radks.dynamics import (
    SimStatus,
    State,
    StepperConfig,
    Trajectory,
    TrajectorySample,
    adapt_dt,
    advective_flux,
    default_stepper_config,
    detect_blowup,
    run,
    step,
)
from radks.energy import compute_energy
from radks.errors import ConfigurationError, GridMismatchError
from radks.grid import (
    RadialField,
    constant_field,
    gradient_faces,
    integrate,
    make_grid,
    sup_norm,
)
from radks.helmholtz import build_solver, solve
from radks.initial_data import base_data, build_family, family_eta_star


def fresh_vr(v):
    """v_r computed on a fresh copy of v, which keeps nothing yet."""
    return gradient_faces(RadialField(v.values, v.grid))


@pytest.fixture(scope="module")
def grid():
    return make_grid(5, 1.0, 128)


@pytest.fixture(scope="module")
def solver(grid):
    return build_solver(grid)


def smooth_pair(grid, seed=0, amp=0.2):
    rng = np.random.default_rng(seed)
    a = amp * (2 * rng.random(4) - 1)
    b = amp * (2 * rng.random(4) - 1)
    u = 1.0 + sum(a[k] * np.cos((k + 1) * math.pi * grid.centers / grid.R) for k in range(4))
    v = 1.0 + sum(b[k] * np.cos((k + 1) * math.pi * grid.centers / grid.R) for k in range(4))
    return RadialField(u, grid), RadialField(v, grid)


def test_stepper_config_validation():
    with pytest.raises(ConfigurationError):
        StepperConfig(cfl=0.0, dt_init=1e-3, dt_max=1e-2, t_end=1.0)
    with pytest.raises(ConfigurationError):
        StepperConfig(cfl=0.5, dt_init=0.0, dt_max=1e-2, t_end=1.0)
    with pytest.raises(ConfigurationError):
        StepperConfig(cfl=0.5, dt_init=1e-3, dt_max=1e-2, t_end=1.0, blowup_factor=0.5)


def test_default_config_rejects_explicit_dt_init_outside_bounds(grid):
    # the default dt_init is min(1e-6, dt_max); an explicit one outside
    # (0, dt_max] is rejected, not clamped
    cfg = default_stepper_config(grid, t_end=1.0)
    assert cfg.dt_init == 1e-6 and cfg.blowup_factor == 1e6
    assert default_stepper_config(grid, t_end=1.0, dt_max=1e-7).dt_init == 1e-7
    for dt_init in (-1.0, 0.0, 2e-2):
        with pytest.raises(ConfigurationError) as err:
            default_stepper_config(grid, t_end=1.0, dt_init=dt_init)
        assert set(err.value.problems) == {"dt_init"}


def test_stepper_config_problems_are_keyed_without_follow_ons():
    with pytest.raises(ConfigurationError) as err:
        StepperConfig(cfl=3.0, dt_init=1e-3, dt_max=-1.0, t_end=-1.0)
    # dt_init is not compared with the rejected dt_max
    assert set(err.value.problems) == {"cfl", "dt_max", "t_end"}


def test_step_mass_conserved_graded():
    g = make_grid(5, 1.0, 128, h_min=1e-9)
    u0, v0 = smooth_pair(g)
    cfg = default_stepper_config(g, t_end=1e9, dt_max=1e-3, output_every=1)
    _, _, samples = run(u0, v0, cfg, max_steps=20)
    m0 = samples["mass"][0]
    assert np.max(np.abs(samples["mass"] - m0)) <= 1e-12 * m0
    assert np.min(samples["min_u"]) >= 0.0


def test_advective_flux_zero_cases(grid):
    # one flux per interior face: none passes r = 0 or r = R
    u = constant_field(grid, 1.0)
    flat = advective_flux(u, gradient_faces(constant_field(grid, 2.0)))
    assert flat.shape == (grid.N - 1,) and np.all(flat == 0.0)
    v = RadialField(np.linspace(0, 1, grid.N), grid)
    empty = advective_flux(constant_field(grid, 0.0), gradient_faces(v))
    assert empty.shape == (grid.N - 1,) and np.all(empty == 0.0)


def test_advective_flux_rejects_cell_values(grid):
    # the flux takes the face velocity, one value per face, not v itself
    with pytest.raises(GridMismatchError):
        advective_flux(constant_field(grid, 1.0), constant_field(grid, 2.0).values)


def test_advective_flux_upwind_stencil():
    # R=1, N=4 so h = 0.25 exactly; v ramps with slope exactly 1
    g = make_grid(5, 1.0, 4)
    u_vals = np.array([1.0, 2.0, 3.0, 4.0])
    u = RadialField(u_vals, g)
    v = RadialField(g.h * np.arange(4.0), g)
    flux = advective_flux(u, gradient_faces(v))
    # the 3 interior faces alone: the ends pass no flux
    assert flux.shape == (3,)
    # positive face velocity: upwind value comes from the inner cell i
    assert np.all(flux == g.face_areas[1:-1] * u_vals[:-1])
    # reversed ramp: upwind value comes from the outer cell i+1
    flux_rev = advective_flux(u, gradient_faces(RadialField(-g.h * np.arange(4.0), g)))
    assert np.all(flux_rev == -g.face_areas[1:-1] * u_vals[1:])


def test_adapt_dt_zero_velocity(grid):
    cfg = default_stepper_config(grid, t_end=1.0, dt_max=5e-3)
    st0 = State(0.9995, 0, constant_field(grid, 1.0), constant_field(grid, 2.0), 1e-3)
    # no velocity: dt_max clamped by the remaining horizon
    assert adapt_dt(st0, cfg) == pytest.approx(1.0 - 0.9995)
    st1 = State(0.0, 0, constant_field(grid, 1.0), constant_field(grid, 2.0), 1e-3)
    assert adapt_dt(st1, cfg) == cfg.dt_max


def ramp_state(grid, speed, t=0.0):
    # inward linear ramp: v_r = -speed at every interior face, so each cell
    # but the first loses mass through its inner face alone
    v = RadialField(-speed * grid.centers, grid)
    return State(t, 0, constant_field(grid, 1.0), v, 1e-3)


def test_adapt_dt_cfl_formula():
    g = make_grid(5, 1.0, 100)
    cfg = default_stepper_config(g, t_end=1e9, cfl=0.5, dt_max=1.0)
    # the outflow rate of cell i >= 1 is A_{i-1/2} * speed / V_i; the
    # outermost cells, whose V / A is nearest h, bind
    bound = 0.5 * min(g.volumes[1:] / (g.face_areas[1:-1] * 10.0))
    dt = adapt_dt(ramp_state(g, 10.0), cfg)
    # the largest rung 2^(k/16) <= bound: 2^(-11 + 1/16) < 0.00051020 < 2^(-11 + 2/16)
    assert dt == math.ldexp(dynamics._RUNG_MANTISSAS[1], -10) == 0.0005098993078258856
    assert bound * 2 ** (-1 / 16) < dt <= bound


def test_rung_below_keeps_rungs_and_rounds_down_monotonically():
    mantissas = dynamics._RUNG_MANTISSAS
    assert len(mantissas) == 16 and mantissas[0] == 0.5
    assert all(a * 2 ** (1 / 16) == pytest.approx(b, rel=1e-15)
               for a, b in zip(mantissas, mantissas[1:] + (1.0,)))
    rungs = [math.ldexp(m, e) for m in mantissas for e in range(-1021, 8)]
    assert all(dynamics._rung_below(r) == r for r in rungs)
    rng = np.random.default_rng(3)
    bounds = np.sort(10.0 ** rng.uniform(-12.0, 2.0, 4000)).tolist()
    snapped = [dynamics._rung_below(b) for b in bounds]
    assert all(a <= b for a, b in zip(snapped, snapped[1:]))
    assert all(b * 2 ** (-1 / 16) < s <= b for b, s in zip(bounds, snapped))
    # a dense sweep of one octave lands on its 16 rungs and no other value
    octave = [dynamics._rung_below(x) for x in np.linspace(1.0, 2.0, 1001)[:-1].tolist()]
    assert sorted(set(octave)) == [2.0 * m for m in mantissas]
    # +inf (no velocity) is left for adapt_dt's dt_max clamp
    assert dynamics._rung_below(math.inf) == math.inf


def test_adapt_dt_clamps_and_horizon_act_after_the_ladder():
    g = make_grid(5, 1.0, 100)
    # a CFL step far above dt_max gives dt_max itself, though 1e-3 is no rung
    cfg = default_stepper_config(g, t_end=1e9, cfl=0.5, dt_max=1e-3)
    assert adapt_dt(ramp_state(g, 1e-3), cfg) == 1e-3
    # a remaining horizon below the rung is taken as it is
    cfg = default_stepper_config(g, t_end=1.0, cfl=0.5, dt_max=1.0)
    st = ramp_state(g, 10.0, t=1.0 - 3e-4)
    assert adapt_dt(st, cfg) == 1.0 - st.t


@st.composite
def capped_velocities(draw):
    """(grid, v, cap) with v from flat to a steep bump, perhaps plus a
    zigzag that makes every cell's outflow rate bind, and cap on either
    side of half the dt that the one-reduction rate max |v_r| *
    _rate_per_speed(grid) gives, where the capped bound stops forming the
    rates."""
    n = draw(st.integers(min_value=5, max_value=8))
    N = draw(st.integers(min_value=32, max_value=512))
    log_h = draw(st.one_of(st.none(), st.floats(min_value=-12.0, max_value=math.log10(0.5 / N))))
    g = make_grid(n, 1.0, N, h_min=None if log_h is None else 10.0**log_h)
    # the bottom of the exponent range is a flat v, whose v_r = 0
    exponent = draw(st.floats(min_value=-7.0, max_value=8.0))
    height = 0.0 if exponent < -6.0 else 10.0**exponent
    width = draw(st.floats(min_value=0.01, max_value=0.5))
    zigzag = draw(st.sampled_from((0.0, 1e-3, 1.0))) * (-1.0) ** np.arange(N)
    v = RadialField(1.0 + height * np.exp(-((g.centers / width) ** 2)) + zigzag, g)
    vmax = float(np.max(np.abs(gradient_faces(v))))
    threshold = 0.5 / (vmax * dynamics._rate_per_speed(g)) if vmax > 0.0 else 1.0
    cap = threshold * 2.0 ** draw(st.floats(min_value=-2.0, max_value=2.0))
    return g, v, cap


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=capped_velocities())
def test_capped_stable_dt_is_exact_where_adapt_dt_can_tell(case):
    # the capped bound is the rates' own, or one of at least 2 * cap that
    # the rates do not undercut; so adapt_dt's dt is the full path's, bit
    # for bit, after a clamped step (cap = dt_max / cfl) and after any other
    g, v, cap = case
    vel = gradient_faces(v)
    exact = dynamics._rates_stable_dt(g, vel)
    assert dynamics._stable_dt(g, vel) == exact
    capped = dynamics._stable_dt(g, vel, cap)
    assert capped == exact or 2.0 * cap <= capped <= exact
    cfg = default_stepper_config(g, t_end=1e9, cfl=0.9, dt_max=0.9 * cap)
    full = min(dynamics._rung_below(cfg.cfl * exact), cfg.dt_max)
    for dt in (cfg.dt_max, 0.5 * cfg.dt_max):
        assert adapt_dt(State(0.0, 1, v, v, dt), cfg) == full


@st.composite
def binding_velocities(draw):
    """(grid, v_r) with |v_r| = speed at every interior face, signed so
    that the cell that sets the grid's rate constant loses mass through
    each of its faces: its rate is then speed times the constant, up to
    the raises and, for a speed other than 1, a few roundings."""
    n = draw(st.integers(min_value=5, max_value=8))
    N = draw(st.integers(min_value=32, max_value=512))
    log_h = draw(st.one_of(st.none(), st.floats(min_value=-12.0, max_value=math.log10(0.5 / N))))
    g = make_grid(n, 1.0, N, h_min=None if log_h is None else 10.0**log_h)
    speed = 10.0 ** draw(st.one_of(st.just(0.0), st.floats(min_value=-8.0, max_value=8.0)))
    k = int(np.argmax((g.face_areas[:-1] + g.face_areas[1:]) / g.volumes))
    vel = np.zeros(N + 1)
    vel[1 : k + 1] = -speed  # inward out of cell k, through its inner face
    vel[k + 1 : N] = speed   # outward out of cell k, through its outer face
    return g, vel


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=binding_velocities())
def test_capped_stable_dt_never_overshoots_at_the_last_ulp(case):
    # the early exit's bound is the binding cell's own rate but for the
    # raises and a few roundings, so only the constant's raise above the
    # rates' keeps the early exit at or below the exact bound: without it
    # every case fails, and at the rates' own 2^-48 about a fifth of the
    # speeds other than 1 do
    g, vel = case
    cap = 0.25 / (np.max(np.abs(vel)) * dynamics._rate_per_speed(g))
    capped = dynamics._stable_dt(g, vel, cap)
    assert 2.0 * cap <= capped <= dynamics._rates_stable_dt(g, vel)


@st.composite
def face_velocities(draw):
    """(grid, v_r, u) with v_r an inward ramp, an outward flow or a zigzag
    of any speed, and u >= 0 with some empty cells."""
    n = draw(st.integers(min_value=5, max_value=8))
    N = draw(st.integers(min_value=32, max_value=512))
    log_h = draw(st.one_of(st.none(), st.floats(min_value=-12.0, max_value=math.log10(0.5 / N))))
    g = make_grid(n, 1.0, N, h_min=None if log_h is None else 10.0**log_h)
    speed = 10.0 ** draw(st.floats(min_value=-3.0, max_value=8.0))
    r = g.faces[1:-1] / g.R
    shape = draw(st.sampled_from(("inward", "outward", "zigzag")))
    vel = np.zeros(N + 1)
    if shape == "zigzag":
        vel[1:-1] = speed * (-1.0) ** np.arange(N - 1) * (1.0 + r)
    else:
        sign = -1.0 if shape == "inward" else 1.0
        vel[1:-1] = sign * speed * r ** draw(st.floats(min_value=0.0, max_value=2.0))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=10_000)))
    u = rng.random(N) * (rng.random(N) < 0.7)
    return g, vel, u


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=face_velocities())
def test_stable_dt_is_the_sharp_positivity_bound_of_the_upwind_update(case):
    # at dt = _stable_dt the explicit upwind update V u - dt (F+ - F-) keeps
    # every cell >= 0; just past it, the cell that empties fastest, holding
    # all the mass, goes negative, so no larger rate (such as the transit
    # rate |v_r| / spacing) holds dt below it
    g, vel, u = case
    dt = dynamics._stable_dt(g, vel)

    def update(values, dt):
        flux = np.zeros(g.N + 1)
        flux[1:-1] = advective_flux(RadialField(values, g), vel)
        return g.volumes * values - dt * (flux[1:] - flux[:-1])

    assert 0.0 < dt < math.inf
    assert np.min(update(u, dt)) >= 0.0
    # cell i loses mass through its outer face where v_r > 0, its inner
    # face where v_r < 0
    leaving = g.face_areas[1:] * np.maximum(vel[1:], 0.0) + g.face_areas[:-1] * np.maximum(
        -vel[:-1], 0.0
    )
    spike = np.zeros(g.N)
    spike[np.argmax(leaving / g.volumes)] = 1.0
    assert np.min(update(spike, dt)) >= 0.0
    assert np.min(update(spike, dt * (1.0 + 2.0**-20))) < 0.0


def test_coarse_collapse_takes_its_steps_at_the_outflow_bound():
    # the README bump on 64 cells: its core soon fits in one cell, where the
    # transit rate overstates the outflow rate by up to (2^n - 1) / n, so a
    # transit-bound run crawls (7565 steps to t = 0.02); u stays positive
    g = make_grid(5, 1.0, 64)
    s = build_solver(g)
    u0, v0 = base_data("bump", g, s, baseline=1.0, amplitude=2e7, width=0.06,
                       v_mode="relaxed")
    cfg = default_stepper_config(g, t_end=0.02, output_every=100)
    _, summary, _ = run(u0, v0, cfg, solver=s)
    assert summary.status is SimStatus.COMPLETED
    assert summary.steps <= 1500
    assert summary.min_u > 0.0 and summary.first_negative_step is None


def count_rate_paths(monkeypatch) -> dict:
    """Count _stable_dt calls, and those that formed the rates."""
    counts = {"calls": 0, "rates": 0}
    bound, rates = dynamics._stable_dt, dynamics._rates_stable_dt

    def counted_bound(g, vel, cap=math.inf):
        counts["calls"] += 1
        return bound(g, vel, cap)

    def counted_rates(g, vel):
        counts["rates"] += 1
        return rates(g, vel)

    monkeypatch.setattr(dynamics, "_stable_dt", counted_bound)
    monkeypatch.setattr(dynamics, "_rates_stable_dt", counted_rates)
    return counts


def test_capped_stable_dt_of_no_velocity_and_of_a_nan(grid, monkeypatch):
    counts = count_rate_paths(monkeypatch)
    # v_r = 0 needs no rates: the bound is +inf with or without a cap
    zero = np.zeros(grid.N + 1)
    assert dynamics._stable_dt(grid, zero, 1.0) == math.inf and counts["rates"] == 0
    assert dynamics._stable_dt(grid, zero) == math.inf and counts["rates"] == 1
    # a NaN v_r makes the one-reduction bound NaN, which falls through to
    # the rates: NaN as without a cap
    vel = np.linspace(0.0, 1.0, grid.N + 1)
    vel[7] = math.nan
    assert math.isnan(dynamics._stable_dt(grid, vel, 1e-9)) and counts["rates"] == 2
    assert math.isnan(dynamics._stable_dt(grid, vel))


def test_relaxing_run_at_dt_max_forms_the_rates_on_few_steps(monkeypatch):
    # verify's conservation row: dt sits at dt_max, where one reduction
    # over |v_r| shows that the rates could not move dt
    from radks.verify import _smooth_pair

    g = make_grid(5, 1.0, 400)
    u0, v0 = _smooth_pair(g)
    cfg = default_stepper_config(g, t_end=1e9, dt_max=2e-3, output_every=100)
    counts = count_rate_paths(monkeypatch)
    _, summary, _ = run(u0, v0, cfg, max_steps=10_000)
    assert summary.steps == counts["calls"] == 10_000
    assert 0 < counts["rates"] < 1_000


def test_collapse_forms_the_rates_on_every_step(monkeypatch):
    # the README bump: dt stays below dt_max to the blowup, so no step
    # tries the one-reduction bound
    g = make_grid(5, 1.0, 256)
    s = build_solver(g)
    u0, v0 = base_data("bump", g, s, baseline=1.0, amplitude=2e7, width=0.06,
                       v_mode="relaxed")
    cfg = default_stepper_config(g, t_end=0.5, output_every=50)
    counts = count_rate_paths(monkeypatch)
    _, summary, _ = run(u0, v0, cfg, solver=s)
    assert summary.status is SimStatus.BLOWN_UP
    assert summary.steps == counts["calls"] == counts["rates"]


def test_adapt_dt_follows_a_steep_signal_and_keeps_u_nonnegative(grid, solver):
    # no step floor: however small the CFL step, dt does not exceed it, so
    # the upwind step keeps u nonnegative
    cfg = default_stepper_config(grid, t_end=1e9)
    st = ramp_state(grid, 1e12)
    dt = adapt_dt(st, cfg)
    assert 0.0 < dt <= cfg.cfl * dynamics._stable_dt(grid, fresh_vr(st.v))
    new = step(replace(st, dt=dt), cfg, solver)
    assert new.status is SimStatus.RUNNING
    assert float(new.u.values.min()) >= 0.0


def test_step_below_half_an_ulp_of_t_stalls(grid, solver):
    # at t = 1 the CFL step of a slope-1e20 signal (~1e-22) cannot move t
    cfg = default_stepper_config(grid, t_end=2.0)
    st = ramp_state(grid, 1e20, t=1.0)
    dt = adapt_dt(st, cfg)
    assert 0.0 < dt <= cfg.cfl * dynamics._stable_dt(grid, fresh_vr(st.v))
    assert 1.0 + dt == 1.0
    new = step(replace(st, dt=dt), cfg, solver)
    assert new.status is SimStatus.STALLED and new.t == 1.0


def test_run_ends_stalled_when_a_step_leaves_t_in_place(grid, solver, monkeypatch):
    # the first step sees no velocity and takes dt_max to t = 1; from then
    # on the CFL bound is 1e-22, that of a slope-1e20 signal, too small to
    # move t
    bounds = iter([math.inf])
    monkeypatch.setattr(dynamics, "_stable_dt", lambda g, vel, cap=math.inf: next(bounds, 1e-22))
    cfg = default_stepper_config(grid, t_end=2.0, dt_max=1.0)
    u = constant_field(grid, 1.0)
    state, summary, samples = run(u, u, cfg, solver=solver, max_steps=10)
    assert summary.status is state.status is SimStatus.STALLED
    assert summary.steps == 2 and summary.t_final == 1.0
    assert summary.t_blowup is None
    assert samples["t"].tolist() == [0.0, 1.0]


def test_run_keeps_the_first_negative_step_through_a_stall(grid, solver, monkeypatch):
    # step 1 leaves u below zero and step 2 a NaN, which stalls the run: the
    # NaN min u of the last state must not hide the negative one before it
    inner_step = dynamics.step

    def tampered(state, cfg, solver):
        new = inner_step(state, cfg, solver)
        u = new.u.values.copy()
        u[0] = -1.0 if new.step == 1 else math.nan
        status = SimStatus.RUNNING if new.step == 1 else SimStatus.STALLED
        return State(new.t, new.step, RadialField(u, grid), new.v, new.dt, status)

    monkeypatch.setattr(dynamics, "step", tampered)
    cfg = default_stepper_config(grid, t_end=1.0, dt_max=2e-3)
    u0, v0 = smooth_pair(grid, seed=2)
    _, summary, _ = run(u0, v0, cfg, solver=solver, max_steps=10)
    assert summary.status is SimStatus.STALLED and summary.steps == 2
    assert summary.first_negative_step == 1 and summary.min_u == -1.0


def test_step_equilibrium_fixed_point(grid, solver):
    cfg = default_stepper_config(grid, t_end=1.0, dt_max=5e-3, dt_init=5e-3)
    st = State(0.0, 0, constant_field(grid, 1.0), constant_field(grid, 1.0), 5e-3)
    new = step(st, cfg, solver)
    assert np.max(np.abs(new.u.values - 1.0)) <= 1e-12
    assert np.max(np.abs(new.v.values - 1.0)) <= 1e-12


def test_step_mass_conserved(grid, solver):
    cfg = default_stepper_config(grid, t_end=1.0, dt_max=2e-3, dt_init=2e-3)
    u0, v0 = smooth_pair(grid, seed=3)
    st = State(0.0, 0, u0, v0, 2e-3)
    m0 = integrate(st.u)
    for _ in range(25):
        st = step(st, cfg, solver)
    assert abs(integrate(st.u) - m0) <= 1e-12 * m0


def test_step_homogeneous_scalar_reduction(grid, solver):
    # u = 1, v = 0: one implicit step gives v = dt/(1+dt), u unchanged
    dt = 0.01
    cfg = default_stepper_config(grid, t_end=1.0, dt_max=dt, dt_init=dt)
    st = State(0.0, 0, constant_field(grid, 1.0), constant_field(grid, 0.0), dt)
    new = step(st, cfg, solver)
    assert np.allclose(new.v.values, dt / (1 + dt), rtol=1e-12)
    assert np.allclose(new.u.values, 1.0, rtol=1e-12)


def test_homogeneous_relaxation_first_order_global(grid, solver):
    # v(t) = v0 e^{-t} + c (1 - e^{-t}) for homogeneous data
    errs = []
    for dt in (0.02, 0.01):
        cfg = default_stepper_config(grid, t_end=1.0, dt_max=dt, dt_init=dt)
        st = State(0.0, 0, constant_field(grid, 1.0), constant_field(grid, 0.0), dt)
        while st.t < 1.0 - 1e-12:
            st = step(st, cfg, solver)
        errs.append(abs(st.v.values[0] - (1.0 - math.exp(-1.0))))
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.1)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_positivity_property(seed):
    g = make_grid(5, 1.0, 64)
    s = build_solver(g)
    rng = np.random.default_rng(seed)
    amp = rng.uniform(0.1, 0.9)
    u0, v0 = smooth_pair(g, seed=seed, amp=amp)
    u0 = RadialField(np.maximum(u0.values, 0.05), g)
    cfg = default_stepper_config(g, t_end=1e9, cfl=1.0, dt_max=5e-3)
    st = State(0.0, 0, u0, v0, 5e-3)
    for _ in range(30):
        st = State(st.t, st.step, st.u, st.v, adapt_dt(st, cfg), st.status)
        st = step(st, cfg, s)
    assert float(np.min(st.u.values)) >= 0.0
    assert st.status is SimStatus.RUNNING


def test_detect_blowup_threshold(grid):
    cfg = default_stepper_config(grid, t_end=1.0)
    big = constant_field(grid, 2e6)
    st = State(0.5, 10, big, constant_field(grid, 1.0), 1e-3)
    assert detect_blowup(st, cfg, sup0=1.0) is SimStatus.BLOWN_UP


def test_detect_blowup_completed_and_running(grid):
    cfg = default_stepper_config(grid, t_end=1.0)
    u = constant_field(grid, 1.0)
    v = constant_field(grid, 1.0)
    assert detect_blowup(State(1.0, 9, u, v, 1e-3), cfg, 1.0) is SimStatus.COMPLETED
    assert detect_blowup(State(0.2, 9, u, v, 1e-3), cfg, 1.0) is SimStatus.RUNNING


def test_detect_blowup_nan_is_stalled(grid):
    cfg = default_stepper_config(grid, t_end=1.0)
    vals = np.ones(grid.N)
    vals[3] = math.nan
    st = State(0.2, 9, RadialField(vals, grid), constant_field(grid, 1.0), 1e-3)
    assert detect_blowup(st, cfg, 1.0) is SimStatus.STALLED


def test_run_homogeneous_completes(grid, solver):
    cfg = default_stepper_config(grid, t_end=1.0, dt_max=5e-3)
    state, summary, samples = run(
        constant_field(grid, 1.0), constant_field(grid, 1.0), cfg, solver=solver
    )
    assert summary.status is SimStatus.COMPLETED
    m0 = samples["mass"][0]
    assert np.all(np.abs(samples["mass"] - m0) <= 1e-10 * m0)
    assert summary.t_final == pytest.approx(1.0)


def test_run_zero_density_completes():
    # blowup_factor * 0 is 0: a zero density that stays zero has not blown up
    g = make_grid(5, 1.0, 64)
    cfg = default_stepper_config(g, t_end=0.1, dt_max=1e-2)
    state, summary, _ = run(constant_field(g, 0.0), constant_field(g, 1.0), cfg)
    assert summary.status is state.status is SimStatus.COMPLETED
    assert summary.t_blowup is None and summary.peak_sup == 0.0
    assert summary.t_final == pytest.approx(0.1)


def test_run_of_one_dt_ends_without_a_round_off_step():
    # 3000 steps of dt_max leave t ~5e-14 (relative) short of t_end; that
    # counts as t_end, so no step of ~1e-14 follows
    g = make_grid(5, 1.0, 32)
    cfg = default_stepper_config(g, t_end=0.3, dt_max=1e-4, output_every=1000)
    u = constant_field(g, 1.0)
    _, summary, samples = run(u, u, cfg)
    assert summary.status is SimStatus.COMPLETED and summary.steps == 3000
    assert np.all(samples["dt"][1:] == cfg.dt_max)


def test_run_shorter_than_one_cfl_step_keeps_every_step_below_it():
    # the admissible family collapses on a time scale ~1e-23, so a horizon
    # of 4e-24 spans a few CFL steps; each step stays within the CFL bound
    # of the state it starts from, and u stays nonnegative
    g = make_grid(5, 1.0, 1024, h_min=1e-12)
    base = constant_field(g, 1.0)
    u0, v0 = build_family(base, base, 1.5, family_eta_star(base, 1.5) / 16)
    cfg = default_stepper_config(g, t_end=4e-24, output_every=1)
    states = []
    state, summary, samples = run(u0, v0, cfg, sink=lambda st, smp, rep: states.append(st))
    assert summary.status is SimStatus.COMPLETED and summary.steps > 1
    assert state.t == pytest.approx(cfg.t_end, rel=1e-12)
    for before, after in zip(states, states[1:]):
        assert after.dt <= cfg.cfl * dynamics._stable_dt(g, fresh_vr(before.v))
    assert np.min(samples["min_u"]) >= 0.0


def test_run_emits_diagnostics_rows(grid, solver):
    cfg = default_stepper_config(grid, t_end=0.05, dt_max=5e-3, output_every=3)
    seen = []
    state, summary, samples = run(
        constant_field(grid, 1.0), constant_field(grid, 1.0), cfg, solver=solver,
        sink=lambda st, smp, rep: seen.append(smp),
    )
    assert samples.names == TrajectorySample._fields
    assert all(samples[name].tolist() == [getattr(smp, name) for smp in seen]
               for name in samples.names)
    assert samples["t"][0] == 0.0
    assert samples["t"][-1] == pytest.approx(0.05)
    assert all(isinstance(x, TrajectorySample) for x in seen)


def test_run_rejects_negative_density(grid, solver):
    cfg = default_stepper_config(grid, t_end=0.1)
    bad = RadialField(np.full(grid.N, -1.0), grid)
    with pytest.raises(ConfigurationError):
        run(bad, constant_field(grid, 1.0), cfg, solver=solver)


@pytest.mark.parametrize("field, value", [("u", math.nan), ("u", math.inf), ("v", math.nan)])
def test_run_rejects_non_finite_initial_data(field, value):
    # a NaN compares false with 0, so a nonnegativity test alone passes it;
    # the run is refused before any step instead of stalling on it
    g = make_grid(5, 1.0, 32)
    planted = np.ones(g.N)
    planted[5] = value
    fields = {"u": constant_field(g, 1.0), "v": constant_field(g, 1.0)}
    fields[field] = RadialField(planted, g)
    emitted = []
    cfg = default_stepper_config(g, t_end=0.1)
    with pytest.raises(ConfigurationError, match="finite"):
        run(fields["u"], fields["v"], cfg, sink=lambda *args: emitted.append(args))
    assert not emitted


def test_v_mass_bound_discrete(grid, solver):
    # integral of v stays below max(int v0, int u0) exactly in the scheme
    u0, v0 = smooth_pair(grid, seed=12, amp=0.3)
    cfg = default_stepper_config(grid, t_end=0.5, dt_max=2e-3, output_every=5)
    _, _, samples = run(u0, v0, cfg, solver=solver)
    bound = max(samples["int_v"][0], samples["mass"][0])
    assert np.all(samples["int_v"] <= bound * (1 + 1e-12))


def test_v_mass_relaxation_scalar_oracle(grid, solver):
    u0, v0 = smooth_pair(grid, seed=1, amp=0.25)
    dt = 2e-3
    cfg = default_stepper_config(grid, t_end=0.5, dt_max=dt, dt_init=dt, output_every=10)
    _, _, samples = run(u0, v0, cfg, solver=solver)
    m0, iv0 = samples["mass"][0], samples["int_v"][0]
    decay = np.exp(-samples["t"])
    worst = np.max(np.abs(samples["int_v"] - (iv0 * decay + m0 * (1 - decay))))
    assert worst <= 2.0 * dt * (abs(iv0) + m0)


def test_energy_monotone_along_trajectory(grid, solver):
    u0, v0 = smooth_pair(grid, seed=21, amp=0.3)
    cfg = default_stepper_config(grid, t_end=0.5, dt_max=2e-3, output_every=1)
    _, _, samples = run(u0, v0, cfg, solver=solver)
    t, F = samples["t"], samples["F"]
    dt = np.diff(t)
    slack = 10.0 * (dt**2 + dt * grid.h**2) * (1.0 + np.abs(F[:-1]))
    assert np.all(F[1:] <= F[:-1] + slack)


def test_blowup_from_supercritical_concentration():
    # a resolved concentrated state with strongly negative energy collapses
    g = make_grid(5, 1.0, 256)
    s = build_solver(g)
    u0 = RadialField(1.0 + 2e7 * np.exp(-((g.centers / 0.06) ** 2)), g)
    v0 = solve(s, solve(s, u0))
    cfg = default_stepper_config(g, t_end=0.5, output_every=10)
    state, summary, samples = run(u0, v0, cfg, solver=s, max_steps=5000)
    assert summary.status is SimStatus.BLOWN_UP
    assert summary.t_blowup == state.t == summary.t_final < 0.5
    assert summary.peak_sup >= 1e6 * samples["sup_u"][0]
    assert summary.F0 < 0 and summary.min_F < summary.F0


def test_blowup_time_ordered_by_initial_energy():
    # paired runs: the lower-energy datum cannot outlive the higher one
    g = make_grid(5, 1.0, 256)
    s = build_solver(g)
    records = []
    for amp in (2e7, 5e7):
        u0 = RadialField(1.0 + amp * np.exp(-((g.centers / 0.06) ** 2)), g)
        v0 = solve(s, solve(s, u0))
        cfg = default_stepper_config(g, t_end=0.5, output_every=50)
        _, summary, _ = run(u0, v0, cfg, solver=s, max_steps=30000)
        assert summary.status is SimStatus.BLOWN_UP
        records.append((summary.F0, summary.t_blowup))
    (f0_high, tb_high), (f0_low, tb_low) = records
    assert f0_low < f0_high
    assert tb_low <= tb_high


def test_blowup_time_grid_stability():
    # the numerical blowup time is a proxy; adjacent grids agree coarsely
    t_b = []
    for N in (256, 512):
        g = make_grid(5, 1.0, N)
        s = build_solver(g)
        u0 = RadialField(1.0 + 2e7 * np.exp(-((g.centers / 0.06) ** 2)), g)
        v0 = solve(s, solve(s, u0))
        cfg = default_stepper_config(g, t_end=0.5, output_every=50)
        _, summary, _ = run(u0, v0, cfg, solver=s, max_steps=20000)
        assert summary.status is SimStatus.BLOWN_UP
        t_b.append(summary.t_blowup)
    assert abs(t_b[0] - t_b[1]) / max(t_b) <= 0.35


def test_step_keeps_its_flux_velocity_on_v_plus(grid, solver, monkeypatch):
    # the v+_r that the flux reads is the one v+ keeps, so the next
    # adapt_dt and the energy report read it without a second gradient
    seen = []
    inner = dynamics.advective_flux

    def capturing(u, vel):
        seen.append(vel)
        return inner(u, vel)

    monkeypatch.setattr(dynamics, "advective_flux", capturing)
    cfg = default_stepper_config(grid, t_end=1.0, dt_max=5e-3)
    u0, v0 = smooth_pair(grid, seed=3)
    new = step(State(0.0, 0, u0, v0, 2e-3), cfg, solver)
    assert len(seen) == 1
    assert gradient_faces(new.v) is seen[0]


def test_step_reuses_factors_bit_for_bit(grid, monkeypatch):
    # dt, dt, dt', dt on one solver: the second step reuses both factors,
    # the fourth refactors (dt' evicted them); a fresh solver per step
    # factors every time, and the states must agree bit for bit
    cfg = default_stepper_config(grid, t_end=1.0, dt_max=5e-3)
    u0, v0 = smooth_pair(grid, seed=5)
    dts = (2e-3, 2e-3, 3e-3, 2e-3)
    factored = []
    inner = helmholtz._factor

    def counting(g, alpha, beta):
        factored.append((alpha, beta))
        return inner(g, alpha, beta)

    shared = build_solver(grid)
    monkeypatch.setattr(helmholtz, "_factor", counting)
    kept = [State(0.0, 0, u0, v0, dts[0])]
    for dt in dts:
        kept.append(step(replace(kept[-1], dt=dt), cfg, shared))
    assert len(factored) == 6
    fresh = kept[0]
    for dt, want in zip(dts, kept[1:]):
        fresh = step(replace(fresh, dt=dt), cfg, build_solver(grid))
        assert np.array_equal(fresh.u.values, want.u.values)
        assert np.array_equal(fresh.v.values, want.v.values)


def test_run_factors_once_per_rung(monkeypatch):
    # a collapsing run whose CFL step shrinks every step: dt stays on one
    # rung of the ladder for several steps, and the solver factors the
    # v- and u-operators again only when dt moves to another rung
    g = make_grid(5, 1.0, 64)
    solver = build_solver(g)
    u0 = RadialField(1.0 + 1e7 * np.exp(-((g.centers / 0.1) ** 2)), g)
    v0 = solve(solver, solve(solver, u0))
    cfg = default_stepper_config(g, t_end=1e3, dt_max=1.0, output_every=1)
    factored = []
    inner = helmholtz._factor

    def counting(g, alpha, beta):
        factored.append((alpha, beta))
        return inner(g, alpha, beta)

    monkeypatch.setattr(helmholtz, "_factor", counting)
    _, summary, samples = run(u0, v0, cfg, solver=solver, max_steps=300)
    assert summary.steps == 300
    dts = samples["dt"][1:].tolist()
    assert len(dts) == summary.steps and max(dts) < cfg.dt_max
    assert len(factored) <= 2 * len(set(dts)) + 2
    assert len(factored) < summary.steps / 2


@pytest.mark.parametrize("output_every", [1, 2])
def test_run_solves_once_per_state(grid, monkeypatch, output_every):
    # Each state's w = (I - L)^{-1} u is solved once, by its step or by
    # its sample's energy report, and kept on u: the report's w is the
    # one the state's u keeps, which its step reads.
    solver = build_solver(grid)
    calls = []
    inner = helmholtz._solve

    def counting(g, factor, rhs):
        if factor is solver._factor:
            calls.append(rhs)
        return inner(g, factor, rhs)

    monkeypatch.setattr(helmholtz, "_solve", counting)
    cfg = default_stepper_config(grid, t_end=1.0, dt_max=2e-3, output_every=output_every)
    u0, v0 = smooth_pair(grid, seed=2)
    seen = []
    state, summary, _ = run(
        u0, v0, cfg, solver=solver, max_steps=5,
        sink=lambda st, smp, rep: seen.append((st.u, rep.w)),
    )
    assert summary.steps == 5
    assert len(calls) == summary.steps + 1
    # reading the kept w back solves nothing
    assert all(helmholtz._kept_w(solver, u) is w for u, w in seen)
    assert seen[-1][0] is state.u
    assert len(calls) == summary.steps + 1


def test_relaxed_base_pairs_w0_serves_the_first_state(grid, monkeypatch):
    # base_data solves w0 and v0 for the relaxed pair, and u0 keeps w0:
    # the run's first sample and first step read it, so every later state
    # takes one solve
    solver = build_solver(grid)
    calls = []
    inner = helmholtz._solve

    def counting(g, factor, rhs):
        if factor is solver._factor:
            calls.append(rhs)
        return inner(g, factor, rhs)

    monkeypatch.setattr(helmholtz, "_solve", counting)
    u0, v0 = base_data(
        "bump", grid, solver, baseline=1.0, amplitude=0.5, width=0.3, v_mode="relaxed"
    )
    assert len(calls) == 2
    cfg = default_stepper_config(grid, t_end=1.0, dt_max=2e-3, output_every=2)
    _, summary, _ = run(u0, v0, cfg, solver=solver, max_steps=5)
    assert summary.steps == 5
    assert len(calls) == summary.steps + 2


def test_retried_step_solves_w_once(grid, monkeypatch):
    # a step retried from the same state at another dt reads the w its
    # first attempt kept on u, and each attempt is bit-identical to a step
    # from a fresh copy of the state, which solves its own w
    solver = build_solver(grid)
    calls = []
    inner = helmholtz._solve

    def counting(g, factor, rhs):
        calls.append(rhs)
        return inner(g, factor, rhs)

    cfg = default_stepper_config(grid, t_end=1.0, dt_max=5e-3)
    u, v = smooth_pair(grid, seed=4)
    monkeypatch.setattr(helmholtz, "_solve", counting)
    state = State(t=0.0, step=0, u=u, v=v, dt=4e-3)
    first = step(state, cfg, solver)
    retry = step(replace(state, dt=2e-3), cfg, solver)
    assert len(calls) == 1
    for dt, got in ((4e-3, first), (2e-3, retry)):
        fresh = step(State(0.0, 0, *smooth_pair(grid, seed=4), dt), cfg, solver)
        assert np.array_equal(got.u.values, fresh.u.values)
        assert np.array_equal(got.v.values, fresh.v.values)


@pytest.mark.parametrize("sampled, calls", [(False, 4), (True, 3)])
def test_step_makes_four_dpttrs_calls_and_three_from_a_sampled_state(
    grid, monkeypatch, sampled, calls
):
    # w takes one call on the row-sum factors; u+ a first solve and its
    # refinement pass; v+ refines the state's v in one pass; a sampled
    # state's energy report already solved the w its u keeps
    solver = build_solver(grid)
    u, v = smooth_pair(grid, seed=3)
    state = State(t=0.0, step=0, u=u, v=v, dt=1e-3)
    if sampled:
        compute_energy(u, v, solver)
    count = []
    inner = helmholtz.dpttrs

    def counting(*args, **kwargs):
        count.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(helmholtz, "dpttrs", counting)
    new = step(state, default_stepper_config(grid, t_end=1.0), solver)
    assert new.status is SimStatus.RUNNING
    assert len(count) == calls


def test_trajectory_samples_hold_only_scalars(grid, solver):
    # run keeps every sample as a row of its float64 columns, so a row may
    # hold no per-cell field (an array, a RadialField or an energy report
    # carrying w, f and g)
    cfg = default_stepper_config(grid, t_end=1.0, dt_max=2e-3, output_every=1)
    u0, v0 = smooth_pair(grid, seed=2)
    seen = []
    _, _, samples = run(u0, v0, cfg, solver=solver, max_steps=3,
                        sink=lambda st, smp, rep: seen.append(smp))
    assert len(samples) == len(seen) == 4
    for smp in seen:
        held = {name: type(getattr(smp, name)) for name in smp._fields}
        assert all(issubclass(kind, (int, float)) for kind in held.values()), held


def test_trajectory_keeps_a_sample_in_its_columns_alone():
    # ten float64 columns that grow in place hold a sample in 80 B plus at
    # most 1/16 spare capacity (81.7 B measured at 1e5 samples); a list of
    # per-sample objects took 408 B
    row = TrajectorySample(*(float(k) for k in range(10)))
    count = 100_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trajectory = Trajectory()
        for _ in range(count):
            trajectory.append(row)
        per_sample = (tracemalloc.get_traced_memory()[0] - before) / count
    finally:
        tracemalloc.stop()
    assert len(trajectory) == count
    assert trajectory["min_u"][-1] == 9.0
    assert per_sample <= 86.0, per_sample


@pytest.mark.parametrize("max_steps, output_every", [(5, 2), (12, 1), (9, 4)])
def test_run_takes_one_sup_norm_per_run(grid, monkeypatch, max_steps, output_every):
    # run takes sup_norm once, for sup0, however many steps and samples it
    # makes: every stepped state carries its sup and min u from the step's
    # own reductions, and they are the values sup_norm and min give, bit
    # for bit
    inner_sup, inner_step = dynamics.sup_norm, dynamics.step
    calls, stepped, emitted = [], [], []

    def counting(f):
        calls.append(f)
        return inner_sup(f)

    def recording(*args):
        stepped.append(inner_step(*args))
        return stepped[-1]

    monkeypatch.setattr(dynamics, "sup_norm", counting)
    monkeypatch.setattr(dynamics, "step", recording)
    cfg = default_stepper_config(grid, t_end=1.0, dt_max=2e-3, output_every=output_every)
    u0, v0 = smooth_pair(grid, seed=2)
    _, summary, samples = run(
        u0, v0, cfg, max_steps=max_steps,
        sink=lambda state, smp, rep: emitted.append((state, smp)),
    )
    assert summary.steps == len(stepped) == max_steps
    assert len(calls) == 1 and calls[0] is u0
    sups = [inner_sup(u0)] + [inner_sup(state.u) for state in stepped]
    assert summary.peak_sup.hex() == max(sups).hex()
    assert len(emitted) == len(samples) > 2
    for state, smp in emitted:
        assert smp.sup_u.hex() == inner_sup(state.u).hex()
        assert smp.min_u.hex() == float(state.u.values.min()).hex()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    N=st.integers(min_value=4, max_value=256),
    h_min_exp=st.one_of(st.none(), st.integers(min_value=-12, max_value=-3)),
    zero_frac=st.sampled_from([0.0, 0.5, 1.0]),
    sign=st.sampled_from([1.0, -1.0]),
    seed=st.integers(min_value=0, max_value=10_000),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    bad_in_u=st.booleans(),
)
def test_stepped_state_carries_its_own_reductions(
    N, h_min_exp, zero_frac, sign, seed, bad, bad_in_u
):
    # uniform and graded meshes down to h_min 1e-12; zero_frac 1 makes u
    # vanish (as -0.0 when sign is -1), whose sup must be +0.0 as sup_norm
    # gives it, and a negative u has its sup at min u
    g = make_grid(5, 1.0, N, h_min=None if h_min_exp is None else 10.0**h_min_exp)
    rng = np.random.default_rng(seed)
    u = sign * rng.uniform(0.0, 1e3, N) * (rng.random(N) >= zero_frac)
    v = rng.uniform(0.0, 1e2, N)
    solver = build_solver(g)
    cfg = default_stepper_config(g, t_end=1.0, dt_max=1e-2)
    state = State(0.0, 0, RadialField(u, g), RadialField(v, g), cfg.dt_init)
    dt = adapt_dt(state, cfg)
    new = step(replace(state, dt=dt), cfg, solver)
    assert new.status is SimStatus.RUNNING
    assert new.sup.hex() == sup_norm(new.u).hex()
    assert new.min_u.hex() == float(new.u.values.min()).hex()
    assert gradient_faces(new.v).tobytes() == fresh_vr(new.v).tobytes()

    # a non-finite value in either field stalls the step
    planted = (u if bad_in_u else v).copy()
    planted[rng.integers(N)] = bad
    u_bad, v_bad = (planted, v) if bad_in_u else (u, planted)
    bad_state = State(0.0, 0, RadialField(u_bad, g), RadialField(v_bad, g), dt)
    with np.errstate(all="ignore"):
        assert step(bad_state, cfg, solver).status is SimStatus.STALLED


@pytest.mark.parametrize("h_min", [None, 1e-4], ids=["uniform", "graded"])
@pytest.mark.parametrize("dt_max", [1.0, 1e-4], ids=["cfl", "dt_max"])
def test_run_matches_public_adapt_dt_and_step_loop(h_min, dt_max):
    # run is adapt_dt + step and nothing else, bit for bit: the face
    # velocity a stepped v keeps, the dt bound read from it and the
    # grid's stored stiffness change no value
    g = make_grid(5, 1.0, 64, h_min=h_min)
    u0 = RadialField(1.0 + 1e5 * np.exp(-((g.centers / 0.1) ** 2)), g)
    v0 = solve(build_solver(g), solve(build_solver(g), u0))
    cfg = default_stepper_config(g, t_end=1e3, dt_max=dt_max, output_every=3)
    emitted = []
    final, summary, samples = run(
        u0, v0, cfg, solver=build_solver(g), max_steps=7,
        sink=lambda st, smp, rep: emitted.append(st),
    )
    assert summary.steps == 7

    solver = build_solver(g)
    st = State(0.0, 0, u0, v0, cfg.dt_init)
    dts = []
    for _ in range(7):
        dt = adapt_dt(st, cfg)
        dts.append(dt)
        st = step(replace(st, dt=dt), cfg, solver)
        assert np.array_equal(gradient_faces(st.v), fresh_vr(st.v))
        assert not gradient_faces(st.v).flags.writeable
    if dt_max == 1.0:
        assert all(dt < dt_max for dt in dts) and len(set(dts)) > 1
    else:
        assert all(dt == dt_max for dt in dts)
    assert st.t == final.t and st.step == final.step
    assert np.array_equal(st.u.values, final.u.values)
    assert np.array_equal(st.v.values, final.v.values)
    assert samples["dt"][1:].tolist() == [dts[2], dts[5], dts[6]]
    for state in emitted + [final]:
        assert np.array_equal(gradient_faces(state.v), fresh_vr(state.v))

    for dt in set(dts):
        for alpha, beta in ((1.0 + dt, dt), (1.0, dt), (1.0, 1.0)):
            diag, off = helmholtz._assemble(g, alpha, beta)
            coupling = beta * (g.face_areas[1:-1] / g.spacing[1:-1])
            want = alpha * g.volumes
            want[:-1] += coupling
            want[1:] += coupling
            assert np.array_equal(diag, want)
            assert np.array_equal(off, -coupling)
