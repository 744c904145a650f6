import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radks import dynamics, helmholtz
from radks.dynamics import (
    SimStatus,
    State,
    StepperConfig,
    TrajectorySample,
    adapt_dt,
    advective_flux,
    default_stepper_config,
    detect_blowup,
    run,
    step,
)
from radks.errors import ConfigurationError
from radks.grid import RadialField, constant_field, integrate, make_grid
from radks.helmholtz import build_solver, solve


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
        StepperConfig(cfl=0.0, dt_init=1e-3, dt_min=1e-4, dt_max=1e-2, t_end=1.0)
    with pytest.raises(ConfigurationError):
        StepperConfig(cfl=0.5, dt_init=1e-5, dt_min=1e-4, dt_max=1e-2, t_end=1.0)
    with pytest.raises(ConfigurationError):
        StepperConfig(cfl=0.5, dt_init=1e-3, dt_min=1e-4, dt_max=1e-2, t_end=1.0,
                      blowup_factor=0.5)


def test_default_config_dt_min_rule(grid):
    cfg = default_stepper_config(grid, t_end=1.0)
    assert cfg.dt_min == pytest.approx(grid.R * 1e-8 / grid.N)
    assert cfg.blowup_factor == 1e6


def test_default_config_rejects_explicit_dt_init_outside_bounds(grid):
    # the default dt_init is clamped into [dt_min, dt_max]; an explicit one is not
    assert default_stepper_config(grid, t_end=1.0, dt_max=1e-7).dt_init == 1e-7
    for dt_init in (-1.0, 0.0, 2e-2):
        with pytest.raises(ConfigurationError) as err:
            default_stepper_config(grid, t_end=1.0, dt_init=dt_init)
        assert set(err.value.problems) == {"dt_init"}


def test_stepper_config_problems_are_keyed_without_follow_ons():
    with pytest.raises(ConfigurationError) as err:
        StepperConfig(cfl=3.0, dt_init=1e-3, dt_min=1e-4, dt_max=-1.0, t_end=-1.0)
    # dt_init and dt_min are not compared with the rejected dt_max
    assert set(err.value.problems) == {"cfl", "dt_max", "t_end"}


def test_default_config_dt_min_graded_stays_below_cfl_step():
    # a signal concentrated at r ~ 1e-8: its CFL step lies far below the
    # uniform floor R 1e-8/N, and the graded floor must not clamp it
    g = make_grid(5, 1.0, 128, h_min=1e-9)
    cfg = default_stepper_config(g, t_end=1.0)
    assert cfg.dt_min == g.R * 1e-8 / g.N * (g.h_min / g.h) ** 2
    v = RadialField(np.exp(-((g.centers / 1e-8) ** 2)), g)
    st = State(0.0, 0, constant_field(g, 1.0), v, cfg.dt_init)
    dt = adapt_dt(st, cfg)
    assert cfg.dt_min < dt < g.R * 1e-8 / g.N


def test_step_mass_conserved_graded():
    g = make_grid(5, 1.0, 128, h_min=1e-9)
    u0, v0 = smooth_pair(g)
    cfg = default_stepper_config(g, t_end=1e9, dt_max=1e-3, output_every=1)
    _, _, samples = run(u0, v0, cfg, max_steps=20)
    m0 = samples[0].mass
    assert max(abs(s.mass - m0) for s in samples) <= 1e-12 * m0
    assert min(s.min_u for s in samples) >= 0.0


def test_advective_flux_zero_cases(grid):
    u = constant_field(grid, 1.0)
    assert np.all(advective_flux(u, constant_field(grid, 2.0)) == 0.0)
    v = RadialField(np.linspace(0, 1, grid.N), grid)
    assert np.all(advective_flux(constant_field(grid, 0.0), v) == 0.0)


def test_advective_flux_upwind_stencil():
    # R=1, N=4 so h = 0.25 exactly; v ramps with slope exactly 1
    g = make_grid(5, 1.0, 4)
    u_vals = np.array([1.0, 2.0, 3.0, 4.0])
    u = RadialField(u_vals, g)
    v = RadialField(g.h * np.arange(4.0), g)
    flux = advective_flux(u, v)
    assert flux[0] == 0.0 and flux[-1] == 0.0
    # positive face velocity: upwind value comes from the inner cell i
    assert np.all(flux[1:-1] == g.face_areas[1:-1] * u_vals[:-1])
    # reversed ramp: upwind value comes from the outer cell i+1
    flux_rev = advective_flux(u, RadialField(-g.h * np.arange(4.0), g))
    assert np.all(flux_rev[1:-1] == -g.face_areas[1:-1] * u_vals[1:])


def test_adapt_dt_zero_velocity(grid):
    cfg = default_stepper_config(grid, t_end=1.0, dt_max=5e-3)
    st0 = State(0.9995, 0, constant_field(grid, 1.0), constant_field(grid, 2.0), 1e-3)
    # no velocity: dt_max clamped by the remaining horizon
    assert adapt_dt(st0, cfg) == pytest.approx(1.0 - 0.9995)
    st1 = State(0.0, 0, constant_field(grid, 1.0), constant_field(grid, 2.0), 1e-3)
    assert adapt_dt(st1, cfg) == cfg.dt_max


def test_adapt_dt_cfl_formula():
    # inward linear ramp: |v_r| = 10 everywhere, geometry cap not binding
    g = make_grid(5, 1.0, 100)
    cfg = default_stepper_config(g, t_end=1e9, cfl=0.5, dt_max=1.0)
    v = RadialField(-10.0 * g.centers, g)
    st = State(0.0, 0, constant_field(g, 1.0), v, 1e-3)
    assert adapt_dt(st, cfg) == pytest.approx(0.5 * g.h / 10.0, rel=1e-12)


def test_adapt_dt_hits_floor(grid):
    cfg = default_stepper_config(grid, t_end=1e9)
    v = RadialField(-1e12 * grid.centers, grid)
    st = State(0.0, 0, constant_field(grid, 1.0), v, 1e-3)
    assert adapt_dt(st, cfg) == cfg.dt_min


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
    status, t_b = detect_blowup(st, cfg, sup0=1.0)
    assert status is SimStatus.BLOWN_UP and t_b == 0.5


def test_detect_blowup_completed_and_running(grid):
    cfg = default_stepper_config(grid, t_end=1.0)
    u = constant_field(grid, 1.0)
    v = constant_field(grid, 1.0)
    assert detect_blowup(State(1.0, 9, u, v, 1e-3), cfg, 1.0)[0] is SimStatus.COMPLETED
    assert detect_blowup(State(0.2, 9, u, v, 1e-3), cfg, 1.0)[0] is SimStatus.RUNNING


def test_detect_blowup_nan_is_stalled(grid):
    cfg = default_stepper_config(grid, t_end=1.0)
    vals = np.ones(grid.N)
    vals[3] = math.nan
    st = State(0.2, 9, RadialField(vals, grid), constant_field(grid, 1.0), 1e-3)
    assert detect_blowup(st, cfg, 1.0)[0] is SimStatus.STALLED


def test_detect_blowup_floor_doubling(grid):
    cfg = default_stepper_config(grid, t_end=1.0)
    u = constant_field(grid, 4.0)
    st = State(0.2, 9, u, constant_field(grid, 1.0), cfg.dt_min)
    history = [(0.2 - 5 * cfg.dt_min, 1.5), (0.2 - 2 * cfg.dt_min, 3.9)]
    status, t_b = detect_blowup(st, cfg, sup0=1.0, history=history)
    assert status is SimStatus.BLOWN_UP


def test_run_homogeneous_completes(grid, solver):
    cfg = default_stepper_config(grid, t_end=1.0, dt_max=5e-3)
    state, summary, samples = run(
        constant_field(grid, 1.0), constant_field(grid, 1.0), cfg, solver=solver
    )
    assert summary.status is SimStatus.COMPLETED
    m0 = samples[0].mass
    assert all(abs(x.mass - m0) <= 1e-10 * m0 for x in samples)
    assert summary.t_final == pytest.approx(1.0)


def test_run_emits_diagnostics_rows(grid, solver):
    cfg = default_stepper_config(grid, t_end=0.05, dt_max=5e-3, output_every=3)
    seen = []
    state, summary, samples = run(
        constant_field(grid, 1.0), constant_field(grid, 1.0), cfg, solver=solver,
        sink=lambda st, smp: seen.append(smp),
    )
    assert seen == samples
    assert samples[0].t == 0.0
    assert samples[-1].t == pytest.approx(0.05)
    assert all(isinstance(x, TrajectorySample) for x in samples)


def test_run_rejects_negative_density(grid, solver):
    cfg = default_stepper_config(grid, t_end=0.1)
    bad = RadialField(np.full(grid.N, -1.0), grid)
    with pytest.raises(ConfigurationError):
        run(bad, constant_field(grid, 1.0), cfg, solver=solver)


def test_v_mass_bound_discrete(grid, solver):
    # integral of v stays below max(int v0, int u0) exactly in the scheme
    u0, v0 = smooth_pair(grid, seed=12, amp=0.3)
    cfg = default_stepper_config(grid, t_end=0.5, dt_max=2e-3, output_every=5)
    _, _, samples = run(u0, v0, cfg, solver=solver)
    bound = max(samples[0].int_v, samples[0].mass)
    assert all(x.int_v <= bound * (1 + 1e-12) for x in samples)


def test_v_mass_relaxation_scalar_oracle(grid, solver):
    u0, v0 = smooth_pair(grid, seed=1, amp=0.25)
    dt = 2e-3
    cfg = default_stepper_config(grid, t_end=0.5, dt_max=dt, dt_init=dt, output_every=10)
    _, _, samples = run(u0, v0, cfg, solver=solver)
    m0, iv0 = samples[0].mass, samples[0].int_v
    worst = max(
        abs(x.int_v - (iv0 * math.exp(-x.t) + m0 * (1 - math.exp(-x.t)))) for x in samples
    )
    assert worst <= 2.0 * dt * (abs(iv0) + m0)


def test_energy_monotone_along_trajectory(grid, solver):
    u0, v0 = smooth_pair(grid, seed=21, amp=0.3)
    cfg = default_stepper_config(grid, t_end=0.5, dt_max=2e-3, output_every=1)
    _, _, samples = run(u0, v0, cfg, solver=solver)
    for a, b in zip(samples, samples[1:]):
        dt = b.t - a.t
        slack = 10.0 * (dt**2 + dt * grid.h**2) * (1.0 + abs(a.F))
        assert b.F <= a.F + slack


def test_blowup_from_supercritical_concentration():
    # a resolved concentrated state with strongly negative energy collapses
    g = make_grid(5, 1.0, 256)
    s = build_solver(g)
    u0 = RadialField(1.0 + 2e7 * np.exp(-((g.centers / 0.06) ** 2)), g)
    v0 = solve(s, solve(s, u0))
    cfg = default_stepper_config(g, t_end=0.5, output_every=10)
    state, summary, samples = run(u0, v0, cfg, solver=s, max_steps=5000)
    assert summary.status is SimStatus.BLOWN_UP
    assert summary.t_blowup is not None and summary.t_blowup < 0.5
    assert summary.peak_sup >= 1e6 * samples[0].sup_u
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


@pytest.mark.parametrize("output_every", [1, 2])
def test_run_solves_once_per_state(grid, monkeypatch, output_every):
    # Each state's w = (I - L)^{-1} u is solved once: by its step, or by
    # its sample's energy report, whose w the step, the sink and the
    # caller then reuse.
    solver = build_solver(grid)
    calls = []
    inner = helmholtz._solve

    def counting(g, alpha, beta, factor, rhs):
        if factor is solver._factor:
            calls.append(alpha)
        return inner(g, alpha, beta, factor, rhs)

    monkeypatch.setattr(helmholtz, "_solve", counting)
    cfg = default_stepper_config(grid, t_end=1.0, dt_max=2e-3, output_every=output_every)
    u0, v0 = smooth_pair(grid, seed=2)
    seen = []
    state, summary, _ = run(
        u0, v0, cfg, solver=solver, max_steps=5, sink=lambda st, smp: seen.append(st.report.w)
    )
    assert summary.steps == 5
    assert len(calls) == summary.steps + 1
    assert all(w is not None for w in seen)
    assert state.report.w is seen[-1]


def test_trajectory_samples_hold_only_scalars(grid, solver):
    # run keeps every sample, so a per-cell field held by one (an array, a
    # RadialField or an energy report carrying w, f and g) would grow the
    # run's memory with its sample count
    cfg = default_stepper_config(grid, t_end=1.0, dt_max=2e-3, output_every=1)
    u0, v0 = smooth_pair(grid, seed=2)
    _, _, samples = run(u0, v0, cfg, solver=solver, max_steps=3)
    assert len(samples) == 4
    for smp in samples:
        held = {f.name: type(getattr(smp, f.name)) for f in fields(smp)}
        assert all(issubclass(kind, (int, float)) for kind in held.values()), held


def test_run_takes_one_sup_norm_per_step(grid, monkeypatch):
    # run hands the sup norm it records to detect_blowup instead of letting
    # it take a second one of the same state
    calls = []
    inner = dynamics.sup_norm

    def counting(f):
        calls.append(f)
        return inner(f)

    monkeypatch.setattr(dynamics, "sup_norm", counting)
    cfg = default_stepper_config(grid, t_end=1.0, dt_max=2e-3, output_every=2)
    u0, v0 = smooth_pair(grid, seed=2)
    _, summary, samples = run(u0, v0, cfg, max_steps=5)
    assert summary.steps == 5
    # sup0, one per step, one per sample
    assert len(calls) == 1 + summary.steps + len(samples)
