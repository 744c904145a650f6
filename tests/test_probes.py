import math
from dataclasses import replace

import numpy as np
import pytest

from radks import dynamics
from radks.dynamics import SimStatus, State, Trajectory, default_stepper_config, run
from radks.energy import compute_energy
from radks.errors import ConfigurationError, GridMismatchError
from radks.grid import RadialField, constant_field, field_from_function, integrate, make_grid
from radks.helmholtz import build_solver, solve
from radks.initial_data import w22_norm
from radks.probes import (
    ProbeConfig,
    probe_entropy_floor,
    probe_fd_ratio,
    probe_local_inequalities,
    probe_mass_identities,
    probe_odi,
    probe_pointwise_v,
    probe_pointwise_w,
    theta_exponent,
)
from radks.verify import _smooth_pair

BALL_VOLUME = 8 * math.pi**2 / 15


@pytest.fixture(scope="module")
def grid():
    return make_grid(5, 1.0, 128)


@pytest.fixture(scope="module")
def solver(grid):
    return build_solver(grid)


def fake_samples(t, F, D):
    """A Trajectory of the t, F and D columns probe_fd_ratio and probe_odi
    read; a scalar F or D repeats at every t."""
    samples = Trajectory(("t", "F", "D"))
    for row in zip(*np.broadcast_arrays(t, F, D)):
        samples.append(row)
    return samples


def test_theta_branches():
    assert theta_exponent(4.5, 5) == pytest.approx(5.0 / 7.0)
    # at kappa >= n the other branch applies
    assert theta_exponent(6.0, 5) == pytest.approx(1.0 - 10.0 / (7.0 * 7.0))
    with pytest.raises(ConfigurationError):
        theta_exponent(3.0, 5)


def test_probe_config_defaults():
    cfg = ProbeConfig(n=5, R=1.0, rho=(0.5,))
    assert cfg.kappa == 4.5
    assert cfg.beta == 4.5
    assert cfg.theta == pytest.approx(5.0 / 7.0)


def test_entropy_floor_homogeneous_closed_form(grid, solver):
    # -F - int uv = -|Omega|/2 - ... for u = v = 1: lhs is negative, bound is
    # |Omega| / e with full margin
    res = probe_entropy_floor(
        compute_energy(constant_field(grid, 1.0), constant_field(grid, 1.0), solver)
    )
    assert res.hard_pass
    assert res.rhs_free == pytest.approx(BALL_VOLUME / math.e, rel=1e-12)
    lhs_expected = 0.5 * BALL_VOLUME - BALL_VOLUME  # -F - int uv
    assert res.lhs == pytest.approx(lhs_expected, rel=1e-10)


def test_entropy_floor_zero_density(grid, solver):
    res = probe_entropy_floor(
        compute_energy(constant_field(grid, 0.0), constant_field(grid, 0.0), solver)
    )
    assert res.hard_pass
    assert res.lhs == 0.0


def test_entropy_floor_worst_constant_margin(grid, solver):
    # over constants, -c log c peaks at c = 1/e, where the bound is attained:
    # -F - int uv = |Omega|/e exactly
    res = probe_entropy_floor(
        compute_energy(constant_field(grid, 1.0 / math.e), constant_field(grid, 0.0), solver)
    )
    assert res.hard_pass
    assert res.rhs_free == pytest.approx(res.lhs, rel=1e-10)
    assert res.lhs == pytest.approx(BALL_VOLUME / math.e, rel=1e-10)


def test_pointwise_w_smooth_field(grid, solver):
    u = constant_field(grid, 2.0)
    w = solve(solver, u)
    res = probe_pointwise_w(w, integrate(u))
    # w = 2 and w_r = 0: the max sits at the outermost interior face
    expected = 2.0 * (grid.R - grid.h) ** 3 / integrate(u)
    assert res.implied_c == pytest.approx(expected, rel=1e-10)
    with pytest.raises(ConfigurationError):
        probe_pointwise_w(w, 0.0)


def test_pointwise_w_smooth_field_graded():
    g = make_grid(5, 1.0, 64, h_min=1e-9)
    u = constant_field(g, 2.0)
    w = solve(build_solver(g), u)
    res = probe_pointwise_w(w, integrate(u))
    expected = 2.0 * g.faces[-2] ** 3 / integrate(u)
    assert res.implied_c == pytest.approx(expected, rel=1e-10)


def test_pointwise_w_concentrated_grid_stability():
    consts = []
    for N in (128, 256, 512):
        g = make_grid(5, 1.0, N)
        s = build_solver(g)
        u = field_from_function(g, lambda r: 1.0 + 100.0 * math.exp(-((r / 0.05) ** 2)))
        w = solve(s, RadialField(u.values, g))
        consts.append(probe_pointwise_w(w, integrate(u)).implied_c)
    base = consts[-1]
    assert all(abs(c - base) / base < 0.2 for c in consts)


def test_pointwise_v_smooth_and_stability(grid, solver):
    cfg = ProbeConfig(n=5, R=1.0, rho=(0.5,))
    v = constant_field(grid, 1.0)
    res = probe_pointwise_v(v, cfg, 1.0, w22_norm(v))
    assert math.isfinite(res.implied_c) and res.implied_c > 0
    consts = []
    for N in (128, 256, 512):
        g = make_grid(5, 1.0, N)
        v = field_from_function(g, lambda r: 1.0 + math.cos(math.pi * r))
        consts.append(probe_pointwise_v(v, cfg, 1.0, 1.0).implied_c)
    base = consts[-1]
    assert all(abs(c - base) / base < 0.2 for c in consts)


def test_fd_ratio_equilibrium_constant(grid, solver):
    # D = 0 at the homogeneous state: ratio is (-F)_+ / 1 = |Omega|/2
    samples = fake_samples((0.0, 0.5, 1.0), F=-0.5 * BALL_VOLUME, D=0.0)
    res = probe_fd_ratio(samples, ProbeConfig(n=5, R=1.0, rho=(0.5,)))
    assert res.implied_c == pytest.approx(0.5 * BALL_VOLUME, rel=1e-12)


def test_fd_ratio_monotone_in_theta():
    # raising theta toward 1 shrinks the ratio once D >= 1
    t = np.arange(10.0)
    samples = fake_samples(t, F=-10.0 - t, D=5.0 + t)
    lo = probe_fd_ratio(samples, ProbeConfig(n=5, R=1.0, kappa=4.5, rho=(0.5,)))
    hi = probe_fd_ratio(samples, ProbeConfig(n=5, R=1.0, kappa=6.0, rho=(0.5,)))
    assert theta_exponent(6.0, 5) > theta_exponent(4.5, 5)
    assert hi.implied_c < lo.implied_c


ODI_CONFIG = ProbeConfig(n=5, R=1.0)  # theta = 5/7


def test_odi_equilibrium_c5_is_sup_negF():
    # the ODI's c5 is the fd-ratio constant: sup -F where D = 0
    samples = fake_samples(np.linspace(0, 1, 20), F=-2.6, D=0.0)
    assert probe_fd_ratio(samples, ODI_CONFIG).implied_c == pytest.approx(2.6, rel=1e-9)


def test_odi_insufficient_tail_raises():
    # too few samples to fit a tail: the slope is NaN with the reason, and
    # c5 is still fitted (D = 1 binds at the peak: c5 = max(-F)/2 = 1)
    t = np.linspace(0, 1, 5)
    samples = fake_samples(t, F=-1.0 - t, D=1.0)
    row, note = probe_odi(samples, 5.0 / 7.0)
    assert row.name == "odi_tail_slope" and math.isnan(row.implied_c)
    assert "need at least 8" in note
    assert probe_fd_ratio(samples, ODI_CONFIG).implied_c == pytest.approx(1.0, rel=1e-9)


def test_odi_tail_not_reached_when_negF_barely_grows():
    # the README blowup data: F converges (-5062 -> -5827) while D grows
    # 27x, so every sample sits in the "final decade"; a slope fitted there
    # (43.4 on the real run) says nothing about the ODI tail
    theta = 5.0 / 7.0
    negF = np.linspace(5062.0, 5827.0, 200)
    D = np.geomspace(1.8e7, 4.9e8, 200)
    samples = fake_samples(np.arange(200.0), F=-negF, D=D)
    row, note = probe_odi(samples, theta)
    assert math.isnan(row.implied_c) and math.isnan(row.lhs)
    assert "tail not reached" in note and "1.15" in note
    # c5 is fitted all the same
    assert probe_fd_ratio(samples, ODI_CONFIG).implied_c > 0.0


def test_odi_recovers_powerlaw_slope():
    # synthetic samples with D = ((-F - c5)/c5)^{1/theta} exactly
    theta = 5.0 / 7.0
    c5 = 2.0
    negF = np.linspace(2.5, 250.0, 120)
    samples = fake_samples(np.arange(120.0), F=-negF, D=((negF - c5) / c5) ** (1 / theta))
    assert probe_fd_ratio(samples, ODI_CONFIG).implied_c <= c5 * (1 + 1e-6)
    row, note = probe_odi(samples, theta)
    # in the tail (-F >> c5) the log-log slope approaches 1/theta
    assert note == "" and row.implied_c == pytest.approx(1 / theta, rel=0.08)
    assert row.lhs == row.implied_c and row.rhs_free == 1 / theta and row.param == theta


def test_odi_c5_monotone_under_tail_extension():
    theta = 5.0 / 7.0
    negF = np.linspace(0.5, 60.0, 60)
    D = [0.5 * ((x - 2.0) / 2.0) ** (1 / theta) if x > 2 else 0.0 for x in negF]
    t = np.arange(60.0)
    c5_short = probe_fd_ratio(fake_samples(t[:30], -negF[:30], D[:30]), ODI_CONFIG).implied_c
    c5_long = probe_fd_ratio(fake_samples(t, -negF, D), ODI_CONFIG).implied_c
    assert c5_long >= c5_short - 1e-12


def test_mass_identities_homogeneous(grid, solver):
    cfg = default_stepper_config(grid, t_end=0.3, dt_max=5e-3, output_every=5)
    _, _, samples = run(
        constant_field(grid, 1.0), constant_field(grid, 1.0), cfg, solver=solver
    )
    results = {r.name: r for r in probe_mass_identities(samples)}
    assert results["mass_u_drift"].hard_pass
    assert results["mass_w_equals_u"].hard_pass
    assert results["v_mass_bound"].hard_pass
    assert results["v_mass_relaxation_gap"].lhs <= 1e-9


def test_mass_identities_trajectory(grid, solver):
    rng = np.random.default_rng(3)
    u0 = RadialField(1.0 + 0.4 * np.cos(math.pi * grid.centers), grid)
    v0 = RadialField(1.5 + 0.2 * np.cos(2 * math.pi * grid.centers), grid)
    cfg = default_stepper_config(grid, t_end=0.5, dt_max=2e-3, output_every=10)
    _, _, samples = run(u0, v0, cfg, solver=solver)
    results = {r.name: r for r in probe_mass_identities(samples)}
    assert results["mass_u_drift"].hard_pass
    assert results["mass_w_equals_u"].hard_pass
    assert results["v_mass_bound"].hard_pass
    # backward-Euler relaxation tracks the scalar solution at O(dt)
    assert results["v_mass_relaxation_gap"].lhs <= 0.05


def test_mass_identities_fail_on_a_nan_sample(monkeypatch):
    # step 5 stalls on a NaN u, and run samples that state last: its NaN
    # mass must fail the hard checks, not drop out of their maxima
    inner_step = dynamics.step

    def tampered(state, cfg, solver):
        new = inner_step(state, cfg, solver)
        if new.step < 5:
            return new
        u = new.u.values.copy()
        u[0] = math.nan
        return State(new.t, new.step, RadialField(u, new.u.grid), new.v, new.dt,
                     SimStatus.STALLED)

    monkeypatch.setattr(dynamics, "step", tampered)
    g = make_grid(5, 1.0, 64)
    u0, v0 = _smooth_pair(g)
    cfg = default_stepper_config(g, t_end=1e9, dt_max=2e-3, output_every=1)
    _, summary, samples = run(u0, v0, cfg, max_steps=10)
    assert summary.status is SimStatus.STALLED and summary.steps == 5
    assert math.isnan(samples["mass"][-1])
    results = {r.name: r for r in probe_mass_identities(samples)}
    for name in ("mass_u_drift", "mass_w_equals_u"):
        assert math.isnan(results[name].lhs) and results[name].hard_pass is False, name


def test_mass_identities_need_samples():
    # no states, no rows
    assert probe_mass_identities([]) == []


def test_local_inequalities_homogeneous(grid, solver):
    cfg = ProbeConfig(n=5, R=1.0, rho=(0.25, 0.5, 0.75))
    one = constant_field(grid, 1.0)
    results = probe_local_inequalities(one, one, compute_energy(one, one, solver), cfg)
    assert len(results) == 9  # three inequalities per radius
    for r in results:
        assert math.isfinite(r.implied_c) and r.implied_c >= 0.0
        assert r.hard_pass is None
    # second-order bound: lhs = 0 at the homogeneous state
    for r in results:
        if r.name == "local_second_order":
            assert r.lhs == pytest.approx(0.0, abs=1e-10)


def test_local_norms_nested_in_rho(grid, solver):
    rng = np.random.default_rng(9)
    u = RadialField(rng.random(grid.N) + 0.5, grid)
    v = RadialField(rng.random(grid.N) + 0.5, grid)
    cfg = ProbeConfig(n=5, R=1.0, rho=(0.25, 0.5, 0.75))
    results = probe_local_inequalities(u, v, compute_energy(u, v, solver), cfg)
    mixed = [r for r in results if r.name == "local_mixed_term"]
    # rhs_free aggregates ball-restricted norms, monotone in rho
    rhos = [r.param for r in mixed]
    frees = [r.rhs_free for r in mixed]
    assert rhos == sorted(rhos)
    assert frees[0] <= frees[1] <= frees[2]


def test_local_inequalities_match_on_kept_and_fresh_fields(grid, solver):
    # a state whose u, v, w and f already keep the gradients, face means and
    # L v that compute_energy took gives the rows that fresh copies give
    u = field_from_function(grid, lambda r: 1.0 + 50.0 * math.exp(-((r / 0.2) ** 2)))
    v = solve(solver, solve(solver, u))
    report = compute_energy(u, v, solver)
    cfg = ProbeConfig(n=5, R=1.0)
    kept = probe_local_inequalities(u, v, report, cfg)

    def copy(f):
        return RadialField(f.values, grid)

    fresh_report = replace(report, w=copy(report.w), f=copy(report.f))
    fresh = probe_local_inequalities(copy(u), copy(v), fresh_report, cfg)
    assert repr(kept) == repr(fresh)


def test_local_inequalities_graded_snap_to_nearest_face():
    g = make_grid(5, 1.0, 64, h_min=1e-9)
    cfg = ProbeConfig(n=5, R=1.0, rho=(0.01, 0.25, 0.5))
    one = constant_field(g, 1.0)
    results = probe_local_inequalities(one, one, compute_energy(one, one, build_solver(g)), cfg)
    snapped = sorted({r.param for r in results})
    for rho, face in zip(cfg.rho, snapped):
        assert face in g.faces
        assert abs(face - rho) == np.min(np.abs(g.faces - rho))
    for r in results:
        if r.name == "local_second_order":
            assert r.lhs == pytest.approx(0.0, abs=1e-10)


def test_local_inequalities_rejects_bad_rho(grid, solver):
    # the rho rule is ProbeConfig's, so a radius outside (0, R) never reaches the probe
    with pytest.raises(ConfigurationError) as err:
        ProbeConfig(n=5, R=1.0, rho=(1.5,))
    assert set(err.value.problems) == {"rho"}


def test_local_inequalities_reject_a_report_of_another_grid(grid, solver):
    one = constant_field(grid, 1.0)
    coarse = make_grid(5, 1.0, 64)
    other = constant_field(coarse, 1.0)
    rep = compute_energy(other, other, build_solver(coarse))
    with pytest.raises(GridMismatchError):
        probe_local_inequalities(one, one, rep, ProbeConfig(n=5, R=1.0, rho=(0.5,)))


def test_local_inequalities_reject_a_config_of_another_ball(grid, solver):
    one = constant_field(grid, 1.0)
    with pytest.raises(GridMismatchError, match="R=2.0"):
        probe_local_inequalities(one, one, compute_energy(one, one, solver),
                                 ProbeConfig(n=5, R=2.0, rho=(0.5,)))


def test_local_implied_constants_stable_under_refinement():
    cfgp = ProbeConfig(n=5, R=1.0, rho=(0.5,))
    vals = {}
    for N in (128, 256, 512):
        g = make_grid(5, 1.0, N)
        s = build_solver(g)
        u = field_from_function(g, lambda r: 1.0 + 50.0 * math.exp(-((r / 0.1) ** 2)))
        v = field_from_function(g, lambda r: 1.0 + 0.3 * math.cos(math.pi * r))
        for r in probe_local_inequalities(u, v, compute_energy(u, v, s), cfgp):
            vals.setdefault(r.name, []).append(r.implied_c)
    for name, series in vals.items():
        base = series[-1]
        if base > 1e-12:
            assert all(abs(x - base) / base < 0.2 for x in series), name


@pytest.fixture(scope="module")
def collapse_trajectory():
    """A resolved supercritical state that genuinely blows up."""
    g = make_grid(5, 1.0, 256)
    s = build_solver(g)
    u0 = RadialField(1.0 + 2e7 * np.exp(-((g.centers / 0.06) ** 2)), g)
    v0 = solve(s, solve(s, u0))
    cfg = default_stepper_config(g, t_end=0.5, output_every=5)
    consts = []

    def sink(state, sample, rep):
        w = solve(s, state.u)
        consts.append(probe_pointwise_w(w, sample.mass).implied_c)

    state, summary, samples = run(u0, v0, cfg, solver=s, sink=sink, max_steps=10000)
    assert summary.status.value == "blown_up"
    return samples, consts


def test_odi_superlinear_slope_on_collapse(collapse_trajectory):
    samples, _ = collapse_trajectory
    theta = 5.0 / 7.0
    row, note = probe_odi(samples, theta)
    assert note == "" and row.implied_c >= 1.0 / theta - 0.2
    assert probe_fd_ratio(samples, ODI_CONFIG).implied_c > 0.0


def test_fd_ratio_bounded_while_energy_diverges(collapse_trajectory):
    samples, _ = collapse_trajectory
    res = probe_fd_ratio(samples, ProbeConfig(n=5, R=1.0, rho=(0.5,)))
    peak_negF = np.max(-samples["F"])
    assert peak_negF > 1e4  # the energy genuinely diverges
    assert math.isfinite(res.implied_c)
    assert res.implied_c < 10.0  # the ratio stays of order one


def test_pointwise_w_uniform_along_collapse(collapse_trajectory):
    # the weighted bound is time-uniform even as the sup norm explodes
    samples, consts = collapse_trajectory
    assert samples["sup_u"][-1] / samples["sup_u"][0] > 1e5
    assert max(consts) <= 1.05 * consts[0]  # constant to within a few percent


def test_fd_ratio_reproducible_bitwise(grid, solver):
    rng = np.random.default_rng(5)
    u0 = RadialField(1.0 + 0.3 * np.cos(math.pi * grid.centers), grid)
    v0 = RadialField(1.0 + 0.1 * np.cos(2 * math.pi * grid.centers), grid)
    cfg = default_stepper_config(grid, t_end=0.2, dt_max=2e-3, output_every=5)
    _, _, s1 = run(u0, v0, cfg, solver=solver)
    _, _, s2 = run(u0, v0, cfg, solver=solver)
    pc = ProbeConfig(n=5, R=1.0, rho=(0.5,))
    assert probe_fd_ratio(s1, pc).implied_c == probe_fd_ratio(s2, pc).implied_c



def test_probe_config_theta_is_derived_from_kappa():
    assert ProbeConfig(n=5, R=1.0, kappa=6.0, rho=(0.5,)).theta == theta_exponent(6.0, 5)
    with pytest.raises(TypeError):
        ProbeConfig(n=5, R=1.0, theta=0.9, rho=(0.5,))
