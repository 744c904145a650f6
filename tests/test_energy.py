import math

import numpy as np
import pytest

from radks.energy import (
    EnergyReport,
    compute_energy,
    compute_g,
    identity_residual,
)
from radks.errors import ConfigurationError
from radks.grid import (
    RadialField,
    constant_field,
    field_from_function,
    gradient_faces,
    integrate,
    make_grid,
)
from radks.helmholtz import apply_operator, build_solver, solve

BALL_VOLUME = 8 * math.pi**2 / 15


@pytest.fixture(scope="module")
def grid():
    return make_grid(5, 1.0, 128)


@pytest.fixture(scope="module")
def solver(grid):
    return build_solver(grid)


def test_compute_f_equilibrium_is_zero(grid, solver):
    f = compute_energy(constant_field(grid, 2.0), constant_field(grid, 2.0), solver).f
    assert np.max(np.abs(f.values)) <= 1e-13


def test_compute_f_zero_density(grid, solver):
    f = compute_energy(constant_field(grid, 0.0), constant_field(grid, 3.0), solver).f
    assert np.allclose(f.values, 3.0, rtol=1e-13)


def test_compute_f_mean_identity(grid, solver):
    rng = np.random.default_rng(2)
    u = RadialField(rng.random(grid.N), grid)
    v = RadialField(rng.random(grid.N), grid)
    f = compute_energy(u, v, solver).f
    assert integrate(f) == pytest.approx(integrate(v) - integrate(u), abs=1e-12)


def test_compute_f_shift_identity(grid, solver):
    # (I - L) is linear in v, so f(u, a v) - a f(u, v) = (a - 1) w exactly
    rng = np.random.default_rng(4)
    u = RadialField(rng.random(grid.N) + 0.2, grid)
    v = RadialField(rng.random(grid.N), grid)
    a = 2.75
    w = solve(solver, u)
    lhs = compute_energy(u, RadialField(a * v.values, grid), solver).f.values
    rhs = a * compute_energy(u, v, solver).f.values + (a - 1.0) * w.values
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_compute_g_constant_state(grid):
    g = compute_g(constant_field(grid, 2.0), constant_field(grid, 1.0))
    assert np.all(g == 0.0)


def test_compute_g_log_equilibrium_refines_quadratically():
    # u = exp(v) makes u_r/u - v_r vanish identically; only O(h^2) remains
    errs = []
    for N in (64, 128, 256):
        g = make_grid(5, 1.0, N)
        v = field_from_function(g, lambda r: 0.5 * math.cos(math.pi * r))
        u = RadialField(np.exp(v.values), g)
        errs.append(float(np.max(np.abs(compute_g(u, v)))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.3)


def test_compute_g_analytic_profile():
    g = make_grid(5, 1.0, 200)
    u = field_from_function(g, lambda r: 1.0 + r * r)
    v = constant_field(g, 0.0)
    vals = compute_g(u, v)
    r = g.faces[1:-1]
    expected = 2.0 * r / np.sqrt(1.0 + r * r)
    assert np.max(np.abs(vals[1:-1] - expected)) <= 5e-4  # O(h^2)


def assert_homogeneous_energy(grid, solver):
    rep = compute_energy(constant_field(grid, 1.0), constant_field(grid, 1.0), solver)
    assert rep.F == pytest.approx(-0.5 * BALL_VOLUME, abs=1e-12)
    assert rep.D <= 1e-14
    assert rep.entropy_term == pytest.approx(0.0, abs=1e-14)
    assert rep.mixed_term == pytest.approx(BALL_VOLUME, rel=1e-13)
    assert rep.quad_term == pytest.approx(0.5 * BALL_VOLUME, rel=1e-13)


def test_energy_homogeneous_closed_form(grid, solver):
    assert_homogeneous_energy(grid, solver)


def test_graded_energy_homogeneous_closed_form():
    g = make_grid(5, 1.0, 128, h_min=1e-9)
    assert_homogeneous_energy(g, build_solver(g))


def test_energy_zero_state(grid, solver):
    rep = compute_energy(constant_field(grid, 0.0), constant_field(grid, 0.0), solver)
    assert rep.F == 0.0
    assert rep.D == 0.0


def test_energy_report_identities(grid, solver):
    rng = np.random.default_rng(6)
    u = RadialField(rng.random(grid.N) + 0.1, grid)
    v = RadialField(rng.random(grid.N), grid)
    rep = compute_energy(u, v, solver)
    assert rep.F == pytest.approx(rep.entropy_term - rep.mixed_term + rep.quad_term, rel=1e-13)
    assert rep.D == pytest.approx(rep.grad_f_term + rep.f_term + rep.g_term, rel=1e-13)


@pytest.mark.parametrize("h_min", [None, 1e-12])
def test_energy_terms_match_exactly_rounded_sums(h_min):
    # reference: the terms summed with math.fsum; the pairwise sums may
    # differ by O(log N) ulps of the sum of magnitudes
    g = make_grid(5, 1.0, 8192, h_min=h_min)
    s = build_solver(g)
    rng = np.random.default_rng(9)
    u = RadialField(rng.random(g.N) * 1e3 + 1e-3, g)
    v = RadialField(rng.random(g.N) * 10.0, g)
    rep = compute_energy(u, v, s)
    opv = apply_operator(s, v)
    f = opv - solve(s, u).values
    faces = g.face_areas * g.spacing
    fr, gf = gradient_faces(RadialField(f, g)), compute_g(u, v)
    cells = {
        "entropy_term": u.values * np.log(u.values) * g.volumes,
        "mixed_term": u.values * v.values * g.volumes,
        "quad_term": 0.5 * opv * opv * g.volumes,
        "grad_f_term": fr * fr * faces,
        "f_term": f * f * g.volumes,
        "g_term": gf * gf * faces,
    }
    for name, terms in cells.items():
        bound = 1e-14 * math.fsum(np.abs(terms))
        assert abs(getattr(rep, name) - math.fsum(terms)) <= bound, name


def test_entropy_against_refined_quadrature_oracle():
    # bump profile, v = 0: F reduces to the entropy integral; the oracle is
    # midpoint quadrature of the analytic profile on a 10x refined mesh
    def profile(r):
        return 0.2 + 2.0 * math.exp(-((r / 0.35) ** 2))

    g = make_grid(5, 1.0, 1024)
    s = build_solver(g)
    u = field_from_function(g, profile)
    rep = compute_energy(u, constant_field(g, 0.0), s)

    fine = make_grid(5, 1.0, 10240)
    uf = np.array([profile(r) for r in fine.centers])
    oracle = math.fsum(uf * np.log(uf) * fine.volumes)
    assert rep.F == pytest.approx(oracle, rel=1e-6)
    assert rep.entropy_term == pytest.approx(oracle, rel=1e-6)


def test_dissipation_nonnegative_property(grid, solver):
    rng = np.random.default_rng(8)
    for _ in range(10):
        u = RadialField(rng.random(grid.N) * 2, grid)
        v = RadialField(rng.random(grid.N), grid)
        assert compute_energy(u, v, solver).D >= 0.0


def test_zero_density_entropy_convention(grid, solver):
    vals = np.zeros(grid.N)
    vals[5] = 1.0
    rep = compute_energy(RadialField(vals, grid), constant_field(grid, 0.0), solver)
    assert math.isfinite(rep.F)
    assert rep.regularized_faces > 0


def test_identity_residual_equilibrium():
    rep = EnergyReport(
        F=-2.6, D=0.0, entropy_term=0.0, mixed_term=0.0, quad_term=0.0,
        grad_f_term=0.0, f_term=0.0, g_term=0.0, regularized_faces=0,
        w=None, f=None, g=None,
    )
    assert identity_residual(rep, rep, 0.1) <= 1e-15


def test_identity_residual_rejects_bad_dt():
    rep = EnergyReport(
        F=0.0, D=0.0, entropy_term=0.0, mixed_term=0.0, quad_term=0.0,
        grad_f_term=0.0, f_term=0.0, g_term=0.0, regularized_faces=0,
        w=None, f=None, g=None,
    )
    with pytest.raises(ConfigurationError):
        identity_residual(rep, rep, 0.0)
    with pytest.raises(ConfigurationError):
        identity_residual(rep, rep, -0.5)


def test_identity_residual_first_order_in_dt():
    # along a smooth trajectory the max residual halves with dt at fixed h
    from radks.dynamics import default_stepper_config, run

    g = make_grid(5, 1.0, 128)
    s = build_solver(g)
    u0 = RadialField(1.0 + 0.5 * np.cos(math.pi * g.centers), g)
    v0 = solve(s, solve(s, u0))

    def max_res(dt):
        cfg = default_stepper_config(g, t_end=0.25, dt_max=dt, dt_init=dt, output_every=10)
        _, _, samples = run(u0, v0, cfg, solver=s)
        return max(x.identity_residual for x in samples[1:])

    ratio = max_res(8e-3) / max_res(4e-3)
    assert 1.5 <= ratio <= 2.5
