import math
import os
import subprocess
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radks.errors import ConfigurationError, GridMismatchError
from radks.grid import (
    RadialField,
    constant_field,
    field_from_function,
    integrate,
    laplacian,
    make_grid,
)
from radks import helmholtz
from radks.dynamics import adapt_dt, default_stepper_config, run
from radks.helmholtz import build_solver, shifted_solve, solve
from radks.initial_data import base_data


@pytest.fixture(scope="module")
def grid():
    return make_grid(5, 1.0, 100)


@pytest.fixture(scope="module")
def solver(grid):
    return build_solver(grid)


# widths grow geometrically from 1e-9 at the origin
GRADED_H_MIN = 1e-9


@pytest.fixture(scope="module")
def graded():
    return make_grid(5, 1.0, 100, h_min=GRADED_H_MIN)


@pytest.fixture(scope="module")
def graded_solver(graded):
    return build_solver(graded)


def assert_mass_identity(grid, solver):
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = RadialField(rng.random(grid.N) * 3, grid)
        w = solve(solver, u)
        scale = math.fsum(np.abs(u.values) * grid.volumes)
        assert abs(integrate(w) - integrate(u)) <= 1e-12 * scale


def assert_positive_solve(grid, seed):
    s = build_solver(grid)
    rng = np.random.default_rng(seed)
    u = RadialField(np.abs(rng.standard_normal(grid.N)), grid)
    assert np.min(solve(s, u).values) >= 0.0


def manufactured_error(N, h_min=None):
    """Max-norm error of the solve against w* = cos(pi r / R)."""
    g = make_grid(5, 1.0, N, h_min=h_min)
    s = build_solver(g)
    k = math.pi / g.R
    wstar = field_from_function(g, lambda r: math.cos(k * r))
    ustar = field_from_function(
        g,
        lambda r: k * k * math.cos(k * r) + (g.n - 1) / r * k * math.sin(k * r) + math.cos(k * r),
    )
    return float(np.max(np.abs(solve(s, ustar).values - wstar.values)))


def test_constants_are_fixed_points(grid, solver):
    for c in (1.0, 3.5, 0.0):
        w = solve(solver, constant_field(grid, c))
        assert np.max(np.abs(w.values - c)) <= 1e-13 * (1 + abs(c))


def test_small_system_structure():
    g = make_grid(5, 1.0, 4)
    s = build_solver(g)
    # solving the operator applied to a known field recovers it
    f = RadialField(np.array([1.0, 2.0, 0.5, 1.5]), g)
    u = RadialField(f.values - laplacian(f).values, g)
    back = solve(s, u)
    assert np.allclose(back.values, f.values, rtol=1e-12, atol=1e-12)


def test_small_system_assembly_from_face_areas():
    # the 4x4 volume-weighted system: diagonal V_i + (A_- + A_+)/h with
    # zero-flux ends, off-diagonal -A/h over the three interior faces
    from radks.helmholtz import _assemble

    g = make_grid(5, 1.0, 4)
    diag, off = _assemble(g, 1.0, 1.0)
    coupling = g.face_areas[1:-1] / g.h
    expected_diag = g.volumes.copy()
    expected_diag[:-1] += coupling
    expected_diag[1:] += coupling
    assert np.allclose(diag, expected_diag, rtol=1e-15)
    assert np.allclose(off, -coupling, rtol=1e-15)


def test_repeat_solves_bitwise_identical(grid, solver):
    rng = np.random.default_rng(3)
    u = RadialField(rng.random(grid.N), grid)
    w1 = solve(solver, u)
    w2 = solve(solver, u)
    assert np.array_equal(w1.values, w2.values)


def test_solve_keeps_nothing_and_u_keeps_one_w(grid, solver, monkeypatch):
    # solve always solves: two calls on one field make two dpttrs calls.
    # _kept_w solves once per field and keeps that w on u, read-only, for
    # any solver of u's grid; a solver of another grid is rejected
    count = []
    inner = helmholtz.dpttrs

    def counting(*args):
        count.append(1)
        return inner(*args)

    monkeypatch.setattr(helmholtz, "dpttrs", counting)
    u = RadialField(np.random.default_rng(5).random(grid.N), grid)
    w1, w2 = solve(solver, u), solve(solver, u)
    assert len(count) == 2 and w1 is not w2
    kept = helmholtz._kept_w(solver, u)
    assert helmholtz._kept_w(build_solver(grid), u) is kept
    assert len(count) == 3
    assert np.array_equal(kept.values, w1.values) and not kept.values.flags.writeable
    with pytest.raises(GridMismatchError):
        helmholtz._kept_w(build_solver(make_grid(5, 1.0, 64)), u)


def test_defining_residual_small():
    g = make_grid(5, 1.0, 32)
    s = build_solver(g)
    rng = np.random.default_rng(11)
    u = RadialField(rng.random(g.N) + 0.5, g)
    w = solve(s, u)
    defect = u.values - (w.values - laplacian(w).values)
    assert np.max(np.abs(defect)) <= 1e-12 * float(np.max(np.abs(u.values)))


def test_grid_mismatch_rejected(grid, solver):
    other = make_grid(5, 1.0, 64)
    with pytest.raises(GridMismatchError):
        solve(solver, constant_field(other, 1.0))


def test_mass_identity_every_solve(grid, solver):
    assert_mass_identity(grid, solver)


def test_graded_mass_identity_every_solve(graded, graded_solver):
    assert_mass_identity(graded, graded_solver)


@pytest.mark.parametrize("h_min", [None, 1e-12])
def test_mass_identity_at_large_n(h_min):
    # the one-pass solve keeps int w = int u at the blowup size
    big = make_grid(5, 1.0, 8192, h_min=h_min)
    assert_mass_identity(big, build_solver(big))


def longdouble_thomas(grid, b):
    """(V + K)^{-1} b by the Thomas algorithm in np.longdouble.

    The pivots come from the row sums of V + K, s_1 = V_1,
    s_{i+1} = V_{i+1} + c_i s_i / (s_i + c_i), which no subtraction cancels:
    eliminating the assembled diagonal V_i + c_{i-1} + c_i instead loses
    every V_i below the 80-bit ulp of the couplings (V_1 / c_1 ~ 2e-25 on
    the h_min = 1e-12 mesh at n = 5).
    """
    V = grid.volumes.astype(np.longdouble)
    c = grid.coupling.astype(np.longdouble)
    d = np.empty(grid.N, dtype=np.longdouble)
    s = V[0]
    for i in range(grid.N - 1):
        d[i] = s + c[i]
        s = V[i + 1] + c[i] * s / d[i]
    d[-1] = s
    m = c / d[:-1]
    x = b.astype(np.longdouble)
    for i in range(1, grid.N):
        x[i] += m[i - 1] * x[i - 1]
    x /= d
    for i in range(grid.N - 2, -1, -1):
        x[i] += m[i] * x[i + 1]
    return x


def componentwise_residual(grid, x, b):
    """max_i |(V + K)x - b|_i over the sum of the magnitudes of its terms."""
    V = grid.volumes.astype(np.longdouble)
    c = grid.coupling.astype(np.longdouble)
    flux = c * (x[1:] - x[:-1])
    r = V * x - b
    r[:-1] -= flux
    r[1:] += flux
    size = np.abs(x)
    scale = V * size
    face = c * (size[1:] + size[:-1])
    scale[:-1] += face
    scale[1:] += face
    return float(np.max(np.abs(r) / scale))


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant < 63, reason="np.longdouble is not 80-bit extended here"
)
@pytest.mark.parametrize("h_min", [None, 1e-12])
@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_one_pass_solve_matches_longdouble_thomas(n, h_min):
    # the elliptic solve is one dpttrs call on the row-sum factors, with no
    # refinement pass.  Worst cases over rng seeds 0-9 on x86-64:
    # componentwise error 7.7e-14 (u spanning e^-20..e^20; 3.0e-14 for
    # uniform u, 1.6e-14 for one cell at the origin), mass gap 1.2e-14 of
    # int |u|, signed rhs 4.5e-14 normwise, reference residual 8.9e-20.
    # Each bound is about three times its worst case
    g = make_grid(n, 1.0, 8192, h_min=h_min)
    s = build_solver(g)
    rng = np.random.default_rng(n)
    origin = np.zeros(g.N)
    origin[0] = 1.0
    for name, u in (
        ("uniform", rng.random(g.N) * 3),
        ("spread", np.exp(rng.uniform(-20.0, 20.0, g.N))),
        ("origin", origin),
        ("signed", rng.standard_normal(g.N)),
    ):
        w = solve(s, RadialField(u, g)).values
        b = g.volumes * u
        ref = longdouble_thomas(g, b)
        # the reference solves the flux-form system to its own round-off
        assert componentwise_residual(g, ref, b) <= 1e-17, name
        if name == "signed":
            err = np.max(np.abs(w - ref)) / np.max(np.abs(ref))
            assert err <= 1.5e-13, (name, float(err))
        else:
            assert np.min(w) >= 0.0, name
            err = np.max(np.abs(w - ref) / ref)
            assert err <= 2.5e-13, (name, float(err))
        gap = math.fsum(g.volumes * w) - math.fsum(b)
        assert abs(gap) <= 4e-14 * math.fsum(np.abs(b)), (name, gap / math.fsum(np.abs(b)))


def test_graded_constants_are_fixed_points(graded, graded_solver):
    for c in (1.0, 3.5, 0.0):
        w = solve(graded_solver, constant_field(graded, c))
        assert np.max(np.abs(w.values - c)) <= 1e-13 * (1 + abs(c))


def test_graded_grid_mismatch_rejected(graded_solver):
    uniform = make_grid(5, 1.0, 100)
    with pytest.raises(GridMismatchError):
        solve(graded_solver, constant_field(uniform, 1.0))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_positivity_property(seed):
    assert_positive_solve(make_grid(5, 1.0, 64), seed)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_graded_positivity_property(seed):
    assert_positive_solve(make_grid(5, 1.0, 64, h_min=GRADED_H_MIN), seed)


def test_strict_positivity_single_cell():
    g = make_grid(5, 1.0, 64)
    s = build_solver(g)
    vals = np.zeros(g.N)
    vals[10] = 1.0
    w = solve(s, RadialField(vals, g))
    assert np.min(w.values) > 0.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_comparison_property(seed):
    g = make_grid(5, 1.0, 64)
    s = build_solver(g)
    rng = np.random.default_rng(seed)
    u1 = rng.random(g.N)
    gap = rng.random(g.N)
    w1 = solve(s, RadialField(u1, g))
    w2 = solve(s, RadialField(u1 + gap, g))
    assert np.all(w2.values - w1.values >= -1e-13)


def test_manufactured_solution_second_order():
    errs = [manufactured_error(N) for N in (64, 128, 256)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 1.7 <= math.log2(coarse / fine) <= 2.3


def test_graded_manufactured_solution_converges():
    # at fixed h_min, doubling N shrinks the outer cells more than twofold,
    # so the order per doubling is at least the uniform one
    errs = [manufactured_error(N, h_min=GRADED_H_MIN) for N in (64, 128, 256)]
    for coarse, fine in zip(errs, errs[1:]):
        assert math.log2(coarse / fine) >= 1.7


def test_shifted_solve_matches_identity_limit():
    g = make_grid(5, 1.0, 64)
    rng = np.random.default_rng(9)
    rhs = rng.random(g.N)
    x = shifted_solve(build_solver(g), 1.0, 0.0, rhs * g.volumes)
    assert np.allclose(x, rhs, rtol=1e-13)


def test_shifted_solve_constant_mode():
    # (alpha I - beta L) applied to constants divides by alpha exactly
    g = make_grid(5, 1.0, 64)
    x = shifted_solve(build_solver(g), 2.5, 0.7, np.full(g.N, 5.0) * g.volumes)
    assert np.allclose(x, 2.0, rtol=1e-13)


def test_graded_shifted_solve_mass_identity(graded, graded_solver):
    # the K rows sum to zero, so alpha sum V x = sum V rhs
    rng = np.random.default_rng(13)
    for alpha, beta in ((1.0, 1e-3), (1.7, 0.4), (1.0 + 1e-6, 1e-6)):
        rhs = rng.random(graded.N) * 3
        x = shifted_solve(graded_solver, alpha, beta, rhs * graded.volumes)
        scale = math.fsum(np.abs(rhs) * graded.volumes)
        gap = alpha * math.fsum(graded.volumes * x) - math.fsum(graded.volumes * rhs)
        assert abs(gap) <= 1e-12 * scale


@pytest.mark.parametrize("h_min", [None, 1e-12])
def test_shifted_solve_mass_identity_at_large_n(h_min):
    # what the refinement pass buys at the blowup size: alpha int x = int rhs
    # to a few ulps, where one dpttrs alone leaves gaps up to ~1e-10 of int |rhs|
    big = make_grid(5, 1.0, 8192, h_min=h_min)
    solver = build_solver(big)
    rng = np.random.default_rng(29)
    for alpha, beta in ((1.0, 1.0), (1.0, 1e-2), (1.0 + 3e-4, 3e-4)):
        rhs = rng.random(big.N) * 3
        x = shifted_solve(solver, alpha, beta, rhs * big.volumes)
        scale = math.fsum(np.abs(rhs) * big.volumes)
        gap = alpha * math.fsum(big.volumes * x) - math.fsum(big.volumes * rhs)
        assert abs(gap) <= 1e-15 * scale, (alpha, beta, gap / scale)


def test_shifted_solve_takes_cell_integrals():
    # the right-hand side is b = V rhs, so the mass identity reads
    # alpha sum V x = sum b, whatever the cell integrals are
    g = make_grid(5, 1.0, 512, h_min=1e-12)
    solver = build_solver(g)
    rng = np.random.default_rng(31)
    for alpha, beta in ((1.0, 1e-2), (1.0 + 3e-4, 3e-4), (2.5, 0.7)):
        for b in (rng.random(g.N) * g.volumes, rng.random(g.N)):
            scale, want = math.fsum(np.abs(b)), math.fsum(b)
            x = shifted_solve(solver, alpha, beta, b)  # overwrites b
            gap = alpha * math.fsum(g.volumes * x) - want
            assert abs(gap) <= 1e-15 * scale, (alpha, beta, gap / scale)


@pytest.mark.parametrize("N, h_min", [(8192, None), (1024, 1e-6), (1024, 1e-12)])
def test_shifted_solve_from_the_signal_matches_the_two_pass_solve(N, h_min):
    # the stepper's v-update corrects v itself by one solve against its
    # defect dt V (w - (I - L) v): on the README blowup data, at t = 0 and
    # after 300 CFL steps, that gives the two-pass v+ and keeps
    # (1 + dt) int v+ = int rhs; v is only read
    g = make_grid(5, 1.0, N, h_min=h_min)
    s = build_solver(g)
    u0, v0 = base_data("bump", g, s, baseline=1.0, amplitude=2e7, width=0.06, v_mode="relaxed")
    cfg = default_stepper_config(g, t_end=0.5)
    state, _, _ = run(u0, v0, cfg, solver=s, max_steps=300)
    for u, v, dt in ((u0, v0, 1e-6), (u0, v0, 1e-2), (state.u, state.v, adapt_dt(state, cfg))):
        w = solve(s, u).values
        rhs = v.values + dt * w
        defect = dt * g.volumes * (w - v.values + laplacian(v).values)
        before = v.values.copy()
        want = shifted_solve(s, 1.0 + dt, dt, rhs * g.volumes)
        x = shifted_solve(s, 1.0 + dt, dt, defect, guess=v.values)
        assert np.array_equal(v.values, before)
        assert np.max(np.abs(x - want)) <= 1e-14 * np.max(np.abs(want)), dt
        scale = math.fsum(np.abs(rhs) * g.volumes)
        gap = (1.0 + dt) * math.fsum(g.volumes * x) - math.fsum(g.volumes * rhs)
        assert abs(gap) <= 1e-14 * scale, (dt, gap / scale)


def test_graded_shifted_solve_constant_mode(graded, graded_solver):
    for alpha, beta, c in ((2.5, 0.7, 5.0), (1.0 + 1e-3, 1e-3, 1.0), (4.0, 0.0, -3.0)):
        x = shifted_solve(graded_solver, alpha, beta, np.full(graded.N, c) * graded.volumes)
        assert np.max(np.abs(x - c / alpha)) <= 1e-13 * abs(c / alpha)


@pytest.mark.parametrize("h_min", [None, GRADED_H_MIN])
def test_shifted_solve_unit_shift_matches_elliptic_solve(h_min):
    g = make_grid(5, 1.0, 100, h_min=h_min)
    u = RadialField(np.random.default_rng(17).random(g.N) + 0.5, g)
    w = solve(build_solver(g), u).values
    x = shifted_solve(build_solver(g), 1.0, 1.0, u.values * g.volumes)
    assert np.max(np.abs(x - w)) <= 1e-13 * float(np.max(np.abs(w)))


@pytest.mark.parametrize("h_min", [None, GRADED_H_MIN])
def test_shifted_solve_cycling_pairs_get_their_own_factors(h_min):
    # one solver keeps two factor pairs; cycling three (or four) pairs
    # evicts and refactors, and every call must still solve its own system
    g = make_grid(5, 1.0, 100, h_min=h_min)
    rhs = np.random.default_rng(21).random(g.N) + 0.5
    pairs = [(1.0 + 1e-3, 1e-3), (1.0, 1e-3), (1.0 + 2e-3, 2e-3), (3.0, 0.5)]
    want = {p: shifted_solve(build_solver(g), *p, rhs * g.volumes) for p in pairs}
    assert len({x.tobytes() for x in want.values()}) == len(pairs)
    shared = build_solver(g)
    for cycle in (pairs[:3], pairs, pairs[:2] * 2, pairs[::-1]):
        for p in cycle:
            assert np.array_equal(shifted_solve(shared, *p, rhs * g.volumes), want[p]), p


@pytest.mark.parametrize("alpha, beta", [(-1.0, 1.0), (-1.0, 0.0), (0.5, -1.0)])
def test_shifted_solve_rejects_indefinite_operator(alpha, beta):
    g = make_grid(5, 1.0, 64)
    with pytest.raises(ConfigurationError, match="not positive definite"):
        shifted_solve(build_solver(g), alpha, beta, np.ones(g.N) * g.volumes)


def test_build_solver_rejects_a_grid_whose_inner_cells_underflow():
    # at n = 40, on a mesh graded to 1e-12, the volumes and couplings of the
    # innermost cells underflow to zero, and I - L is singular
    g = make_grid(40, 1.0, 64, h_min=1e-12)
    assert g.volumes[0] == g.coupling[0] == 0.0
    with pytest.raises(ConfigurationError, match="zero pivot"):
        build_solver(g)


def random_spd_tridiagonal(N, seed):
    """Diagonally dominant (so SPD) tridiagonal system with a random rhs."""
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(N - 1)
    d = 1.0 + rng.random(N)
    d[:-1] += np.abs(e)
    d[1:] += np.abs(e)
    return d, e, rng.standard_normal(N)


@pytest.mark.parametrize("N", [5, 4096])
def test_loaded_lapack_matches_public_scipy_routines(N):
    from scipy.linalg import lapack

    d, e, b = random_spd_tridiagonal(N, seed=N)
    ours = helmholtz.dpttrf(d, e)
    theirs = lapack.dpttrf(d, e)
    assert ours[2] == theirs[2] == 0
    for a, c in zip(ours[:2], theirs[:2]):
        assert a.tobytes() == c.tobytes()
    x = helmholtz.dpttrs(*ours[:2], b)
    assert x[1] == 0
    assert x[0].tobytes() == lapack.dpttrs(*theirs[:2], b)[0].tobytes()


def test_import_leaves_the_scipy_package_unimported():
    # the LAPACK routines come from the compiled module alone; importing
    # the scipy package would cost ~0.3 s of every run's start-up
    src = str(Path(helmholtz.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import sys, radks.cli; print('scipy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("content", [None, b"not a shared library"])
def test_lapack_falls_back_to_public_import(tmp_path, monkeypatch, content):
    from scipy.linalg import lapack

    if content is not None:
        (tmp_path / f"_flapack{EXTENSION_SUFFIXES[0]}").write_bytes(content)
    routines = helmholtz._load_lapack(tmp_path)
    assert routines == (lapack.dpttrf, lapack.dpttrs)
    g = make_grid(5, 1.0, 64)
    u = RadialField(np.random.default_rng(3).random(g.N) + 0.5, g)
    want = solve(build_solver(g), u)
    monkeypatch.setattr(helmholtz, "dpttrf", routines[0])
    monkeypatch.setattr(helmholtz, "dpttrs", routines[1])
    assert np.array_equal(solve(build_solver(g), u).values, want.values)
