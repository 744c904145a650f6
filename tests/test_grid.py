import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radks.dynamics import State
from radks.errors import ConfigurationError, GridMismatchError
from radks.grid import (
    RadialField,
    _adopt,
    constant_field,
    face_means,
    field_from_function,
    gradient_faces,
    integrate,
    laplacian,
    make_grid,
    sup_norm,
    unit_sphere_area,
)

BALL_VOLUME_N5_R1 = 8 * math.pi**2 / 15  # omega_5 R^5 / 5
GRADED_H_MIN = 1e-9  # smallest cell width of the graded test meshes


def graded_grid(N=64):
    return make_grid(5, 1.0, N, h_min=GRADED_H_MIN)


def assert_volume_identity(g):
    assert abs(math.fsum(g.volumes) - g.ball_volume) <= 4 * np.spacing(g.ball_volume)



def test_unit_sphere_area_n5_closed_form():
    assert unit_sphere_area(5) == pytest.approx(8 * math.pi**2 / 3, rel=1e-14)


def test_make_grid_geometry():
    g = make_grid(5, 2.0, 10)
    assert g.h == pytest.approx(0.2)
    assert g.centers[0] == pytest.approx(0.1)
    assert g.faces[0] == 0.0
    assert g.faces[-1] == pytest.approx(2.0)
    assert math.fsum(g.volumes) == pytest.approx(g.ball_volume, rel=1e-15)


def test_make_grid_volume_identity_machine_precision():
    g = make_grid(5, 1.0, 100)
    assert abs(math.fsum(g.volumes) - BALL_VOLUME_N5_R1) <= 4 * np.spacing(BALL_VOLUME_N5_R1)


def test_make_grid_graded_geometry():
    g = graded_grid()
    widths = np.diff(g.faces)
    assert g.faces[0] == 0.0 and g.faces[-1] == 1.0
    assert g.h_min == widths[0] == pytest.approx(GRADED_H_MIN, rel=1e-12)
    assert g.h == widths[-1]
    ratios = widths[1:] / widths[:-1]
    assert ratios[0] > 1.0
    assert np.allclose(ratios, ratios[0], rtol=1e-9, atol=0.0)
    assert np.array_equal(g.centers, 0.5 * (g.faces[:-1] + g.faces[1:]))
    # dual-cell widths: center spacing inside, half-cell distance at the ends
    assert np.array_equal(g.spacing[1:-1], np.diff(g.centers))
    assert g.spacing[0] == g.centers[0] and g.spacing[-1] == 1.0 - g.centers[-1]
    assert math.fsum(g.spacing) == pytest.approx(1.0, rel=1e-15)
    assert g.ball_volume == pytest.approx(BALL_VOLUME_N5_R1, rel=1e-15)


def test_make_grid_uniform_spacing_is_exact():
    g = make_grid(5, 2.0, 10)
    assert g.h_min == g.h == 0.2
    assert np.all(g.spacing[1:-1] == g.h)
    assert g.spacing[0] == g.spacing[-1] == 0.5 * g.h


def test_graded_volume_identity_machine_precision():
    g = make_grid(5, 1.0, 100, h_min=GRADED_H_MIN)
    assert abs(math.fsum(g.volumes) - BALL_VOLUME_N5_R1) <= 4 * np.spacing(BALL_VOLUME_N5_R1)


@pytest.mark.parametrize("h_min", [0.0, -1e-9, 0.25, 1.0, math.nan])
def test_make_grid_rejects_bad_h_min(h_min):
    with pytest.raises(ConfigurationError):
        make_grid(5, 1.0, 4, h_min=h_min)


def test_same_as_separates_graded_from_uniform():
    uniform = make_grid(5, 1.0, 64)
    graded = graded_grid()
    assert not graded.same_as(uniform) and not uniform.same_as(graded)
    assert graded.same_as(graded_grid())
    assert not graded.same_as(make_grid(5, 1.0, 64, h_min=1e-6))


def test_grids_and_fields_compare_and_hash_by_identity():
    # two builds from the same inputs are two objects, one mesh: same_as
    # tells the mesh, == and hash the object, and neither reads an array
    a, b = make_grid(5, 1.0, 64), make_grid(5, 1.0, 64)
    assert a == a and a != b and a.same_as(b)
    assert len({a, b, a}) == 2
    u, u2 = RadialField(a.centers, a), RadialField(a.centers, a)
    assert u == u and u != u2 and u.grid.same_as(u2.grid)
    assert len({u, u2, u}) == 2
    # a State compares and hashes field by field, its fields by identity
    s = State(0.0, 0, u, u, 1e-3)
    assert s == State(0.0, 0, u, u, 1e-3) and s != State(0.0, 0, u2, u, 1e-3)
    assert hash(s) == hash(State(0.0, 0, u, u, 1e-3))


@pytest.mark.parametrize(
    "n,R,N",
    [(1, 1.0, 10), (5, 1.0, 3), (5, 0.0, 10), (5, -1.0, 10), (5, math.nan, 10)],
)
def test_make_grid_rejects_bad_parameters(n, R, N):
    with pytest.raises(ConfigurationError):
        make_grid(n, R, N)


@pytest.mark.parametrize(
    "n,R,N,h_min,key",
    [
        (5, 1.0, 64, 1e-100, "h_min"),  # innermost volumes round to zero
        (5, 1.0, 64, 1e-310, "h_min"),  # a subnormal h_min: faces collapse
        (8, 1e-40, 64, None, "R"),      # uniform, volumes round to zero
        (5, 1e-62, 4, None, "R"),       # uniform, subnormal volumes
    ],
)
def test_make_grid_rejects_cells_below_the_smallest_normal_volume(n, R, N, h_min, key):
    # rejected before any arithmetic that could warn (tier-1 fails on a
    # RuntimeWarning), keyed by the parameter that sets the innermost width
    with pytest.raises(ConfigurationError) as excinfo:
        make_grid(n, R, N, h_min=h_min)
    assert set(excinfo.value.problems) == {key}


def test_the_suites_finest_graded_mesh_has_normal_volumes():
    g = make_grid(8, 1.0, 64, h_min=1e-12)
    assert np.min(g.volumes) == g.volumes[0]
    assert g.volumes[0] == pytest.approx(4.0587e-96, rel=1e-4)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    R=st.floats(min_value=0.1, max_value=50.0),
    N=st.integers(min_value=4, max_value=3000),
)
def test_volume_identity_property(n, R, N):
    assert_volume_identity(make_grid(n, R, N))


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    R=st.floats(min_value=0.1, max_value=50.0),
    N=st.integers(min_value=4, max_value=3000),
    decades=st.integers(min_value=1, max_value=12),
)
def test_graded_volume_identity_property(n, R, N, decades):
    assert_volume_identity(make_grid(n, R, N, h_min=R / N * 10.0**-decades))


def test_integrate_constant_is_ball_volume():
    g = make_grid(5, 1.0, 64)
    assert integrate(constant_field(g, 1.0)) == pytest.approx(BALL_VOLUME_N5_R1, rel=1e-14)


def test_integrate_zero():
    g = make_grid(5, 1.0, 16)
    assert integrate(constant_field(g, 0.0)) == 0.0


def test_integrate_r_squared_second_order():
    # int_B r^2 = omega_5 / 7 for R = 1; midpoint rule converges at O(h^2)
    exact = 8 * math.pi**2 / 21
    errs = []
    for N in (50, 100, 200):
        g = make_grid(5, 1.0, N)
        errs.append(abs(integrate(field_from_function(g, lambda r: r * r)) - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


def test_integrate_linearity():
    g = make_grid(5, 1.0, 64)
    rng = np.random.default_rng(7)
    f = RadialField(rng.random(g.N), g)
    h = RadialField(rng.random(g.N), g)
    combo = RadialField(2.5 * f.values - 1.25 * h.values, g)
    assert integrate(combo) == pytest.approx(
        2.5 * integrate(f) - 1.25 * integrate(h), rel=1e-13, abs=1e-13
    )


def test_face_power_is_kept_on_its_own_grid():
    # each grid keeps its own powers: a second grid on another radius,
    # built after the first is gone, never reads the first one's
    def power(R):
        g = make_grid(5, R, 32)
        first = g.face_power(4.5)
        assert g.face_power(4.5) is first and not first.flags.writeable
        assert first.tobytes() == (g.faces[1:-1] ** 4.5).tobytes()
        return first

    assert power(1.0).tobytes() != power(2.0).tobytes()


def test_sup_norm_cases():
    g = make_grid(5, 1.0, 8)
    assert sup_norm(constant_field(g, -3.0)) == 3.0
    vals = np.zeros(g.N)
    vals[3] = 7.0
    assert sup_norm(RadialField(vals, g)) == 7.0
    r = field_from_function(g, lambda r: r)
    assert sup_norm(r) == pytest.approx(1.0 - g.h / 2)


def test_gradient_faces_constant_and_quadratic():
    g = make_grid(5, 1.0, 32)
    assert np.all(gradient_faces(constant_field(g, 4.2)) == 0.0)
    quad = field_from_function(g, lambda r: r * r)
    grad = gradient_faces(quad)
    assert grad[0] == 0.0 and grad[-1] == 0.0
    # central difference of a quadratic is exact at the face
    assert np.allclose(grad[1:-1], 2.0 * g.faces[1:-1], rtol=1e-13)


def test_gradient_faces_hand_stencil():
    g = make_grid(5, 1.0, 4)  # h = 0.25, exactly representable
    f = RadialField(np.array([0.0, 1.0, 2.0, 3.0]), g)
    grad = gradient_faces(f)
    assert grad[0] == 0.0 and grad[-1] == 0.0
    assert np.all(grad[1:-1] == 1.0 / g.h)


def test_laplacian_annihilates_constants():
    g = make_grid(5, 1.0, 32)
    assert np.all(laplacian(constant_field(g, 3.7)).values == 0.0)


def test_graded_laplacian_annihilates_constants():
    assert np.all(laplacian(constant_field(graded_grid(), 3.7)).values == 0.0)


def test_graded_gradient_exact_for_linear():
    g = graded_grid()
    grad = gradient_faces(field_from_function(g, lambda r: 2.0 * r))
    assert grad[0] == 0.0 and grad[-1] == 0.0
    assert np.allclose(grad[1:-1], 2.0, rtol=1e-9)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_laplacian_zero_mean_property(seed):
    g = make_grid(5, 1.0, 64)
    rng = np.random.default_rng(seed)
    f = RadialField(rng.standard_normal(g.N), g)
    flux_scale = float(np.max(g.face_areas)) * np.max(np.abs(f.values)) / g.h
    assert abs(integrate(laplacian(f))) <= 1e-12 * flux_scale


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_graded_laplacian_zero_mean_property(seed):
    g = graded_grid()
    rng = np.random.default_rng(seed)
    f = RadialField(rng.standard_normal(g.N), g)
    # largest interior face coupling: the face widths vary over nine decades
    coupling = float(np.max(g.face_areas[1:-1] / g.spacing[1:-1]))
    assert abs(integrate(laplacian(f))) <= 1e-12 * coupling * np.max(np.abs(f.values))


@pytest.mark.parametrize("h_min", [None, 1e-12])
def test_laplacian_zero_mean_at_large_n(h_min):
    # the fluxes still telescope under integrate's pairwise sum at N = 8192
    g = make_grid(5, 1.0, 8192, h_min=h_min)
    f = RadialField(np.random.default_rng(8192).standard_normal(g.N), g)
    coupling = float(np.max(g.face_areas[1:-1] / g.spacing[1:-1]))
    assert abs(integrate(laplacian(f))) <= 1e-12 * coupling * np.max(np.abs(f.values))


def test_laplacian_convergence_to_analytic():
    # f = cos(pi r / R): lap f = -k^2 cos(kr) - (n-1)/r k sin(kr), k = pi/R
    errs = []
    for N in (100, 200, 400):
        g = make_grid(5, 1.0, N)
        k = math.pi / g.R
        f = field_from_function(g, lambda r: math.cos(k * r))
        exact = np.array(
            [
                -k * k * math.cos(k * r) - (g.n - 1) / r * k * math.sin(k * r)
                for r in g.centers
            ]
        )
        errs.append(float(np.max(np.abs(laplacian(f).values - exact))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_field_length_mismatch_rejected():
    g = make_grid(5, 1.0, 8)
    with pytest.raises(GridMismatchError):
        RadialField(np.zeros(7), g)


def test_fields_are_immutable():
    g = make_grid(5, 1.0, 8)
    f = constant_field(g, 1.0)
    with pytest.raises(ValueError):
        f.values[0] = 2.0
    with pytest.raises(ValueError):
        g.volumes[0] = 0.0


def _cells(derived):
    """The array behind a derived field: laplacian gives a RadialField."""
    return derived.values if isinstance(derived, RadialField) else derived


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=5, max_value=8),
    N=st.integers(min_value=4, max_value=256),
    h_min_exp=st.one_of(st.none(), st.integers(min_value=-12, max_value=-3)),
    adopted=st.booleans(),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_derived_fields_are_kept_on_their_field(n, N, h_min_exp, adopted, seed):
    # uniform and graded meshes down to h_min 1e-12, fields built by the
    # constructor and by _adopt: the face gradient is computed once, equals
    # a fresh copy's bit for bit, is read-only, and stays with the field
    # through dataclasses.replace of a State that holds it; the face means
    # and L f are computed anew on every call, bit for bit the same, and
    # the field stores neither
    g = make_grid(n, 1.0, N, h_min=None if h_min_exp is None else 10.0**h_min_exp)
    values = np.random.default_rng(seed).uniform(-1e3, 1e3, N)
    field = _adopt(values.copy(), g) if adopted else RadialField(values, g)
    state = State(0.0, 0, field, field, 1e-3)
    kept = gradient_faces(field)
    assert gradient_faces(field) is kept
    fresh = gradient_faces(RadialField(field.values, g))
    assert fresh is not kept
    assert kept.tobytes() == fresh.tobytes()
    with pytest.raises(ValueError):
        kept[0] = 1.0
    moved = replace(state, dt=2e-3)
    assert gradient_faces(moved.u) is kept and gradient_faces(moved.v) is kept
    for op in (face_means, laplacian):
        first = op(field)
        again = op(field)
        assert again is not first
        assert _cells(again).tobytes() == _cells(first).tobytes()
        fresh = op(RadialField(field.values, g))
        assert _cells(fresh).tobytes() == _cells(first).tobytes()
    assert "_face_means" not in field.__dict__ and "_laplacian" not in field.__dict__
