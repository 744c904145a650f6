import math

import numpy as np
import pytest

from radks import initial_data
from radks.errors import AdmissibilityError, ConfigurationError, GridMismatchError, SnapshotFormatError
from radks.grid import constant_field, integrate, make_grid
from radks.helmholtz import build_solver
from radks.initial_data import (
    base_data,
    build_family,
    eta_star,
    family_energy_scan,
    l1_distance,
    mollifier_normalization,
    w22_norm,
)

# Frozen regression constants (independent oracles in the companion tests):
# - normalization of the unit-mass bump in R^5, from adaptive quadrature of
#   exp(-1/(1-r^2)) r^4 (scipy.integrate.quad at 1e-14 tolerance)
C5_NORMALIZATION = 3.230410698920738
# - admissibility threshold for (iota=1, gamma=1.5, n=5, volume=8 pi^2/15),
#   from root-finding on s^3 exp(-s/2) = 1/2 in s = ln(1/eta)
ETA_STAR_REFERENCE = 5.186097735342984e-09
# - family energies on the N=2048 unit-ball grid at eta_star/{4,8,16,32}
#   over the unit base pair; validated against the closed-form cell-1
#   oracle in test_family_energy_decreasing_with_closed_form_oracle
FAMILY_F_REFERENCE = (
    7.9566310167383305,
    5.581143285062944,
    3.717406573321508,
    2.2612387335381268,
)

BALL_VOLUME = 8 * math.pi**2 / 15


def test_mollifier_normalization_frozen():
    assert mollifier_normalization(5) == pytest.approx(C5_NORMALIZATION, rel=1e-10)


def test_mollifier_unit_integral_quadrature():
    # integrate phi over the unit ball with an independent midpoint rule;
    # the rule is O(h^2), so a fine mesh reaches the 1e-10 tolerance
    g = make_grid(5, 1.0, 262144)
    vals = np.where(
        g.centers < 1.0,
        mollifier_normalization(5) * np.exp(-1.0 / (1.0 - np.minimum(g.centers, 1 - 1e-9) ** 2)),
        0.0,
    )
    assert math.fsum(vals * g.volumes) == pytest.approx(1.0, abs=1e-10)


def test_mollifier_support_and_monotonicity():
    # the profile the normalization and the cell fractions integrate
    phi = initial_data._profile(np.array([0.0, 0.3, 0.7, 1.0, 1.7]))
    assert phi[0] == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert phi[1] >= phi[2] > 0.0
    assert phi[3] == 0.0 and phi[4] == 0.0


def test_eta_star_frozen_regression():
    got = eta_star(1.0, 1.5, 5, BALL_VOLUME)
    assert got == pytest.approx(ETA_STAR_REFERENCE, rel=1e-9)


def test_eta_star_defining_conditions_hold_below():
    star = eta_star(1.0, 1.5, 5, BALL_VOLUME)
    for k in (2.0, 10.0, 100.0):
        eta = star / k
        psi = eta ** 0.5 * math.log(1.0 / eta) ** 3
        assert psi < BALL_VOLUME * 1.0
        assert 2.0 * psi < 1.0


def test_eta_star_vanishing_small_scale_limit():
    # psi -> 0 as eta -> 0 (the power beats the logarithm for n >= 5)
    psis = [e**0.5 * math.log(1.0 / e) ** 3 for e in (1e-10, 1e-20, 1e-40)]
    assert psis[0] > psis[1] > psis[2]
    assert psis[2] < 1e-12


def test_eta_star_bisection_stability():
    # the bisection is run to relative machine tolerance; perturbing the
    # volume at the 1e-12 level moves the threshold by far less than 1e-10
    a = eta_star(1.0, 1.5, 5, BALL_VOLUME)
    b = eta_star(1.0, 1.5, 5, BALL_VOLUME * (1 + 1e-12))
    assert abs(a - b) < 1e-10


def test_eta_star_rejects_bad_inputs():
    with pytest.raises(ConfigurationError):
        eta_star(1.0, 1.0, 5, BALL_VOLUME)  # gamma must exceed 1
    with pytest.raises(ConfigurationError):
        eta_star(0.0, 1.5, 5, BALL_VOLUME)
    with pytest.raises(ConfigurationError):
        eta_star(1.0, 1.5, 4, BALL_VOLUME)  # needs n >= 5


@pytest.fixture(scope="module")
def fine_grid():
    return make_grid(5, 1.0, 2048)


@pytest.fixture(scope="module")
def fine_solver(fine_grid):
    return build_solver(fine_grid)


@pytest.fixture(scope="module")
def family_rows(fine_grid, fine_solver):
    u0 = constant_field(fine_grid, 1.0)
    v0 = constant_field(fine_grid, 1.0)
    star = eta_star(1.0, 1.5, 5, fine_grid.ball_volume)
    etas = [star / 4, star / 8, star / 16, star / 32]
    return u0, v0, family_energy_scan(u0, v0, 1.5, etas, fine_solver)


def test_family_exact_mass(family_rows, fine_grid):
    u0, _, rows = family_rows
    m0 = integrate(u0)
    for row in rows:
        assert abs(row.mass - m0) <= 1e-12 * m0


def test_family_positivity_and_v_ordering(family_rows, fine_grid):
    u0, v0, rows = family_rows
    for row in rows:
        assert row.min_u > 0.0
        assert np.all(row.v.values >= v0.values)


def test_family_l1_distance_decreasing_with_scale_oracle(family_rows, fine_grid):
    # closed form: the bump carries mass psi(eta) and the corrector removes
    # the same mass uniformly, so |u_eta - u0|_{L1} ~ 2 psi(eta)
    u0, _, rows = family_rows
    dists = [l1_distance(row.u, u0) for row in rows]
    assert all(b < a for a, b in zip(dists, dists[1:]))
    for row, dist in zip(rows, dists):
        s = -math.log(row.eta)
        psi = math.exp(0.5 * math.log(row.eta) + 3.0 * math.log(s))
        # bump mass psi leaves cell 1 positive and lowers every other cell
        assert dist == pytest.approx(
            2.0 * psi * (1 - fine_grid.volumes[0] / fine_grid.ball_volume), rel=1e-9
        )


def test_family_energy_decreasing_with_closed_form_oracle(family_rows, fine_grid):
    # at sub-cell scales the whole bump mass lands in the first cell, so F
    # has a closed form in psi(eta), the cell volume, and the ball volume
    u0, v0, rows = family_rows
    F = [row.F for row in rows]
    assert all(b < a for a, b in zip(F, F[1:]))
    V1 = float(fine_grid.volumes[0])
    vol = fine_grid.ball_volume
    for row in rows:
        s = -math.log(row.eta)
        psi = math.exp(0.5 * math.log(row.eta) + 3.0 * math.log(s))
        c = psi / vol
        u1 = 1.0 + psi / V1 - c
        entropy = V1 * u1 * math.log(u1) + (vol - V1) * (1 - c) * math.log(1 - c)
        oracle = entropy - vol + 0.5 * vol
        assert row.F == pytest.approx(oracle, abs=1e-6)


def test_family_energy_frozen_regression(family_rows):
    _, _, rows = family_rows
    for row, frozen in zip(rows, FAMILY_F_REFERENCE):
        assert row.F == pytest.approx(frozen, rel=1e-9)


def test_family_requires_admissible_scale(fine_grid):
    u0 = constant_field(fine_grid, 1.0)
    v0 = constant_field(fine_grid, 1.0)
    star = eta_star(1.0, 1.5, 5, fine_grid.ball_volume)
    with pytest.raises(AdmissibilityError):
        build_family(u0, v0, 1.5, 2 * star)
    with pytest.raises(AdmissibilityError) as err:
        build_family(u0, v0, 1.5, 1e-3)
    assert str(err.value) == "eta: must lie in (0, eta_star=5.1861e-09), got 0.001"


@pytest.mark.parametrize("u_value, v_value, gamma, eta, error, key", [
    (1.0, 1.0, 1.5, 0.0, AdmissibilityError, "eta"),
    (1.0, -1.0, 1.5, 1e-9, AdmissibilityError, "v0"),
    (1.0, 1.0, 1.0, 1e-9, ConfigurationError, "gamma"),
    (-1.0, 1.0, 1.5, 1e-9, ConfigurationError, "iota"),
])
def test_family_rule_has_one_key(u_value, v_value, gamma, eta, error, key):
    # each family rule is checked once, by build_family or by the eta_star
    # it calls, and names its one parameter
    g = make_grid(5, 1.0, 64)
    with pytest.raises(error) as err:
        build_family(constant_field(g, u_value), constant_field(g, v_value), gamma, eta)
    assert list(err.value.problems) == [key]


@pytest.mark.parametrize("R, N", [(2.0, 64), (1.0, 128)])
def test_family_rejects_v0_on_another_grid(R, N):
    u0 = constant_field(make_grid(5, 1.0, 64), 1.0)
    v0 = constant_field(make_grid(5, R, N), 1.0)
    with pytest.raises(GridMismatchError):
        build_family(u0, v0, 1.5, 1e-9)


def test_gauss_panels_match_the_per_panel_loop_bit_for_bit():
    def reference(a, b, panels):
        x, w = np.polynomial.legendre.leggauss(16)
        edges = np.linspace(a, b, panels + 1)
        nodes, weights = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            nodes.append(mid + half * x)
            weights.append(half * w)
        return np.concatenate(nodes), np.concatenate(weights)

    for a, b, panels in ((0.0, 1.0, 32), (0.0, 1.0, 8), (0.37, 0.912, 4), (1e-3, 1.0, 67)):
        nodes, weights = initial_data._gauss_panels(a, b, panels)
        ref_nodes, ref_weights = reference(a, b, panels)
        assert np.array_equal(nodes, ref_nodes)
        assert np.array_equal(weights, ref_weights)


def test_bump_fractions_unit_mass_any_scale():
    from radks.initial_data import bump_cell_fractions

    g = make_grid(5, 1.0, 512)
    for eta in (0.9, 0.125, 3.3e-3, 1e-9):
        fr = bump_cell_fractions(g, eta)
        assert math.fsum(fr) == pytest.approx(1.0, abs=1e-12)
        assert np.all(fr >= 0.0)


def test_bump_fractions_subcell_land_in_first_cell():
    from radks.initial_data import bump_cell_fractions

    g = make_grid(5, 1.0, 512)
    fr = bump_cell_fractions(g, 1e-9)
    assert fr[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(fr[1:] == 0.0)


def test_bump_fractions_match_pointwise_profile_when_resolved():
    # cell averages track phi(r/eta) V_i / eta^n at a well-resolved scale
    from radks.initial_data import bump_cell_fractions

    g = make_grid(5, 1.0, 512)
    eta = 0.25
    fr = bump_cell_fractions(g, eta)
    inside = g.centers < 0.8 * eta
    expected = (
        mollifier_normalization(5)
        * initial_data._profile(g.centers[inside] / eta)
        * g.volumes[inside]
        / eta**g.n
    )
    # cell averaging differs from the center value at O(h^2/eta^2)
    assert np.max(np.abs(fr[inside] - expected)) <= 5e-4 * np.max(expected)


def test_base_data_constant():
    g = make_grid(5, 1.0, 64)
    u0, v0 = base_data("constant", g, value=1.0)
    assert np.all(u0.values == 1.0) and np.all(v0.values == 1.0)


def test_base_data_bump_degenerate():
    g = make_grid(5, 1.0, 64)
    u0, v0 = base_data("bump", g, baseline=2.0, amplitude=0.0, width=0.3)
    assert np.allclose(u0.values, 2.0) and np.allclose(v0.values, 2.0)


def test_base_data_rejects_nonpositive():
    g = make_grid(5, 1.0, 64)
    with pytest.raises(AdmissibilityError):
        base_data("constant", g, value=0.0)
    with pytest.raises(AdmissibilityError):
        base_data("bump", g, baseline=1.0, amplitude=-2.0, width=0.3)


def test_base_data_relaxed_uses_the_given_solver(monkeypatch):
    g = make_grid(5, 1.0, 64)
    params = dict(baseline=1.0, amplitude=0.5, width=0.3, v_mode="relaxed")
    want = base_data("bump", g, **params)
    solver = build_solver(g)

    def unexpected(grid):
        raise AssertionError("base_data built a second solver")

    monkeypatch.setattr(initial_data, "build_solver", unexpected)
    u0, v0 = base_data("bump", g, solver, **params)
    assert np.array_equal(u0.values, want[0].values)
    assert np.array_equal(v0.values, want[1].values)

def test_base_data_custom_roundtrip(tmp_path):
    from radks.snapshots import write_snapshot

    g = make_grid(5, 1.0, 64)
    u0, v0 = base_data("bump", g, baseline=1.0, amplitude=0.5, width=0.3)
    path = tmp_path / "snap.snap"
    write_snapshot(path, g, u0, v0, t=0.25)
    u1, v1 = base_data("custom", g, path=str(path))
    assert np.array_equal(u1.values, u0.values)
    assert np.array_equal(v1.values, v0.values)


def test_base_data_custom_rejects_other_mesh(tmp_path):
    from radks.snapshots import write_snapshot

    graded = make_grid(5, 1.0, 64, h_min=1e-6)
    u0, v0 = base_data("bump", graded, baseline=1.0, amplitude=0.5, width=0.3)
    path = tmp_path / "snap.snap"
    write_snapshot(path, graded, u0, v0)
    # same row count, other mesh
    with pytest.raises(SnapshotFormatError, match="mesh mismatch.*N=64, h_min=0.015625"):
        base_data("custom", make_grid(5, 1.0, 64), path=str(path))
    u1, _ = base_data("custom", graded, path=str(path))
    assert np.array_equal(u1.values, u0.values)


def test_w22_norm_constant():
    g = make_grid(5, 1.0, 64)
    f = constant_field(g, 2.0)
    assert w22_norm(f) == pytest.approx(2.0 * math.sqrt(g.ball_volume), rel=1e-12)
