"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 6-10 study the concentrated low-energy family.  Every
admissible scale lies below eta_star ~ 5.19e-9, about 1e-5 of a cell of
a uniform mesh with N = 2048, where the signal bump rounds away and the
sup norm is capped at mass/V_1.  The family therefore lives on
geometrically graded meshes with the same cell counts whose smallest
cell is FAMILY_H_MIN = 1e-12, so each bump covers 92-244 cells.  Measured
there: W^{2,2} distances 0.320 -> 0.275, F from -22.4 down to -45.1; all
four trajectories exit blown_up after 35-66 steps with 1.1e6-2.5e6x sup
growth at t_b ~ 8.2e-24 (eta_star/16) and ~1.66e-24 (eta_star/32),
within 1.4% across N = 1024 and 2048; ODI tail slopes 1.63-1.78.
"""

import math
import time

import numpy as np
import pytest

from radks.dynamics import SimStatus, default_stepper_config, run
from radks.grid import RadialField, constant_field, field_from_function, integrate, make_grid
from radks.helmholtz import build_solver, solve
from radks.initial_data import (
    FamilyParams,
    build_family,
    eta_star,
    family_energy_scan,
    l1_distance,
    w22_distance,
    w22_norm,
)
from radks.probes import (
    ProbeConfig,
    probe_entropy_floor,
    probe_fd_ratio,
    probe_odi,
    probe_pointwise_v,
    probe_pointwise_w,
)

BALL_VOLUME = 8 * math.pi**2 / 15
THETA = 5.0 / 7.0
# smallest cell width of the graded meshes that carry the admissible family
FAMILY_H_MIN = 1e-12

# entropy-floor outcomes collected from every trajectory this module runs
ENTROPY_FLOOR_RESULTS: list[bool] = []


def report(num: int, passed: bool, detail: str) -> None:
    mark = "PASS" if passed else "FAIL"
    print(f"[criterion {num:02d}] {mark}  {detail}")


def smooth_positive_pair(grid, seed=2024, amp=0.25):
    rng = np.random.default_rng(seed)
    a = amp * (2 * rng.random(4) - 1)
    b = amp * (2 * rng.random(4) - 1)
    u = 1.0 + sum(a[k] * np.cos((k + 1) * math.pi * grid.centers / grid.R) for k in range(4))
    v = 1.0 + sum(b[k] * np.cos((k + 1) * math.pi * grid.centers / grid.R) for k in range(4))
    return RadialField(u, grid), RadialField(v, grid)


def entropy_sink():
    def sink(state, sample):
        res = probe_entropy_floor(state.report)
        ENTROPY_FLOOR_RESULTS.append(bool(res.hard_pass))

    return sink


@pytest.fixture(scope="module")
def family_2048():
    grid = make_grid(5, 1.0, 2048, h_min=FAMILY_H_MIN)
    solver = build_solver(grid)
    u0 = constant_field(grid, 1.0)
    v0 = constant_field(grid, 1.0)
    star = eta_star(1.0, 1.5, 5, grid.ball_volume)
    etas = [star / 4, star / 8, star / 16, star / 32]
    for eta in etas:  # raises ResolutionError unless the mesh resolves the bump
        build_family(
            FamilyParams(u0=u0, v0=v0, gamma=1.5, eta=eta), grid, strict_resolution=True
        )
    t0 = time.perf_counter()
    rows = family_energy_scan(u0, v0, 1.5, etas, grid, solver)
    elapsed = time.perf_counter() - t0
    for row in rows:
        res = probe_entropy_floor(row.report)
        ENTROPY_FLOOR_RESULTS.append(bool(res.hard_pass))
    return {
        "grid": grid, "solver": solver, "u0": u0, "v0": v0,
        "star": star, "etas": etas, "rows": rows, "seconds": elapsed,
    }


@pytest.fixture(scope="module")
def blowup_runs(family_2048):
    """The four family trajectories: two scales at two resolutions."""
    star = family_2048["star"]
    out = {}
    for N in (1024, 2048):
        grid = make_grid(5, 1.0, N, h_min=FAMILY_H_MIN)
        solver = build_solver(grid)
        u0b = constant_field(grid, 1.0)
        v0b = constant_field(grid, 1.0)
        v0_norm = w22_norm(v0b)
        pconf = ProbeConfig(n=5, rho=(0.5,))
        for eta in (star / 16, star / 32):
            u0, v0 = build_family(
                FamilyParams(u0=u0b, v0=v0b, gamma=1.5, eta=eta), grid, strict_resolution=True
            )
            pw, pv = [], []

            def sink(state, sample, solver=solver, pw=pw, pv=pv, v0_norm=v0_norm):
                ENTROPY_FLOOR_RESULTS.append(
                    bool(probe_entropy_floor(state.report).hard_pass)
                )
                w = solve(solver, state.u)
                pw.append((state.t, probe_pointwise_w(w, sample.mass).implied_c))
                pv.append(
                    (
                        state.t,
                        probe_pointwise_v(
                            state.v,
                            ProbeConfig(n=5, beta=4.5, kappa=4.5, rho=(0.5,)),
                            sample.mass,
                            v0_norm,
                        ).implied_c,
                    )
                )

            # sample every step: the collapse takes a few dozen steps and the
            # ODI tail fit of criterion 9 needs at least 8 samples
            cfg = default_stepper_config(grid, t_end=2.0, output_every=1)
            t0 = time.perf_counter()
            state, summary, samples = run(u0, v0, cfg, solver=solver, sink=sink,
                                          max_steps=100_000)
            out[(N, eta)] = {
                "state": state,
                "summary": summary,
                "samples": samples,
                "pconf": pconf,
                "pointwise_w": pw,
                "pointwise_v": pv,
                "seconds": time.perf_counter() - t0,
                "sup0": samples[0].sup_u,
            }
    return out


def test_criterion_01_helmholtz_manufactured():
    t0 = time.perf_counter()

    def err(N):
        g = make_grid(5, 1.0, N)
        s = build_solver(g)
        k = math.pi / g.R
        wstar = field_from_function(g, lambda r: math.cos(k * r))
        ustar = field_from_function(
            g,
            lambda r: k * k * math.cos(k * r)
            + (g.n - 1) / r * k * math.sin(k * r)
            + math.cos(k * r),
        )
        return float(np.max(np.abs(solve(s, ustar).values - wstar.values)))

    ratio = err(200) / err(400)
    elapsed = time.perf_counter() - t0
    ok = 3.5 <= ratio <= 4.5 and elapsed < 1.0
    report(1, ok, f"error ratio {ratio:.3f} in [3.5, 4.5]; {elapsed:.2f}s < 1s")
    assert 3.5 <= ratio <= 4.5
    assert elapsed < 1.0


def test_criterion_02_conservation():
    grid = make_grid(5, 1.0, 400)
    solver = build_solver(grid)
    u0, v0 = smooth_positive_pair(grid)
    cfg = default_stepper_config(grid, t_end=1e9, dt_max=2e-3, output_every=1)
    every_tenth = [0]

    def sink(state, sample):
        every_tenth[0] += 1
        if every_tenth[0] % 10 == 0:
            ENTROPY_FLOOR_RESULTS.append(
                bool(probe_entropy_floor(state.report).hard_pass)
            )

    _, _, samples = run(u0, v0, cfg, solver=solver, sink=sink, max_steps=10_000)
    m0 = samples[0].mass
    drift = max(abs(s.mass - m0) for s in samples) / m0
    w_gap = max(abs(s.int_w - s.mass) for s in samples) / m0
    ok = drift <= 1e-9 and w_gap <= 1e-12
    report(
        2, ok,
        f"mass drift {drift:.2e} <= 1e-9; per-step w-u gap {w_gap:.2e} <= 1e-12 "
        f"({len(samples) - 1} steps)",
    )
    assert drift <= 1e-9
    assert w_gap <= 1e-12


def test_criterion_03_equilibrium():
    grid = make_grid(5, 1.0, 256)
    solver = build_solver(grid)
    cfg = default_stepper_config(grid, t_end=0.25, dt_max=5e-3, dt_init=5e-3, output_every=1)
    u0 = constant_field(grid, 1.0)
    v0 = constant_field(grid, 1.0)
    prev = {"u": u0.values, "v": v0.values}
    worst = {"delta": 0.0, "D": 0.0}

    def sink(state, sample):
        worst["delta"] = max(
            worst["delta"],
            float(np.max(np.abs(state.u.values - prev["u"]))),
            float(np.max(np.abs(state.v.values - prev["v"]))),
        )
        worst["D"] = max(worst["D"], sample.D)
        prev["u"] = state.u.values
        prev["v"] = state.v.values
        ENTROPY_FLOOR_RESULTS.append(
            bool(probe_entropy_floor(state.report).hard_pass)
        )

    _, _, samples = run(u0, v0, cfg, solver=solver, sink=sink)
    f_err = abs(samples[-1].F + 0.5 * BALL_VOLUME)
    ok = worst["delta"] <= 1e-12 and worst["D"] <= 1e-12 and f_err <= 1e-9
    report(
        3, ok,
        f"per-step change {worst['delta']:.2e} <= 1e-12; D {worst['D']:.2e} <= 1e-12; "
        f"|F - (-|B|/2)| = {f_err:.2e} <= 1e-9",
    )
    assert worst["delta"] <= 1e-12
    assert worst["D"] <= 1e-12
    assert f_err <= 1e-9


def test_criterion_04_energy_identity_dt_refinement():
    t0 = time.perf_counter()
    grid = make_grid(5, 1.0, 400)
    solver = build_solver(grid)
    u0 = RadialField(1.0 + 0.5 * np.cos(math.pi * grid.centers), grid)
    v0 = solve(solver, solve(solver, u0))

    def max_residual(dt):
        cfg = default_stepper_config(
            grid, t_end=0.5, dt_max=dt, dt_init=dt, output_every=10
        )
        _, _, samples = run(u0, v0, cfg, solver=solver, sink=entropy_sink())
        # fixed-step study (the final step may absorb a round-off sliver)
        assert all(abs(s.dt - dt) <= 1e-9 * dt for s in samples[1:])
        return max(s.identity_residual for s in samples[1:])

    ratio = max_residual(4e-3) / max_residual(2e-3)
    elapsed = time.perf_counter() - t0
    ok = 1.6 <= ratio <= 2.4 and elapsed < 120.0
    report(4, ok, f"residual ratio {ratio:.3f} in [1.6, 2.4]; {elapsed:.1f}s < 120s")
    assert 1.6 <= ratio <= 2.4
    assert elapsed < 120.0


def test_criterion_06_family_diagnostics(family_2048):
    fam = family_2048
    rows, u0, v0 = fam["rows"], fam["u0"], fam["v0"]
    m0 = integrate(u0)
    mass_err = max(abs(r.mass - m0) for r in rows) / m0
    min_u = min(r.min_u for r in rows)
    F = [r.F for r in rows]
    f_decreasing = all(b < a for a, b in zip(F, F[1:]))
    f_gap = F[0] - F[-1]
    w22 = [w22_distance(r.v, v0) for r in rows]
    w22_decreasing = all(b < a for a, b in zip(w22, w22[1:]))
    l1 = [l1_distance(r.u, u0) for r in rows]
    l1_decreasing = all(b < a for a, b in zip(l1, l1[1:]))
    ok = (
        mass_err <= 1e-12
        and min_u > 0.0
        and f_decreasing
        and f_gap > 1.0
        and w22_decreasing
        and l1_decreasing
        and fam["seconds"] < 60.0
    )
    report(
        6, ok,
        f"mass err {mass_err:.1e} <= 1e-12; min u {min_u:.4f} > 0; "
        f"F decreasing={f_decreasing} gap={f_gap:.2f} > 1; "
        f"W22 {['%.1e' % x for x in w22]} strictly decreasing={w22_decreasing}; "
        f"L1 strictly decreasing={l1_decreasing}; {fam['seconds']:.1f}s < 60s",
    )
    assert mass_err <= 1e-12
    assert min_u > 0.0
    assert f_decreasing and f_gap > 1.0
    assert l1_decreasing
    assert fam["seconds"] < 60.0
    # an unresolved bump leaves the signal perturbation below float64
    # resolution (on a uniform N = 2048 mesh these distances are all zero)
    assert w22_decreasing, (
        f"W22 distances are {w22}: the admissible scales (eta < "
        f"{fam['star']:.2e}) are ~1e-5 of a uniform cell at N = 2048, where "
        "the v-bump cell average is ~1e-27 and is absorbed by v0 = 1"
    )


def test_criterion_07_blowup_reproduction(family_2048, blowup_runs):
    star = family_2048["star"]
    lines = []
    all_blown = True
    growth_ok = True
    for (N, eta), data in blowup_runs.items():
        summary = data["summary"]
        growth = summary.peak_sup / data["sup0"]
        blown = summary.status is SimStatus.BLOWN_UP
        all_blown &= blown
        growth_ok &= growth >= 1e6
        lines.append(
            f"N={N} eta={eta:.2e}: {summary.status.value}, growth {growth:.2f}x, "
            f"{data['seconds']:.1f}s"
        )
    runtime_ok = all(d["seconds"] < 600.0 for d in blowup_runs.values())
    ok = all_blown and growth_ok and runtime_ok
    report(7, ok, "; ".join(lines))
    assert runtime_ok
    # The discrete sup norm is bounded by mass/V_1: a 1e6x rise needs the
    # graded mesh (on a uniform one the cap is within ~40x of the spike and
    # the unresolved perturbation relaxes instead of collapsing).
    assert all_blown, "family runs relaxed to equilibrium instead of exiting blown_up"
    assert growth_ok
    t_b = {key: d["summary"].t_blowup for key, d in blowup_runs.items()}
    for N in (1024, 2048):
        assert t_b[(N, star / 32)] <= t_b[(N, star / 16)]
    for eta in (star / 16, star / 32):
        a, b = t_b[(1024, eta)], t_b[(2048, eta)]
        assert abs(a - b) / max(a, b) <= 0.20


def test_criterion_08_fd_ratio_bounded(blowup_runs):
    maxima = {}
    for (N, eta), data in blowup_runs.items():
        res = probe_fd_ratio(data["samples"], data["pconf"])
        assert math.isfinite(res.implied_c)
        maxima[(N, eta)] = res.implied_c
    variations = []
    for eta in {key[1] for key in maxima}:
        pair = [maxima[(1024, eta)], maxima[(2048, eta)]]
        variations.append(abs(pair[0] - pair[1]) / min(pair))
    worst = max(variations)
    ok = worst < 0.30
    report(
        8, ok,
        f"max (-F)+/(D^theta+1) finite at every run; cross-resolution variation "
        f"{worst:.2e} < 0.30",
    )
    assert ok


def test_criterion_09_odi_tail_slope(blowup_runs):
    slopes = {}
    for (N, eta), data in blowup_runs.items():
        fit = probe_odi(data["samples"], THETA)
        slopes[(N, eta)] = fit.tail_slope
    worst = min(slopes.values())
    ok = worst >= 1.0 / THETA - 0.2
    report(
        9, ok,
        f"log D vs log(-F) tail slopes {['%.2f' % s for s in slopes.values()]}; "
        f"need >= {1.0 / THETA - 0.2:.2f}",
    )
    # relaxing trajectories have collapsing D at nearly constant -F, so the
    # fitted slope is strongly negative; superlinear growth needs a genuine
    # collapse, which the resolved family shows on the graded mesh
    assert ok, f"tail slopes {slopes} below {1.0 / THETA - 0.2}"


def test_criterion_10_pointwise_uniformity(blowup_runs):
    ok = True
    details = []
    for (N, eta), data in blowup_runs.items():
        t_final = data["state"].t
        for label in ("pointwise_w", "pointwise_v"):
            series = data[label]
            first_half = max(c for t, c in series if t <= 0.5 * t_final)
            overall = max(c for _, c in series)
            ratio = overall / first_half
            ok &= ratio <= 1.1
            details.append(f"{label}@N={N},eta={eta:.1e}: {ratio:.4f}")
    report(10, ok, "final/first-half running-max ratios: " + "; ".join(details))
    assert ok


def test_criterion_05_entropy_floor_zero_violations(family_2048, blowup_runs):
    # Building the module fixtures records their samples, so the count
    # never depends on which other tests ran; criteria 02-04 add theirs
    # when they ran first (file order is test order).
    count = len(ENTROPY_FLOOR_RESULTS)
    violations = count - sum(ENTROPY_FLOOR_RESULTS)
    ok = count > 100 and violations == 0
    report(5, ok, f"{violations} violations across {count} diagnostic samples")
    assert count > 100
    assert violations == 0
