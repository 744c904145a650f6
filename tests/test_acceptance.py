"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 6-10 study the concentrated low-energy family.  Every
admissible scale lies below eta_star ~ 5.19e-9, about 1e-5 of a cell of
a uniform mesh with N = 2048, where the signal bump rounds away and the
sup norm is capped at mass/V_1.  The family therefore lives on
geometrically graded meshes with the same cell counts whose smallest
cell is verify.FAMILY_H_MIN = 1e-12, so each bump covers 92-244 cells.
Measured there: W^{2,2} distances 0.320 -> 0.275, F from -22.4 down to -45.1; all
four trajectories exit blown_up after 35-66 steps with 1.1e6-2.5e6x sup
growth at t_b ~ 8.2e-24 (eta_star/16) and ~1.66e-24 (eta_star/32),
within 1.4% across N = 1024 and 2048; ODI tail slopes 1.63-1.78.
"""

import math
import time

import numpy as np
import pytest

from radks.dynamics import SimStatus, default_stepper_config, run
from radks.grid import constant_field, make_grid
from radks.helmholtz import build_solver
from radks.initial_data import build_family, eta_star, family_energy_scan, w22_norm
from radks.probes import (
    ProbeConfig,
    probe_entropy_floor,
    probe_fd_ratio,
    probe_odi,
    probe_pointwise_v,
    probe_pointwise_w,
)
from radks.verify import (
    FAMILY_H_MIN,
    _PLAN,
    _smooth_pair,
    check_energy_identity,
    check_equilibrium,
    check_family,
    check_manufactured,
)

THETA = 5.0 / 7.0

# the full-level arguments of each verify row, which criteria 1, 3, 4 and 6 run
FULL_ARGS = {name: full for name, _, full, _ in _PLAN}

# entropy-floor outcomes collected from every trajectory this module runs
ENTROPY_FLOOR_RESULTS: list[bool] = []


def report(num: int, passed: bool, detail: str) -> None:
    mark = "PASS" if passed else "FAIL"
    print(f"[criterion {num:02d}] {mark}  {detail}")


def entropy_sink(state, sample, rep):
    ENTROPY_FLOOR_RESULTS.append(bool(probe_entropy_floor(rep).hard_pass))


@pytest.fixture(scope="module")
def family_2048():
    """eta_star of the family on the graded N = 2048 mesh, once every scale
    of the scan covers at least 8 cell centers and has recorded its
    entropy floor."""
    grid = make_grid(5, 1.0, 2048, h_min=FAMILY_H_MIN)
    solver = build_solver(grid)
    u0 = constant_field(grid, 1.0)
    v0 = constant_field(grid, 1.0)
    star = eta_star(1.0, 1.5, 5, grid.ball_volume)
    etas = [star / 4, star / 8, star / 16, star / 32]
    for row in family_energy_scan(u0, v0, 1.5, etas, solver):
        assert (grid.centers < row.eta).sum() >= 8  # the mesh resolves the bump
        ENTROPY_FLOOR_RESULTS.append(bool(probe_entropy_floor(row.report).hard_pass))
    return star


@pytest.fixture(scope="module")
def blowup_runs(family_2048):
    """The four family trajectories: two scales at two resolutions."""
    star = family_2048
    out = {}
    for N in (1024, 2048):
        grid = make_grid(5, 1.0, N, h_min=FAMILY_H_MIN)
        solver = build_solver(grid)
        u0b = constant_field(grid, 1.0)
        v0b = constant_field(grid, 1.0)
        v0_norm = w22_norm(v0b)
        pconf = ProbeConfig(n=5, R=1.0, rho=(0.5,))
        for eta in (star / 16, star / 32):
            assert (grid.centers < eta).sum() >= 8  # the mesh resolves the bump
            u0, v0 = build_family(u0b, v0b, 1.5, eta)
            pw, pv = [], []

            def sink(state, sample, rep, pw=pw, pv=pv, v0_norm=v0_norm):
                entropy_sink(state, sample, rep)
                pw.append((state.t, probe_pointwise_w(rep.w, sample.mass).implied_c))
                pv.append(
                    (
                        state.t,
                        probe_pointwise_v(
                            state.v,
                            ProbeConfig(n=5, R=1.0, beta=4.5, kappa=4.5, rho=(0.5,)),
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
                "sup0": samples["sup_u"][0],
            }
    return out


def test_criterion_01_helmholtz_manufactured():
    t0 = time.perf_counter()
    in_bounds, detail = check_manufactured(*FULL_ARGS["helmholtz_manufactured"])
    elapsed = time.perf_counter() - t0
    report(1, in_bounds and elapsed < 1.0, f"{detail}; {elapsed:.2f}s < 1s")
    assert in_bounds, detail
    assert elapsed < 1.0


def test_criterion_02_conservation():
    grid = make_grid(5, 1.0, 400)
    solver = build_solver(grid)
    u0, v0 = _smooth_pair(grid, seed=2024, amp=0.25)
    cfg = default_stepper_config(grid, t_end=1e9, dt_max=2e-3, output_every=1)
    every_tenth = [0]

    def sink(state, sample, rep):
        every_tenth[0] += 1
        if every_tenth[0] % 10 == 0:
            entropy_sink(state, sample, rep)

    _, _, samples = run(u0, v0, cfg, solver=solver, sink=sink, max_steps=10_000)
    mass = samples["mass"]
    m0 = mass[0]
    drift = np.max(np.abs(mass - m0)) / m0
    w_gap = np.max(np.abs(samples["int_w"] - mass)) / m0
    ok = drift <= 1e-9 and w_gap <= 1e-12
    report(
        2, ok,
        f"mass drift {drift:.2e} <= 1e-9; per-step w-u gap {w_gap:.2e} <= 1e-12 "
        f"({len(samples) - 1} steps)",
    )
    assert drift <= 1e-9
    assert w_gap <= 1e-12


def test_criterion_03_equilibrium():
    ok, detail = check_equilibrium(*FULL_ARGS["equilibrium"], sink=entropy_sink)
    report(3, ok, detail)
    assert ok, detail


def test_criterion_04_energy_identity_dt_refinement():
    run_dts = []  # the step sizes of each of the two runs

    def sink(state, sample, rep):
        entropy_sink(state, sample, rep)
        if sample.t == 0.0:  # a run starts
            run_dts.append([])
        else:
            run_dts[-1].append(sample.dt)

    t0 = time.perf_counter()
    in_bounds, detail = check_energy_identity(*FULL_ARGS["energy_identity"], sink=sink)
    elapsed = time.perf_counter() - t0
    report(4, in_bounds and elapsed < 120.0, f"{detail}; {elapsed:.1f}s < 120s")
    # fixed-step study: every step is dt_max, the last one capped at the
    # remaining horizon, which differs from it by round-off only
    full_dt = FULL_ARGS["energy_identity"][1]
    assert len(run_dts) == 2
    for dt, dts in zip((full_dt, full_dt / 2), run_dts):
        assert all(abs(x - dt) <= 1e-9 * dt for x in dts)
    assert in_bounds, detail
    assert elapsed < 120.0


def test_criterion_06_family_diagnostics():
    t0 = time.perf_counter()
    ok, detail = check_family(*FULL_ARGS["family"])
    elapsed = time.perf_counter() - t0
    report(6, ok and elapsed < 60.0, f"{detail}; {elapsed:.1f}s < 60s")
    # on a uniform N = 2048 mesh the admissible scales are ~1e-5 of a cell:
    # the v-bump cell average is ~1e-27, v0 = 1 absorbs it and every W22
    # distance is zero, so the distances cannot decrease
    assert ok, detail
    assert elapsed < 60.0


def test_criterion_07_blowup_reproduction(family_2048, blowup_runs):
    star = family_2048
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
        row, _ = probe_odi(data["samples"], THETA)
        slopes[(N, eta)] = row.implied_c
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
