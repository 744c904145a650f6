"""Built-in verification scorecard (the `verify` CLI verb).

Runs the grid-volume, manufactured-solution, conservation, equilibrium,
energy-identity, entropy-floor and family checks at one of two levels:
fast (coarse grids, under a second) or full (the acceptance-scale
parameters).  Each check reports pass/fail plus a one-line measurement.

These functions are the one implementation of acceptance criteria 1, 3,
4 and 6, which call them with the full-level arguments;
check_equilibrium and check_energy_identity hand each sample to an
optional sink.  The family lives on a graded mesh whose smallest cell is
FAMILY_H_MIN: every admissible scale is far below a uniform cell, where
the signal bump rounds away and the W^{2,2} distances read zero.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

import numpy as np

from .grid import make_grid, constant_field, integrate, RadialField, field_from_function
from .helmholtz import build_solver, solve
from .dynamics import SimStatus, Sink, default_stepper_config, run
from .initial_data import family_energy_scan, family_scales, w22_distance, l1_distance
from .probes import probe_entropy_floor

__all__ = ["CheckResult", "FAMILY_H_MIN", "run_checks", "scorecard"]

# smallest cell width of the graded meshes that carry the admissible family
FAMILY_H_MIN = 1e-12


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _smooth_pair(grid, seed=42, amp=0.2):
    """u, v = 1 + sum_{k=1..4} a_k cos(k pi r / R), a_k uniform in [-amp, amp).

    The eight coefficients, u's four then v's, come from the standard
    library's random.Random(seed), whose random() sequence is the same for
    an int seed on every supported Python.  It is not numpy.random, which
    no radks path imports: loading it would add ~6 MB to the process.
    """
    rng = random.Random(seed)
    a, b = np.split(amp * (2 * np.array([rng.random() for _ in range(8)]) - 1), 2)
    k = np.arange(1, 5)[:, None] * math.pi / grid.R
    u = 1.0 + np.sum(a[:, None] * np.cos(k * grid.centers[None, :]), axis=0)
    v = 1.0 + np.sum(b[:, None] * np.cos(k * grid.centers[None, :]), axis=0)
    return RadialField(u, grid), RadialField(v, grid)


def check_grid_volume() -> tuple[bool, str]:
    worst = 0.0
    for n, R, N in ((5, 1.0, 100), (5, 2.0, 1024), (7, 0.5, 333), (2, 3.0, 50)):
        g = make_grid(n, R, N)
        err = abs(math.fsum(g.volumes) - g.ball_volume) / np.spacing(g.ball_volume)
        worst = max(worst, err)
    return worst <= 4.0, f"max volume-identity error {worst:.2f} ulps (limit 4)"


def check_manufactured(n_coarse: int, n_fine: int, lo: float, hi: float) -> tuple[bool, str]:
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
        wh = solve(s, ustar)
        return float(np.max(np.abs(wh.values - wstar.values)))

    ratio = err(n_coarse) / err(n_fine)
    return lo <= ratio <= hi, (
        f"manufactured-solution error ratio N={n_coarse}->{n_fine}: "
        f"{ratio:.3f} (want [{lo}, {hi}])"
    )


def check_conservation(N: int, steps: int) -> tuple[bool, str]:
    g = make_grid(5, 1.0, N)
    s = build_solver(g)
    u0, v0 = _smooth_pair(g)
    cfg = default_stepper_config(g, t_end=1e9, dt_max=2e-3, output_every=max(1, steps // 100))
    _, _, trajectory = run(u0, v0, cfg, solver=s, max_steps=steps)
    mass = trajectory["mass"]
    m0 = float(mass[0])
    # np.max is NaN when any sample's is, so a NaN mass fails the row
    drift = float(np.max(np.abs(mass - m0))) / m0
    wgap = float(np.max(np.abs(trajectory["int_w"] - mass))) / m0
    ok = drift <= 1e-9 and wgap <= 1e-12
    return ok, f"mass drift {drift:.2e} (<=1e-9), w-u gap {wgap:.2e} (<=1e-12) over {steps} steps"


def check_equilibrium(N: int = 256, sink: Sink | None = None) -> tuple[bool, str]:
    """The homogeneous pair u = v = 1 run to t = 0.25 at dt = 5e-3 (50
    steps, every one sampled) stays put: the run completes within those
    50 steps, and per-sample change, D and |F + |B|/2| stay at round-off."""
    g = make_grid(5, 1.0, N)
    cfg = default_stepper_config(g, t_end=0.25, dt_max=5e-3, output_every=1)
    u0, v0 = constant_field(g, 1.0), constant_field(g, 1.0)
    prev = (u0.values, v0.values)
    worst = 0.0

    def track(st, smp, rep):
        nonlocal prev, worst
        for new, old in zip((st.u.values, st.v.values), prev):
            worst = max(worst, float(np.max(np.abs(new - old))))
        prev = (st.u.values, st.v.values)
        if sink is not None:
            sink(st, smp, rep)

    _, summary, trajectory = run(u0, v0, cfg, sink=track, max_steps=50)
    D = float(np.max(trajectory["D"]))
    f_err = abs(float(trajectory["F"][-1]) + 0.5 * g.ball_volume)
    done = summary.status is SimStatus.COMPLETED
    ok = done and worst <= 1e-12 and D <= 1e-12 and f_err <= 1e-9
    return ok, (
        f"per-step change {worst:.2e} (<=1e-12), D={D:.2e} (<=1e-12), "
        f"|F + |Omega|/2| = {f_err:.2e} (<=1e-9) over {len(trajectory) - 1} steps"
        + ("" if done else f", {summary.status.value} at t={summary.t_final:.6g}")
    )


def check_energy_identity(
    N: int, dt: float, t_end: float, sink: Sink | None = None
) -> tuple[bool, str]:
    """The largest energy-identity residual halves with dt: two fixed-step
    runs to t_end, at dt and dt/2, both reporting to sink."""
    g = make_grid(5, 1.0, N)
    s = build_solver(g)
    u0 = RadialField(1.0 + 0.5 * np.cos(math.pi * g.centers / g.R), g)
    v0 = solve(s, solve(s, u0))

    def max_res(dtv):
        cfg = default_stepper_config(g, t_end=t_end, dt_max=dtv, output_every=10)
        _, _, trajectory = run(u0, v0, cfg, solver=s, sink=sink)
        return float(np.max(trajectory["identity_residual"][1:]))

    ratio = max_res(dt) / max_res(dt / 2)
    return 1.6 <= ratio <= 2.4, (
        f"identity-residual ratio dt={dt:g} vs {dt/2:g}: {ratio:.3f} (want [1.6, 2.4])"
    )


def check_entropy_floor(N: int = 256, steps: int = 400) -> tuple[bool, str]:
    g = make_grid(5, 1.0, N)
    s = build_solver(g)
    violations = 0
    worst_margin = math.inf
    for seed in (1, 2):
        u0, v0 = _smooth_pair(g, seed=seed, amp=0.3)
        cfg = default_stepper_config(g, t_end=1e9, dt_max=2e-3, output_every=20)

        def sink(st, smp, rep):
            nonlocal violations, worst_margin
            probe = probe_entropy_floor(rep)
            if not probe.hard_pass:
                violations += 1
            worst_margin = min(worst_margin, probe.rhs_free - probe.lhs)

        run(u0, v0, cfg, solver=s, sink=sink, max_steps=steps)
    return violations == 0, (
        f"{violations} violations; smallest margin {worst_margin:.4f}"
    )


def check_family(N: int) -> tuple[bool, str]:
    """The family over u = v = 1 at eta_star/4 ... eta_star/32, on a graded
    mesh of N cells whose smallest is FAMILY_H_MIN, approaches the base
    pair in L1 and W^{2,2} while F falls by more than 1, with mass exact
    and u positive."""
    g = make_grid(5, 1.0, N, h_min=FAMILY_H_MIN)
    u0 = constant_field(g, 1.0)
    v0 = constant_field(g, 1.0)
    rows = family_energy_scan(u0, v0, 1.5, family_scales(u0, 1.5, 4), build_solver(g))
    m0 = integrate(u0)
    mass_err = max(abs(r.mass - m0) for r in rows) / m0
    min_u = min(r.min_u for r in rows)
    F = [r.F for r in rows]
    l1 = [l1_distance(r.u, u0) for r in rows]
    w22 = [w22_distance(r.v, v0) for r in rows]
    dec_F, dec_l1, dec_w22 = (all(b < a for a, b in zip(x, x[1:])) for x in (F, l1, w22))
    gap = F[0] - F[-1]
    ok = mass_err <= 1e-12 and min_u > 0.0 and dec_F and gap > 1.0 and dec_l1 and dec_w22
    return ok, (
        f"mass err {mass_err:.2e} (<=1e-12), min u {min_u:.4f} (>0), "
        f"F {['%.3f' % x for x in F]} decreasing={dec_F} gap={gap:.2f} (>1), "
        f"L1 decreasing={dec_l1}, W22 distances {['%.2e' % x for x in w22]} "
        f"decreasing={dec_w22}"
    )


# row name, check, its arguments at level full, at level fast
_PLAN = (
    ("grid_volume_identity", check_grid_volume, (), ()),
    ("helmholtz_manufactured", check_manufactured, (200, 400, 3.5, 4.5), (100, 200, 3.3, 4.7)),
    ("conservation", check_conservation, (400, 10000), (200, 1500)),
    ("equilibrium", check_equilibrium, (), ()),
    ("energy_identity", check_energy_identity, (400, 4e-3, 0.5), (128, 8e-3, 0.25)),
    ("entropy_floor", check_entropy_floor, (), ()),
    ("family", check_family, (2048,), (512,)),
)


def run_checks(level: str = "fast") -> list[CheckResult]:
    if level not in ("fast", "full"):
        raise ValueError(f"level must be fast or full, got {level!r}")
    results = []
    for name, check, full_args, fast_args in _PLAN:
        t0 = time.perf_counter()
        passed, detail = check(*(full_args if level == "full" else fast_args))
        results.append(CheckResult(name, passed, detail, time.perf_counter() - t0))
    return results


def scorecard(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"[{mark}] {r.name:<24s} ({r.seconds:6.2f}s)  {r.detail}")
    total = sum(r.seconds for r in results)
    good = sum(r.passed for r in results)
    lines.append(f"{good}/{len(results)} checks passed in {total:.1f}s")
    return "\n".join(lines)
