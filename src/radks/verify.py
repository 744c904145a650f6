"""Built-in verification scorecard (the `verify` CLI verb).

Runs the conservation, equilibrium, manufactured-solution, energy
identity, entropy-floor, and family check groups at one of two levels:
fast (coarse grids, seconds) or full (the acceptance-scale parameters).
Each check reports pass/fail plus a one-line measurement.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .grid import make_grid, constant_field, integrate, RadialField, field_from_function
from .helmholtz import build_solver, solve
from .energy import compute_energy
from .dynamics import default_stepper_config, run, State, step
from .initial_data import eta_star, family_energy_scan, w22_distance, l1_distance
from .probes import probe_entropy_floor

__all__ = ["CheckResult", "run_checks", "scorecard"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _timed(fn):
    t0 = time.perf_counter()
    passed, detail = fn()
    return passed, detail, time.perf_counter() - t0


def _smooth_pair(grid, seed=42, amp=0.2):
    rng = np.random.default_rng(seed)
    a = amp * (2 * rng.random(4) - 1)
    b = amp * (2 * rng.random(4) - 1)
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
    _, _, samples = run(u0, v0, cfg, solver=s, max_steps=steps)
    m0 = samples[0].mass
    drift = max(abs(x.mass - m0) for x in samples) / m0
    wgap = max(abs(x.int_w - x.mass) for x in samples) / m0
    ok = drift <= 1e-9 and wgap <= 1e-12
    return ok, f"mass drift {drift:.2e} (<=1e-9), w-u gap {wgap:.2e} (<=1e-12) over {steps} steps"


def check_equilibrium(N: int = 256) -> tuple[bool, str]:
    g = make_grid(5, 1.0, N)
    s = build_solver(g)
    cfg = default_stepper_config(g, t_end=1.0, dt_max=5e-3, dt_init=5e-3)
    st = State(0.0, 0, constant_field(g, 1.0), constant_field(g, 1.0), 5e-3)
    worst = 0.0
    for _ in range(20):
        new = step(st, cfg, s)
        worst = max(
            worst,
            float(np.max(np.abs(new.u.values - st.u.values))),
            float(np.max(np.abs(new.v.values - st.v.values))),
        )
        st = new
    rep = compute_energy(st.u, st.v, s)
    f_err = abs(rep.F + 0.5 * g.ball_volume)
    ok = worst <= 1e-12 and rep.D <= 1e-12 and f_err <= 1e-9
    return ok, (
        f"per-step change {worst:.2e} (<=1e-12), D={rep.D:.2e} (<=1e-12), "
        f"|F + |Omega|/2| = {f_err:.2e} (<=1e-9)"
    )


def check_energy_identity(N: int, dt: float, t_end: float) -> tuple[bool, str]:
    g = make_grid(5, 1.0, N)
    s = build_solver(g)
    u0 = RadialField(1.0 + 0.5 * np.cos(math.pi * g.centers / g.R), g)
    v0 = solve(s, solve(s, u0))

    def max_res(dtv):
        cfg = default_stepper_config(g, t_end=t_end, dt_max=dtv, dt_init=dtv, output_every=10)
        _, _, smp = run(u0, v0, cfg, solver=s)
        return max(x.identity_residual for x in smp[1:])

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

        def sink(st, smp):
            nonlocal violations, worst_margin
            probe = probe_entropy_floor(st.u, st.v, s, report=smp.report)
            if not probe.hard_pass:
                violations += 1
            worst_margin = min(worst_margin, probe.rhs_free - probe.lhs)

        run(u0, v0, cfg, solver=s, sink=sink, max_steps=steps)
    return violations == 0, (
        f"{violations} violations; smallest margin {worst_margin:.4f}"
    )


def check_family(N: int, need_gap: bool) -> tuple[bool, str]:
    g = make_grid(5, 1.0, N)
    s = build_solver(g)
    u0 = constant_field(g, 1.0)
    v0 = constant_field(g, 1.0)
    star = eta_star(1.0, 1.5, 5, g.ball_volume)
    etas = [star / 4, star / 8, star / 16, star / 32]
    rows = family_energy_scan(u0, v0, 1.5, etas, g, s)
    m0 = integrate(u0)
    mass_err = max(abs(r.mass - m0) for r in rows) / m0
    min_u = min(r.min_u for r in rows)
    F = [r.F for r in rows]
    l1 = [l1_distance(r.u, u0) for r in rows]
    dec_F = all(b < a for a, b in zip(F, F[1:]))
    dec_l1 = all(b < a for a, b in zip(l1, l1[1:]))
    gap_ok = (F[0] - F[-1] > 1.0) if need_gap else True
    ok = mass_err <= 1e-12 and min_u > 0.0 and dec_F and dec_l1 and gap_ok
    w22 = [w22_distance(r.v, v0) for r in rows]
    return ok, (
        f"mass err {mass_err:.2e} (<=1e-12), min u {min_u:.4f} (>0), "
        f"F {['%.3f' % x for x in F]} decreasing={dec_F}, "
        f"L1 decreasing={dec_l1}, W22 distances {['%.2e' % x for x in w22]}"
    )


def run_checks(level: str = "fast") -> list[CheckResult]:
    if level not in ("fast", "full"):
        raise ValueError(f"level must be fast or full, got {level!r}")
    full = level == "full"
    plan = [
        ("grid_volume_identity", lambda: check_grid_volume()),
        (
            "helmholtz_manufactured",
            (lambda: check_manufactured(200, 400, 3.5, 4.5))
            if full
            else (lambda: check_manufactured(100, 200, 3.3, 4.7)),
        ),
        (
            "conservation",
            (lambda: check_conservation(400, 10000))
            if full
            else (lambda: check_conservation(200, 1500)),
        ),
        ("equilibrium", lambda: check_equilibrium()),
        (
            "energy_identity",
            (lambda: check_energy_identity(400, 4e-3, 0.5))
            if full
            else (lambda: check_energy_identity(128, 8e-3, 0.25)),
        ),
        ("entropy_floor", lambda: check_entropy_floor()),
        (
            "family",
            (lambda: check_family(2048, True)) if full else (lambda: check_family(512, False)),
        ),
    ]
    results = []
    for name, fn in plan:
        passed, detail, secs = _timed(fn)
        results.append(CheckResult(name, passed, detail, secs))
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
