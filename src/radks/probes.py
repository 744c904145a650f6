"""Empirical probes of the estimate chain behind the blowup argument.

Each probe evaluates one inequality on a state or a trajectory and
reports the left side, the explicitly weighted part of the right side,
and the constant the inequality would need to hold.  Hard pass/fail is
only defined for the inequalities whose constants are fully explicit
(the entropy floor and the mass identities); all other constants are
non-constructive and are surfaced purely as measured values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, GridMismatchError, InsufficientDataError
from .grid import RadialField, gradient_faces, integrate, laplacian
from .energy import EnergyReport

__all__ = [
    "ProbeConfig",
    "ProbeResult",
    "OdiFit",
    "theta_exponent",
    "probe_entropy_floor",
    "probe_pointwise_w",
    "probe_pointwise_v",
    "probe_fd_ratio",
    "probe_odi",
    "probe_mass_identities",
    "probe_local_inequalities",
]

HARD_TOL = 1e-9  # absolute tolerance for identity-type hard checks


def theta_exponent(kappa: float, n: int) -> float:
    """Sublinearity exponent matching the weight kappa.

    n/(n+2) on the low-weight branch kappa in (n-2, n); otherwise
    1 - 2n/((n+2)(2 kappa - n)).
    """
    if kappa <= n - 2:
        raise ConfigurationError(f"kappa must exceed n-2={n - 2}, got {kappa}")
    if kappa < n:
        return n / (n + 2)
    return 1.0 - 2.0 * n / ((n + 2) * (2.0 * kappa - n))


@dataclass(frozen=True)
class ProbeConfig:
    """Exponents and radii shared by the probes."""

    n: int
    kappa: float = None  # type: ignore[assignment]
    beta: float = None   # type: ignore[assignment]
    theta: float = None  # type: ignore[assignment]
    rho: tuple = ()

    def __post_init__(self):
        if self.kappa is None:
            object.__setattr__(self, "kappa", self.n - 0.5)
        problems = {}
        if not self.kappa > self.n - 2:
            problems["kappa"] = f"kappa must exceed n-2={self.n - 2}, got {self.kappa}"
        # the defaults follow kappa, so only explicit beta and theta can add problems
        if self.beta is None:
            object.__setattr__(self, "beta", self.kappa)
        elif not self.beta > self.n - 2:
            problems["beta"] = f"beta must exceed n-2={self.n - 2}, got {self.beta}"
        if self.theta is None:
            if "kappa" not in problems:
                object.__setattr__(self, "theta", theta_exponent(self.kappa, self.n))
        elif not 0.0 < self.theta < 1.0:
            problems["theta"] = f"theta must lie in (0, 1), got {self.theta}"
        elif "kappa" not in problems:
            expected = theta_exponent(self.kappa, self.n)
            if abs(self.theta - expected) > 1e-12:
                problems["theta"] = (
                    f"theta={self.theta} is inconsistent with kappa={self.kappa} "
                    f"(branch value {expected})"
                )
        if problems:
            raise ConfigurationError(problems=problems)


@dataclass(frozen=True)
class ProbeResult:
    """One evaluated inequality instance."""

    name: str
    lhs: float
    rhs_free: float
    implied_c: float
    hard_pass: Optional[bool] = None
    param: Optional[float] = None
    sample: Optional[float] = None


def probe_entropy_floor(report: EnergyReport) -> ProbeResult:
    """Hard check -F - int uv <= omega_n R^n / e, from s ln s >= -1/e."""
    grid = report.w.grid
    lhs = -report.F - report.mixed_term
    rhs = grid.omega_n * grid.R**grid.n / math.e
    slack = 1e-6 * (1.0 + abs(report.F))
    return ProbeResult(
        name="entropy_floor",
        lhs=lhs,
        rhs_free=rhs,
        implied_c=max(lhs, 0.0) / rhs,
        hard_pass=lhs <= rhs + slack,
    )


def _face_average(values: np.ndarray) -> np.ndarray:
    return 0.5 * (values[:-1] + values[1:])


def probe_pointwise_w(w: RadialField, m: float) -> ProbeResult:
    """Implied constant of the weighted bound r^{n-2} (w + r |w_r|) <= C m."""
    if not m > 0.0:
        raise ConfigurationError(f"mass must be positive, got {m}")
    grid = w.grid
    r = grid.faces[1:-1]
    wbar = _face_average(w.values)
    wr = gradient_faces(w)[1:-1]
    implied = float(np.max(r ** (grid.n - 2) * (wbar + r * np.abs(wr)))) / m
    return ProbeResult(
        name="pointwise_w",
        lhs=implied * m,
        rhs_free=m,
        implied_c=implied,
    )


def probe_pointwise_v(
    v: RadialField, config: ProbeConfig, m: float, v0_norm: float
) -> ProbeResult:
    """Implied constant of r^beta (v/r^2 + |v_r|/r) <= C (m + |v0|_{W^{2,2}})."""
    grid = v.grid
    r = grid.faces[1:-1]
    vbar = _face_average(v.values)
    vr = gradient_faces(v)[1:-1]
    scale = m + v0_norm
    implied = float(np.max(r**config.beta * (vbar / r**2 + np.abs(vr) / r))) / scale
    return ProbeResult(
        name="pointwise_v",
        lhs=implied * scale,
        rhs_free=scale,
        implied_c=implied,
        param=config.beta,
    )


def probe_fd_ratio(samples: Sequence, config: ProbeConfig) -> ProbeResult:
    """Max over samples of (-F)_+ / (D^theta + 1)."""
    theta = config.theta
    best, best_t = 0.0, None
    for s in samples:
        ratio = max(-s.F, 0.0) / (max(s.D, 0.0) ** theta + 1.0)
        if ratio >= best:
            best, best_t = ratio, s.t
    return ProbeResult(
        name="fd_ratio",
        lhs=best,
        rhs_free=1.0,
        implied_c=best,
        param=theta,
        sample=best_t,
    )


@dataclass(frozen=True)
class OdiFit:
    """Fitted superlinear-inequality parameters along one trajectory."""

    c5: float
    tail_slope: float
    tail_size: int


def _fit_slope(x: np.ndarray, y: np.ndarray) -> float:
    x = x - np.mean(x)
    denom = float(np.dot(x, x))
    if denom == 0.0:
        return math.inf
    return float(np.dot(x, y - np.mean(y)) / denom)


def probe_odi(samples: Sequence, theta: float, fit_tail: bool = True) -> OdiFit:
    """Smallest c5 with D >= ((-F - c5)/c5)^{1/theta} at every sample,
    plus the log-log slope of D against -F over the final decade of -F.

    The slope fit needs at least 8 tail samples with positive -F and D;
    pass fit_tail=False to get only c5 (for trajectories with no growth).
    """
    negF = np.array([-s.F for s in samples])
    D = np.array([max(s.D, 0.0) for s in samples])
    peak = float(np.max(negF)) if len(negF) else 0.0
    if peak <= 0.0:
        # Energy never went negative; any c5 >= sup(-F)_+ = 0 works.
        return OdiFit(c5=0.0, tail_slope=math.nan, tail_size=0)

    def feasible(c5: float) -> bool:
        active = negF > c5
        if not np.any(active):
            return True
        with np.errstate(over="ignore"):
            rhs = ((negF[active] - c5) / c5) ** (1.0 / theta)
        return bool(np.all(D[active] >= rhs))

    lo, hi = 0.0, peak * (1.0 + 1e-12)
    if feasible(1e-300):
        hi = 1e-300
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    c5 = hi

    if not fit_tail:
        return OdiFit(c5=c5, tail_slope=math.nan, tail_size=0)
    tail = (negF >= 0.1 * peak) & (negF > 0.0) & (D > 0.0)
    n_tail = int(np.count_nonzero(tail))
    if n_tail < 8:
        raise InsufficientDataError(
            f"only {n_tail} usable tail samples; need at least 8"
        )
    slope = _fit_slope(np.log(negF[tail]), np.log(D[tail]))
    return OdiFit(c5=c5, tail_slope=slope, tail_size=n_tail)


def probe_mass_identities(samples: Sequence) -> list[ProbeResult]:
    """Hard identity checks along a trajectory.

    Relative drift of int u, the per-sample gap int w - int u, the bound
    int v <= max(int v0, int u0), and (reported, no hard flag) the gap to
    the exact homogeneous-relaxation value of int v.
    """
    if not samples:
        raise InsufficientDataError("no samples given")
    m0 = samples[0].mass
    v0 = samples[0].int_v
    drift = max(abs(s.mass - m0) for s in samples) / max(abs(m0), 1e-300)
    w_gap = max(abs(s.int_w - s.mass) for s in samples) / max(abs(m0), 1e-300)
    v_bound = max(v0, m0)
    v_violation = max(max(s.int_v - v_bound for s in samples), 0.0) / max(v_bound, 1e-300)
    relax_gap = max(
        abs(s.int_v - (v0 * math.exp(-s.t) + m0 * (1.0 - math.exp(-s.t))))
        for s in samples
    )
    return [
        ProbeResult(
            name="mass_u_drift",
            lhs=drift,
            rhs_free=HARD_TOL,
            implied_c=drift,
            hard_pass=drift <= HARD_TOL,
        ),
        ProbeResult(
            name="mass_w_equals_u",
            lhs=w_gap,
            rhs_free=HARD_TOL,
            implied_c=w_gap,
            hard_pass=w_gap <= HARD_TOL,
        ),
        ProbeResult(
            name="v_mass_bound",
            lhs=v_violation,
            rhs_free=HARD_TOL,
            implied_c=v_violation,
            hard_pass=v_violation <= HARD_TOL,
        ),
        ProbeResult(
            name="v_mass_relaxation_gap",
            lhs=relax_gap,
            rhs_free=1.0,
            implied_c=relax_gap,
        ),
    ]


def _restrict(grid, rho: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Inner-cell masks for the ball of radius rho, snapped to the nearest face."""
    k = int(np.argmin(np.abs(grid.faces - rho)))
    k = max(1, min(k, grid.N))
    cells = np.zeros(grid.N, dtype=bool)
    cells[:k] = True
    faces = np.zeros(grid.N + 1, dtype=bool)
    faces[1:k] = True  # interior faces strictly inside the snapped ball
    return cells, faces, float(grid.faces[k])


def _cell_l2sq(field_values, grid, cells) -> float:
    return float(np.sum(field_values[cells] ** 2 * grid.volumes[cells]))


def _face_l2sq(face_values, grid, faces) -> float:
    w = grid.face_areas * grid.spacing
    return float(np.sum(face_values[faces] ** 2 * w[faces]))


def probe_local_inequalities(
    u: RadialField, v: RadialField, report: EnergyReport, config: ProbeConfig
) -> list[ProbeResult]:
    """Ball-localized second-order estimates with their implied constants.

    For each rho: the mixed-term bound (explicit weights 3, 3, 1), the
    local second-order bound (explicit 1/8, 3/4, 12, sqrt(m) rho, 2m),
    and the energy split (explicit 1/24, 12, sqrt(m) rho).  Terms whose
    weights the analysis leaves non-constructive are aggregated into one
    basis and reported through the implied constant.  report is
    compute_energy(u, v, solver); its w, f and g are read, not recomputed.
    """
    grid = u.grid
    if not (grid.same_as(v.grid) and grid.same_as(report.w.grid)):
        raise GridMismatchError("u, v and the energy report live on different grids")
    if not config.rho:
        raise ConfigurationError("probe config has an empty rho list")
    for rho in config.rho:
        if not 0.0 < rho < grid.R:
            raise ConfigurationError(f"rho must lie in (0, R), got {rho}")

    kappa = config.kappa
    m = integrate(u)
    w, f, g = report.w, report.f, report.g
    lap_v = laplacian(v)
    vr = gradient_faces(v)
    fr = gradient_faces(f)

    # Constraint-set constants measured on this state.
    r_f = grid.faces[1:-1]
    w_weighted = float(
        np.max(
            np.maximum(
                np.abs(grid.centers ** (grid.n - 1) * w.values),
                np.append(
                    np.abs(np.diff(grid.centers ** (grid.n - 1) * w.values))
                    / grid.spacing[1:-1],
                    0.0,
                ),
            )
        )
    )
    v_weighted = float(
        np.max(
            np.maximum(
                np.abs(grid.centers ** (kappa - 1) * v.values),
                np.append(
                    np.abs(np.diff(grid.centers ** (kappa - 1) * v.values))
                    / grid.spacing[1:-1],
                    0.0,
                ),
            )
        )
    )
    M = max(integrate(v), w_weighted)
    B = max(float(np.sum(np.abs(f.values) * grid.volumes)), v_weighted)

    weights = grid.face_areas * grid.spacing
    fr_all = float(np.sum(fr**2 * weights))
    g_all = math.sqrt(float(np.sum(g**2 * weights)))

    results: list[ProbeResult] = []
    uv = report.mixed_term
    for rho_in in config.rho:
        cells, faces, rho = _restrict(grid, rho_in)
        lap_sq = _cell_l2sq(lap_v.values, grid, cells)
        v_sq = _cell_l2sq(v.values, grid, cells)
        f_sq = _cell_l2sq(f.values, grid, cells)
        vr_sq = _face_l2sq(vr, grid, faces)
        fr_sq = _face_l2sq(fr, grid, faces)
        g_l2 = math.sqrt(_face_l2sq(g, grid, faces))

        # mixed-term bound over the inner ball
        rhs_known = 3.0 * lap_sq + 3.0 * v_sq + f_sq
        basis = (m + M) * B * rho ** (2.0 - kappa)
        results.append(
            ProbeResult(
                name="local_mixed_term",
                lhs=uv,
                rhs_free=rhs_known,
                implied_c=max(uv - rhs_known, 0.0) / basis,
                param=rho,
            )
        )

        # local second-order bound
        lhs2 = 0.125 * lap_sq + 0.75 * vr_sq
        rhs2_known = 12.0 * rho**2 * fr_sq + math.sqrt(m) * rho * g_l2 + v_sq + 2.0 * m
        basis2 = (
            f_sq
            + B**2 * rho ** (grid.n + 2.0 - 2.0 * kappa)
            + B * M * rho ** (2.0 - kappa)
        )
        results.append(
            ProbeResult(
                name="local_second_order",
                lhs=lhs2,
                rhs_free=rhs2_known,
                implied_c=max(lhs2 - rhs2_known, 0.0) / basis2,
                param=rho,
            )
        )

        # energy split over the whole ball with rho-dependent weights
        lhs3 = -report.F / 24.0
        rhs3_known = 12.0 * rho**2 * fr_all + math.sqrt(m) * rho * g_all
        basis3 = B ** (4.0 / (grid.n + 2.0)) * fr_all ** (
            grid.n / (grid.n + 2.0)
        ) + (B**2 + m**2 + M**2 + 1.0) * rho ** (grid.n - 2.0 * kappa)
        results.append(
            ProbeResult(
                name="energy_split",
                lhs=lhs3,
                rhs_free=rhs3_known,
                implied_c=max(lhs3 - rhs3_known, 0.0) / basis3,
                param=rho,
            )
        )
    return results
