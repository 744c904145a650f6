"""Empirical probes of the estimate chain behind the blowup argument.

Each probe evaluates one inequality on a state or a trajectory and
reports the left side, the explicitly weighted part of the right side,
and the constant the inequality would need to hold.  Hard pass/fail is
only defined for the inequalities whose constants are fully explicit
(the entropy floor and the mass identities); all other constants are
non-constructive and are surfaced purely as measured values.  Each row
of the probe report comes from the probe that names it: the ODI's c5 is
the fd_ratio constant, so probe_odi adds only its tail slope.

probe_fd_ratio, probe_odi and probe_mass_identities read the columns of
a Trajectory, from run or read_diagnostics.  Their powers and exps stay
Python's ** and math.exp on each float: np.power can differ in the last
bit, which would move a reported constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dynamics import Trajectory
from .errors import ConfigurationError, GridMismatchError
from .grid import RadialField, face_means, gradient_faces, integrate, laplacian
from .energy import EnergyReport

__all__ = [
    "ProbeConfig",
    "ProbeResult",
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
    if not kappa > n - 2:
        raise ConfigurationError(problems={"kappa": f"kappa must exceed n-2={n - 2}, got {kappa}"})
    if kappa < n:
        return n / (n + 2)
    return 1.0 - 2.0 * n / ((n + 2) * (2.0 * kappa - n))


@dataclass(frozen=True)
class ProbeConfig:
    """Exponents and radii shared by the probes on the ball of radius R.

    kappa defaults to n - 1/2, beta to kappa and the radii rho, each in
    (0, R), to R/4, R/2 and 3R/4; theta is derived from kappa
    (theta_exponent).
    """

    n: int
    R: float
    kappa: float = None  # type: ignore[assignment]
    beta: float = None   # type: ignore[assignment]
    rho: tuple = None    # type: ignore[assignment]
    theta: float = field(init=False)

    def __post_init__(self):
        if self.kappa is None:
            object.__setattr__(self, "kappa", self.n - 0.5)
        rho = tuple(f * self.R for f in (0.25, 0.5, 0.75)) if self.rho is None else tuple(self.rho)
        object.__setattr__(self, "rho", rho)
        problems = {}
        try:
            object.__setattr__(self, "theta", theta_exponent(self.kappa, self.n))
        except ConfigurationError as exc:
            problems.update(exc.problems)
        # the default follows kappa, so only an explicit beta can add a problem
        if self.beta is None:
            object.__setattr__(self, "beta", self.kappa)
        elif not self.beta > self.n - 2:
            problems["beta"] = f"beta must exceed n-2={self.n - 2}, got {self.beta}"
        if not (rho and all(0.0 < x < self.R for x in rho)):
            problems["rho"] = f"rho must be one or more radii in (0, R={self.R}), got {list(rho)}"
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
    """Hard check -F - int uv <= |Omega|/e, from s ln s >= -1/e."""
    grid = report.w.grid
    lhs = -report.F - report.mixed_term
    rhs = grid.ball_volume / math.e
    slack = 1e-6 * (1.0 + abs(report.F))
    return ProbeResult(
        name="entropy_floor",
        lhs=lhs,
        rhs_free=rhs,
        implied_c=max(lhs, 0.0) / rhs,
        hard_pass=lhs <= rhs + slack,
    )


def probe_pointwise_w(w: RadialField, m: float) -> ProbeResult:
    """Implied constant of the weighted bound r^{n-2} (w + r |w_r|) <= C m."""
    if not m > 0.0:
        raise ConfigurationError(f"mass must be positive, got {m}")
    grid = w.grid
    r = grid.faces[1:-1]
    wbar = face_means(w)
    wr = gradient_faces(w)[1:-1]
    implied = float(np.max(grid.face_power(grid.n - 2) * (wbar + r * np.abs(wr)))) / m
    return ProbeResult(
        name="pointwise_w",
        lhs=implied * m,
        rhs_free=m,
        implied_c=implied,
    )


def probe_pointwise_v(
    v: RadialField, config: ProbeConfig, m: float, v0_norm: float
) -> ProbeResult:
    """Implied constant of r^beta (v/r^2 + |v_r|/r) <= C (m + |v0|_{W^{2,2}}).

    v_r and the face mean of v are the ones v keeps: a stepped state's v
    already holds v_r from its step.
    """
    grid = v.grid
    r = grid.faces[1:-1]
    vbar = face_means(v)
    vr = gradient_faces(v)[1:-1]
    scale = m + v0_norm
    weighted = vbar / grid.face_power(2) + np.abs(vr) / r
    implied = float(np.max(grid.face_power(config.beta) * weighted)) / scale
    return ProbeResult(
        name="pointwise_v",
        lhs=implied * scale,
        rhs_free=scale,
        implied_c=implied,
        param=config.beta,
    )


def probe_fd_ratio(samples: Trajectory, config: ProbeConfig) -> ProbeResult:
    """Max over samples of (-F)_+ / (D_+^theta + 1), at its last attaining
    sample: the ODI's c5 (see probe_odi).

    A sample whose ratio is NaN is skipped; with no other sample the
    constant is 0 and the sample time None.
    """
    theta = config.theta
    power = np.array([d**theta for d in np.maximum(samples["D"], 0.0).tolist()])
    ratios = np.maximum(-samples["F"], 0.0) / (power + 1.0)
    attaining = np.flatnonzero(ratios >= np.fmax.reduce(ratios, initial=0.0))
    best, best_t = 0.0, None
    if len(attaining):
        last = attaining[-1]
        best, best_t = float(ratios[last]), float(samples["t"][last])
    return ProbeResult(
        name="fd_ratio",
        lhs=best,
        rhs_free=1.0,
        implied_c=best,
        param=theta,
        sample=best_t,
    )


# The tail fit needs -F to grow: over a narrower range of positive -F a
# log-log slope only measures how D varies at nearly constant F (the README
# blowup data, with -F between 5062 and 5827, gives 43.4).
ODI_TAIL_MIN_SPAN = 2.0


def _fit_slope(x: np.ndarray, y: np.ndarray) -> float:
    x = x - np.mean(x)
    denom = float(np.dot(x, x))
    if denom == 0.0:
        return math.inf
    return float(np.dot(x, y - np.mean(y)) / denom)


def probe_odi(samples: Trajectory, theta: float) -> tuple[ProbeResult, str]:
    """(the odi_tail_slope row, note): the log-log slope of D against -F
    over the final decade of -F, which the ODI D >= ((-F - c5)/c5)^{1/theta}
    puts near 1/theta once -F >> c5.

    For theta > 0 a sample with -F > c5 satisfies the ODI exactly when
    c5 >= -F/(D^theta + 1), so its c5 is probe_fd_ratio's constant.  The
    slope is NaN, and note says why (else ""), when -F is never positive,
    when fewer than 8 tail samples have positive -F and D, or when
    positive -F spans less than a factor ODI_TAIL_MIN_SPAN over the
    trajectory (the tail is not reached).
    """
    negF = -samples["F"]
    D = np.maximum(samples["D"], 0.0)
    peak = float(np.max(negF)) if len(negF) else 0.0
    tail = (negF >= 0.1 * peak) & (negF > 0.0) & (D > 0.0)
    n_tail = int(np.count_nonzero(tail))
    slope, note = math.nan, ""
    if peak <= 0.0:
        note = "-F is never positive"
    elif n_tail < 8:
        note = f"only {n_tail} usable tail samples; need at least 8"
    elif (span := peak / float(negF[negF > 0.0].min())) < ODI_TAIL_MIN_SPAN:
        note = (
            f"tail not reached: positive -F spans a factor {span:.3g} over the "
            f"trajectory, less than {ODI_TAIL_MIN_SPAN:g}"
        )
    else:
        slope = _fit_slope(np.log(negF[tail]), np.log(D[tail]))
    row = ProbeResult(name="odi_tail_slope", lhs=slope, rhs_free=1.0 / theta,
                      implied_c=slope, param=theta)
    return row, note


def probe_mass_identities(samples: Trajectory) -> list[ProbeResult]:
    """Hard identity checks along a trajectory.

    Relative drift of int u, the per-sample gap int w - int u, the bound
    int v <= max(int v0, int u0), and (reported, no hard flag) the gap to
    the exact homogeneous-relaxation value of int v.  Each maximum is NaN
    when any sample's term is, so a NaN sample fails the hard checks.  No
    samples, no rows; a trajectory without int_v and int_w columns, such
    as the diagnostics rows, gets the drift of int u alone.
    """
    if not samples:
        return []
    mass = samples["mass"]
    m0 = float(mass[0])
    drift = float(np.max(np.abs(mass - m0))) / max(abs(m0), 1e-300)
    drift_row = ProbeResult(
        name="mass_u_drift",
        lhs=drift,
        rhs_free=HARD_TOL,
        implied_c=drift,
        hard_pass=drift <= HARD_TOL,
    )
    if not {"int_v", "int_w"} <= set(samples.names):
        return [drift_row]
    t, int_v = samples["t"], samples["int_v"]
    v0 = float(int_v[0])
    w_gap = float(np.max(np.abs(samples["int_w"] - mass))) / max(abs(m0), 1e-300)
    v_bound = max(v0, m0)
    v_violation = max(float(np.max(int_v - v_bound)), 0.0) / max(v_bound, 1e-300)
    decay = np.array([math.exp(-x) for x in t.tolist()])
    relax_gap = float(np.max(np.abs(int_v - (v0 * decay + m0 * (1.0 - decay)))))
    return [
        drift_row,
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


def _restrict(grid, rho: float) -> tuple[int, float]:
    """(k, radius) of the ball of radius rho snapped to the nearest face k:
    its cells are [:k] and its interior faces [1:k]."""
    k = int(np.argmin(np.abs(grid.faces - rho)))
    k = max(1, min(k, grid.N))
    return k, float(grid.faces[k])


def _weighted_sup(a: RadialField, power: float) -> float:
    """max of |r^power a| at the centers and of its difference quotients."""
    grid = a.grid
    weighted = grid.centers**power * a.values
    quotients = np.abs(np.diff(weighted)) / grid.spacing[1:-1]
    return float(np.max(np.concatenate((np.abs(weighted), quotients))))


def probe_local_inequalities(
    u: RadialField, v: RadialField, report: EnergyReport, config: ProbeConfig
) -> list[ProbeResult]:
    """Ball-localized second-order estimates with their implied constants.

    For each rho: the mixed-term bound (explicit weights 3, 3, 1), the
    local second-order bound (explicit 1/8, 3/4, 12, sqrt(m) rho, 2m),
    and the energy split (explicit 1/24, 12, sqrt(m) rho).  Terms whose
    weights the analysis leaves non-constructive are aggregated into one
    basis and reported through the implied constant.  report is
    compute_energy(u, v, solver); its w, f and g and its whole-ball
    integrals of |grad f|^2 and g^2 are read, not recomputed, and so are
    L v and the face gradients of v and f that compute_energy left on
    them.
    """
    grid = u.grid
    if not (grid.same_as(v.grid) and grid.same_as(report.w.grid)):
        raise GridMismatchError("u, v and the energy report live on different grids")
    if config.R != grid.R:
        raise GridMismatchError(f"probe config is for R={config.R}, the fields live on R={grid.R}")

    kappa = config.kappa
    m = integrate(u)
    w, f, g = report.w, report.f, report.g
    lap = laplacian(v)
    vr = gradient_faces(v)
    fr = gradient_faces(f)

    # Constraint-set constants measured on this state.
    M = max(integrate(v), _weighted_sup(w, grid.n - 1))
    B = max(float(np.sum(np.abs(f.values) * grid.volumes)), _weighted_sup(v, kappa - 1))

    weights = grid.face_weights
    fr_all = report.grad_f_term
    g_all = math.sqrt(report.g_term)

    results: list[ProbeResult] = []
    uv = report.mixed_term
    for rho_in in config.rho:
        k, rho = _restrict(grid, rho_in)
        vol, fw = grid.volumes[:k], weights[1:k]  # inner cells, interior faces
        lap_sq = float(np.sum(lap.values[:k] ** 2 * vol))
        v_sq = float(np.sum(v.values[:k] ** 2 * vol))
        f_sq = float(np.sum(f.values[:k] ** 2 * vol))
        vr_sq = float(np.sum(vr[1:k] ** 2 * fw))
        fr_sq = float(np.sum(fr[1:k] ** 2 * fw))
        g_l2 = math.sqrt(float(np.sum(g[1:k] ** 2 * fw)))

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
