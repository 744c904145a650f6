"""Per-step invariants of the IMEX step on adversarial meshes and data.

Each example takes one step at adapt_dt's dt from a smooth pair or from
a bump with its relaxed signal, on uniform and graded meshes (h_min down
to 1e-12), N from 32 to 512 and n from 5 to 8, and checks what the step's
flux form promises to round-off: the mass of u telescopes, the v-update
keeps (1 + dt) int v+ = int v + dt int w, and a finite state does not
stall.  The w the step reads, solved in one pass, is >= 0 and keeps
int w = int u.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from radks.dynamics import SimStatus, State, adapt_dt, default_stepper_config, step
from radks.grid import RadialField, make_grid
from radks.helmholtz import build_solver, solve
from radks.initial_data import base_data

PROFILE = settings(max_examples=30, deadline=None, derandomize=True)


@st.composite
def stepped_states(draw):
    """(grid, solver, state at adapt_dt's dt, cfg) for one drawn case."""
    n = draw(st.integers(min_value=5, max_value=8))
    N = draw(st.integers(min_value=32, max_value=512))
    R = 1.0
    # uniform, or graded with h_min from R/(2N) down to 1e-12
    log_h = draw(
        st.one_of(st.none(), st.floats(min_value=-12.0, max_value=math.log10(R / (2 * N))))
    )
    g = make_grid(n, R, N, h_min=None if log_h is None else 10.0**log_h)
    s = build_solver(g)
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=10_000)))
        a, b = draw(st.floats(min_value=0.0, max_value=0.9)) * (2 * rng.random((2, 4)) - 1)
        modes = np.cos(np.outer(np.arange(1, 5), math.pi * g.centers / R))
        u, v = RadialField(1.0 + a @ modes, g), RadialField(1.0 + b @ modes, g)
    else:
        u, v = base_data(
            "bump", g, s,
            baseline=1.0,
            amplitude=10.0 ** draw(st.floats(min_value=0.0, max_value=math.log10(2e7))),
            width=draw(st.floats(min_value=0.03, max_value=0.3)),
            v_mode="relaxed",
        )
    cfg = default_stepper_config(g, t_end=1.0)
    state = State(0.0, 0, u, v, cfg.dt_init)
    return g, s, State(0.0, 0, u, v, adapt_dt(state, cfg)), cfg


@PROFILE
@given(case=stepped_states())
def test_step_conserves_mass_and_the_signal_balance(case):
    g, s, state, cfg = case
    dt = state.dt
    new = step(state, cfg, s)
    assert new.status is SimStatus.RUNNING

    V = g.volumes
    u, v, w = state.u.values, state.v.values, solve(s, state.u).values
    assert np.min(w) >= 0.0
    mass_scale = math.fsum(V * np.abs(u))
    w_gap = math.fsum(V * w) - math.fsum(V * u)
    assert abs(w_gap) <= 1e-14 * mass_scale, w_gap / mass_scale
    mass_gap = math.fsum(V * new.u.values) - math.fsum(V * u)
    assert abs(mass_gap) <= 1e-14 * mass_scale, mass_gap / mass_scale

    signal_scale = math.fsum(V * np.abs(v)) + dt * math.fsum(V * np.abs(w))
    signal_gap = (1.0 + dt) * math.fsum(V * new.v.values) - (
        math.fsum(V * v) + dt * math.fsum(V * w)
    )
    assert abs(signal_gap) <= 1e-14 * signal_scale, signal_gap / signal_scale
