import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import radks.dynamics
import radks.grid
import radks.helmholtz
import radks.verify
from radks.dynamics import SimStatus, State
from radks.grid import RadialField, _add_flux_divergence as true_flux_divergence, make_grid
from radks.verify import (
    check_conservation,
    check_energy_identity,
    check_equilibrium,
    check_family,
    check_manufactured,
    run_checks,
    scorecard,
)


def test_fast_checks_all_pass():
    results = run_checks("fast")
    report = scorecard(results)
    assert all(r.passed for r in results), report
    assert f"{len(results)}/{len(results)} checks passed" in report


def test_smooth_pair_leaves_numpy_random_unimported():
    # the smooth pairs draw from the standard library's random module;
    # numpy.random would add ~6 MB to the peak RSS of every verify run
    src = str(Path(radks.verify.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, radks.cli\n"
         "from radks import verify\n"
         "from radks.grid import make_grid\n"
         "verify._smooth_pair(make_grid(5, 1.0, 64))\n"
         "print('numpy.random' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_family_check_leaves_numpy_polynomial_unimported():
    # the family's Gauss nodes and weights are stored; loading
    # numpy.polynomial for them raised verify full's peak RSS by ~0.9 MB
    src = str(Path(radks.verify.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, radks.cli\n"
         "from radks import verify\n"
         "verify.check_family(512)\n"
         "print('numpy.polynomial' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_run_checks_rejects_bad_level():
    with pytest.raises(ValueError):
        run_checks("medium")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the broken operator overflows
def test_fault_injection_sign_flipped_operator(monkeypatch):
    """A deliberately broken operator must be caught by the scorecard.

    Flipping the sign of the flux-form operator leaves telescoping (and so
    mass conservation) intact but corrupts every non-constant solve: the
    manufactured-solution and energy-identity checks catch it.  The
    elliptic solve never applies the flux kernel: it solves on factors
    built from the couplings' row sums, so the manufactured check also
    flips the couplings that factorization reads.  Constant
    states sit in the kernel of any stiffness tamper, but their round-off
    does not.  The v-update refines from v, so the flipped flux drives its
    whole increment: v anti-diffuses from round-off (a per-step change of
    ~6e-2 at N=256) and the CFL step collapses.  The equilibrium check
    stops at its 50 steps, short of t_end, and fails.
    """

    def flipped(out, values, weights):
        return true_flux_divergence(out, -values, weights)

    # the face-flux kernel in both its bindings: helmholtz's, which every
    # shifted solve's refinement pass goes through, and grid's, behind
    # grid.laplacian and so behind energy's (I - L)v
    monkeypatch.setattr(radks.helmholtz, "_add_flux_divergence", flipped)
    monkeypatch.setattr(radks.grid, "_add_flux_divergence", flipped)

    ok_cons, _ = check_conservation(128, 300)
    assert ok_cons  # conservation still holds: fluxes telescope regardless

    true_factor = radks.helmholtz._row_sum_factor
    with monkeypatch.context() as m:
        m.setattr(
            radks.helmholtz,
            "_row_sum_factor",
            lambda volumes, coupling: true_factor(volumes, -coupling),
        )
        ok_mms, detail = check_manufactured(100, 200, 3.5, 4.5)
    assert not ok_mms, detail

    ok_energy, detail = check_energy_identity(128, 8e-3, 0.1)
    assert not ok_energy, detail

    ok_eq, detail = check_equilibrium()
    assert not ok_eq, detail


def test_equilibrium_check_hands_every_sample_to_its_sink():
    calls = []
    ok, detail = check_equilibrium(64, sink=lambda state, sample, rep: calls.append(sample.t))
    assert ok, detail
    assert len(calls) == 51  # t = 0 and each of the 50 steps
    assert calls[0] == 0.0


def test_family_check_fails_on_a_uniform_mesh(monkeypatch):
    """Without the graded mesh every admissible scale is sub-cell: the
    signal bump rounds away, so the W22 distances read zero and cannot
    decrease."""
    monkeypatch.setattr(
        radks.verify, "make_grid", lambda n, R, N, h_min=None: make_grid(n, R, N)
    )
    ok, detail = check_family(512)
    assert not ok
    assert "0.00e+00" in detail


def test_conservation_fails_on_a_nan_sample(monkeypatch):
    # step 5 stalls on a NaN u, and run samples that state last: its NaN
    # mass must fail the row, not drop out of the drift's maximum
    inner_step = radks.dynamics.step

    def tampered(state, cfg, solver):
        new = inner_step(state, cfg, solver)
        if new.step < 5:
            return new
        u = new.u.values.copy()
        u[0] = math.nan
        return State(new.t, new.step, RadialField(u, new.u.grid), new.v, new.dt,
                     SimStatus.STALLED)

    monkeypatch.setattr(radks.dynamics, "step", tampered)
    ok, detail = check_conservation(64, 10)
    assert not ok
    assert "mass drift nan" in detail and "w-u gap nan" in detail
