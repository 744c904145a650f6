import pytest

import radks.helmholtz
from radks.grid import RadialField, laplacian as true_laplacian
from radks.verify import run_checks, scorecard


def test_fast_checks_all_pass():
    results = run_checks("fast")
    report = scorecard(results)
    assert all(r.passed for r in results), report
    assert f"{len(results)}/{len(results)} checks passed" in report


def test_run_checks_rejects_bad_level():
    with pytest.raises(ValueError):
        run_checks("medium")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the broken operator overflows
def test_fault_injection_sign_flipped_operator(monkeypatch):
    """A deliberately broken operator must be caught by the scorecard.

    Flipping the sign of the flux-form operator leaves telescoping (and so
    mass conservation) intact but corrupts every non-constant solve: the
    manufactured-solution and energy-identity checks catch it.  Constant
    states sit in the kernel of any stiffness tamper, so the equilibrium
    check is insensitive to this particular defect by design.
    """

    def flipped(field):
        good = true_laplacian(field)
        return RadialField(-good.values, good.grid)

    monkeypatch.setattr(radks.helmholtz, "laplacian", flipped)

    from radks.verify import check_conservation, check_energy_identity, check_equilibrium, check_manufactured

    ok_cons, _ = check_conservation(128, 300)
    assert ok_cons  # conservation still holds: fluxes telescope regardless

    ok_mms, detail = check_manufactured(100, 200, 3.5, 4.5)
    assert not ok_mms, detail

    ok_energy, detail = check_energy_identity(128, 8e-3, 0.1)
    assert not ok_energy, detail

    ok_eq, _ = check_equilibrium(64)
    assert ok_eq  # homogeneous states are fixed points of the tampered operator too
