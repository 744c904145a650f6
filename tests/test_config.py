import pytest

from radks.config import OUTPUT_ROOT_ENV, load_config, parse_overrides, resolve_output_dir
from radks.dynamics import default_stepper_config
from radks.errors import AdmissibilityError, ConfigurationError
from radks.grid import make_grid
from radks.initial_data import base_data, check_base, check_family, eta_star
from radks.probes import ProbeConfig

MINIMAL = """\
# format_version=1
[grid]
n = 5
R = 1.0
N = 128
"""


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return path


def test_minimal_config_fills_defaults(tmp_path):
    cfg = load_config(write(tmp_path, MINIMAL))
    assert cfg.n == 5 and cfg.N == 128 and cfg.R == 1.0
    assert cfg.base_kind == "constant"
    assert cfg.gamma == 1.5
    assert cfg.stepper.cfl == 0.9
    assert cfg.stepper.t_end == 1.0
    assert cfg.stepper.blowup_factor == 1e6
    assert cfg.outdir == "out"
    assert cfg.warnings == []


def test_unknown_key_is_warning(tmp_path):
    cfg = load_config(write(tmp_path, MINIMAL), ["stepper.dt_mx=1e-9"])
    assert cfg.stepper.dt_max == 0.01
    assert cfg.warnings == ["unknown key stepper.dt_mx is ignored"]


def test_probe_theta_key_is_unknown(tmp_path):
    # theta follows kappa (theta_exponent), so it is not a config key
    cfg = load_config(write(tmp_path, MINIMAL), ["probe.theta=0.3"])
    assert cfg.warnings == ["unknown key probe.theta is ignored"]
    assert cfg.probe.theta == pytest.approx(5.0 / 7.0)


def test_sweep_axis_naming_no_key_is_warning(tmp_path):
    text = MINIMAL + "[sweep]\nbase.amplitud = 1, 2\nbase.amplitude = 1, 2\n"
    cfg = load_config(write(tmp_path, text))
    assert len(cfg.warnings) == 1
    assert "sweep axis base.amplitud names no known key" in cfg.warnings[0]


def test_readme_style_config_has_no_warnings(tmp_path):
    text = MINIMAL.replace("N = 128", "N = 400") + (
        "[base]\nkind = bump          ; constant | bump | custom\nbaseline = 1.0\n"
        "amplitude = 2e7\nwidth = 0.06\nv_mode = relaxed\n"
        "[stepper]\nt_end = 0.5\ndt_max = 1e-2\noutput_every = 20\n"
        "[run]\noutdir = out\nsnapshot_every = 0\nworkers = 2\n"
        "[sweep]\nbase.amplitude = 1e7, 2e7\n"
    )
    assert load_config(write(tmp_path, text)).warnings == []


def test_missing_version_line_rejected(tmp_path):
    with pytest.raises(ConfigurationError, match="format_version"):
        load_config(write(tmp_path, "[grid]\nn = 5\nR = 1.0\nN = 128\n"))


def test_low_dimension_is_warning_not_error(tmp_path):
    cfg = load_config(write(tmp_path, MINIMAL.replace("n = 5", "n = 3")))
    assert cfg.n == 3
    assert any("blowup regime" in w for w in cfg.warnings)


def test_missing_grid_key_names_it(tmp_path):
    text = "# format_version=1\n[grid]\nn = 5\nR = 1.0\n"
    with pytest.raises(ConfigurationError, match="grid.N"):
        load_config(write(tmp_path, text))


def test_all_violations_reported_at_once(tmp_path):
    text = (
        "# format_version=1\n"
        "[grid]\nn = 1\nR = -2\nN = 2\n"
        "[stepper]\ncfl = 3\nt_end = -1\n"
    )
    with pytest.raises(ConfigurationError) as err:
        load_config(write(tmp_path, text))
    msg = str(err.value)
    for key in ("grid.n", "grid.R", "grid.N", "stepper.cfl", "stepper.t_end"):
        assert key in msg


def test_overrides_applied_before_validation(tmp_path):
    path = write(tmp_path, MINIMAL)
    cfg = load_config(path, ["stepper.t_end=2.5", "grid.N=256"])
    assert cfg.stepper.t_end == 2.5
    assert cfg.N == 256


def test_bad_override_syntax(tmp_path):
    with pytest.raises(ConfigurationError):
        parse_overrides(["notakeyvalue"])
    with pytest.raises(ConfigurationError):
        parse_overrides(["plainkey=1"])


def test_custom_base_requires_existing_path(tmp_path):
    text = MINIMAL + "[base]\nkind = custom\npath = /nonexistent/snap.csv\n"
    with pytest.raises(ConfigurationError, match="base.path"):
        load_config(write(tmp_path, text))


def test_sweep_axes_parsed(tmp_path):
    text = MINIMAL + "[sweep]\ngrid.N = 64, 128\nstepper.t_end = 0.1\n"
    cfg = load_config(write(tmp_path, text))
    assert cfg.sweep_axes == {"grid.N": ["64", "128"], "stepper.t_end": ["0.1"]}


def test_sweep_axis_requires_dotted_key(tmp_path):
    text = MINIMAL + "[sweep]\nbadkey = 1, 2\n"
    with pytest.raises(ConfigurationError, match="dotted"):
        load_config(write(tmp_path, text))


def test_output_root_env(tmp_path, monkeypatch):
    cfg = load_config(write(tmp_path, MINIMAL))
    monkeypatch.setenv(OUTPUT_ROOT_ENV, "/data/results")
    assert str(resolve_output_dir(cfg)) == "/data/results/out"
    monkeypatch.delenv(OUTPUT_ROOT_ENV)
    assert str(resolve_output_dir(cfg)) == "out"


def test_rho_must_fit_in_ball(tmp_path):
    text = MINIMAL + "[probe]\nrho = 0.5, 1.5\n"
    with pytest.raises(ConfigurationError, match="probe.rho"):
        load_config(write(tmp_path, text))


def test_probe_radii_default_to_fractions_of_R(tmp_path):
    # rho's default and range are ProbeConfig's, both relative to the ball
    cfg = load_config(write(tmp_path, MINIMAL.replace("R = 1.0", "R = 0.5")))
    assert cfg.probe.rho == (0.125, 0.25, 0.375)
    assert cfg.warnings == []


@pytest.mark.parametrize("value", ["", "auto"])
def test_unset_probe_rho_is_the_default(tmp_path, value):
    path = write(tmp_path, MINIMAL)
    assert load_config(path, [f"probe.rho={value}"]).probe.rho == load_config(path).probe.rho


def test_each_section_takes_its_owners_defaults(tmp_path):
    cfg = load_config(write(tmp_path, MINIMAL))
    assert cfg.stepper == default_stepper_config(cfg.grid, t_end=1.0)
    assert cfg.probe == ProbeConfig(n=5, R=1.0)
    assert cfg.base_params == check_base("constant", cfg.grid)


def test_inline_comments_allowed(tmp_path):
    text = MINIMAL.replace("N = 128", "N = 128  # cells")
    cfg = load_config(write(tmp_path, text))
    assert cfg.N == 128


@pytest.mark.parametrize("override, key", [
    ("probe.kappa=2", "probe.kappa"),        # not above n-2
    ("stepper.cfl=2", "stepper.cfl"),        # above 1
    ("grid.R=inf", "grid.R"),
    ("stepper.dt_init=-1", "stepper.dt_init"),
    ("stepper.dt_init=0.5", "stepper.dt_init"),  # above dt_max, no silent clamp
])
def test_domain_object_checks_reject_at_load(tmp_path, override, key):
    with pytest.raises(ConfigurationError) as err:
        load_config(write(tmp_path, MINIMAL), [override])
    assert f"1 violation(s):\n  - {key}: " in str(err.value)


@pytest.mark.parametrize("overrides, key", [
    (["base.kind=bump", "base.width=-1"], "base.width"),
    (["base.kind=bump", "base.width=0"], "base.width"),
    (["base.kind=constant", "base.value=0"], "base.value"),
    (["base.kind=constant", "base.value=-2.5"], "base.value"),
    (["base.kind=cone"], "base.kind"),
    (["base.v_mode=frozen"], "base.v_mode"),
    (["base.kind=custom", "base.path=/nonexistent/snap.csv"], "base.path"),
    (["family.gamma=1"], "family.gamma"),
    (["family.eta=0"], "family.eta"),
    (["family.eta=1.5"], "family.eta"),
    (["family.eta=tiny"], "family.eta"),
])
def test_base_checks_reject_at_load(tmp_path, overrides, key):
    with pytest.raises(ConfigurationError) as err:
        load_config(write(tmp_path, MINIMAL), overrides)
    start = "must be positive" if key in ("base.width", "base.value") else ""
    assert f"1 violation(s):\n  - {key}: {start}" in str(err.value)


@pytest.mark.parametrize("kind, params, key", [
    ("constant", {"value": 0.0}, "value"),
    ("bump", {"width": -1.0}, "width"),
    ("bump", {"amplitude": -2.0, "width": 0.3}, "amplitude"),
])
def test_base_data_and_load_config_give_one_message(tmp_path, kind, params, key):
    # the [base] rules are initial_data's: base_data and load_config word
    # a bad value the same way
    overrides = [f"base.kind={kind}"] + [f"base.{k}={v}" for k, v in params.items()]
    with pytest.raises(ConfigurationError) as loaded:
        load_config(write(tmp_path, MINIMAL), overrides)
    with pytest.raises(AdmissibilityError) as built:
        base_data(kind, make_grid(5, 1.0, 128), **params)
    assert built.value.problems == {key: loaded.value.problems[f"base.{key}"]}
    assert f"1 violation(s):\n  - base.{built.value}" in str(loaded.value)


def test_family_objects_and_load_config_give_one_message(tmp_path):
    with pytest.raises(ConfigurationError) as loaded:
        load_config(write(tmp_path, MINIMAL), ["family.gamma=0.5", "family.eta=2"])
    with pytest.raises(ConfigurationError) as checked:
        check_family(0.5, (2.0,))
    with pytest.raises(ConfigurationError) as star:
        eta_star(1.0, 0.5, 5, make_grid(5, 1.0, 128).ball_volume)
    assert checked.value.problems == {"gamma": "must exceed 1, got 0.5",
                                      "eta": "entries must lie in (0, 1), got [2.0]"}
    assert loaded.value.problems == {f"family.{k}": m for k, m in checked.value.problems.items()}
    assert star.value.problems == {"gamma": checked.value.problems["gamma"]}


def test_bump_density_checked_at_load(tmp_path):
    # the density baseline + amplitude exp(-(r/width)^2) is checked on the
    # loaded grid and listed with the other violations
    bump = ["base.kind=bump", "base.width=0.3"]
    with pytest.raises(ConfigurationError) as err:
        load_config(write(tmp_path, MINIMAL), bump + ["base.amplitude=-2", "run.workers=0"])
    msg = str(err.value)
    assert "2 violation(s)" in msg
    assert "\n  - base.amplitude: the bump density (baseline=1.0, amplitude=-2.0) must be " \
        "positive at every cell center, got a minimum of -0.99" in msg
    assert "\n  - run.workers: must be >= 1" in msg
    # a dip that stays above zero loads
    cfg = load_config(write(tmp_path, MINIMAL), bump + ["base.amplitude=-0.5"])
    assert cfg.base_params["amplitude"] == -0.5


def test_load_builds_grid_stepper_and_probe(tmp_path):
    cfg = load_config(write(tmp_path, MINIMAL), ["stepper.dt_max=1e-7"])
    assert (cfg.grid.n, cfg.grid.R, cfg.grid.N) == (5, 1.0, 128)
    assert cfg.stepper.dt_init == 1e-7  # the auto value, clamped to dt_max
    assert cfg.probe.theta == pytest.approx(5.0 / 7.0)
    assert cfg.probe.rho == (0.25, 0.5, 0.75)


def test_bad_grid_value_reported_once_without_follow_ons(tmp_path):
    with pytest.raises(ConfigurationError) as err:
        load_config(write(tmp_path, MINIMAL.replace("R = 1.0", "R = -2")))
    msg = str(err.value)
    assert "1 violation(s)" in msg
    assert msg.count("grid.R") == 1
    assert "probe.rho" not in msg


def test_unparsable_value_reported_once(tmp_path):
    with pytest.raises(ConfigurationError) as err:
        load_config(write(tmp_path, MINIMAL), ["stepper.cfl=fast", "grid.n=five"])
    msg = str(err.value)
    assert "2 violation(s)" in msg
    assert msg.count("stepper.cfl") == 1 and msg.count("grid.n") == 1
