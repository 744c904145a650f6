"""Sectioned key-value run configuration.

INI-style sections mirror the module names ([grid], [base], [family],
[stepper], [probe], [run], [sweep]).  Loading validates by building the
domain objects once: the Grid (make_grid), the StepperConfig
(default_stepper_config, which resolves the auto dt values on that grid)
and the ProbeConfig; the [base] and [family] values pass initial_data's
own checks (check_base on that grid, check_family).  Their checks, keyed
by parameter name, and the few that no object makes (family.eta_count,
stepper.max_steps, probe.rho in (0, R), the run keys, the sweep axes)
are all reported at once as `section.key: message`.  A value that
already failed, by not parsing or by being rejected, adds no follow-on
message.  Sub-blowup-regime dimensions (2 <= n < 5), unknown keys and
sweep axes naming no known key only warn.  Dotted overrides (--set
section.key=value) are applied before validation.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from .dynamics import StepperConfig, default_stepper_config
from .errors import ConfigurationError, RadksError
from .grid import Grid, make_grid
from .initial_data import check_base, check_family
from .probes import ProbeConfig

__all__ = ["RunConfig", "load_config", "parse_overrides", "resolve_output_dir"]

OUTPUT_ROOT_ENV = "RADKS_OUTPUT_ROOT"

_DEFAULTS = {
    "base": {"kind": "constant", "value": "1.0", "baseline": "1.0",
             "amplitude": "0.0", "width": "0.25", "v_mode": "flat", "path": ""},
    "family": {"gamma": "1.5", "eta": "auto", "eta_count": "4"},
    "stepper": {"cfl": "0.9", "dt_init": "auto", "dt_min": "auto", "dt_max": "1e-2",
                "t_end": "1.0", "blowup_factor": "1e6", "output_every": "10",
                "max_steps": "5000000"},
    "probe": {"kappa": "auto", "beta": "auto", "rho": "0.25,0.5,0.75"},
    "run": {"outdir": "out", "snapshot_every": "0", "workers": "1"},
}
# every key load_config reads: the [grid] keys (no default) and the defaulted ones
_KNOWN_KEYS = {("grid", "n"), ("grid", "R"), ("grid", "N")}.union(
    (section, key) for section, keys in _DEFAULTS.items() for key in keys)


@dataclass
class RunConfig:
    """Validated run parameters plus any non-fatal warnings.

    grid, stepper and probe are the objects load_config built to validate
    the [grid], [stepper] and [probe] sections; the stepper carries the
    resolved auto dt values.  n, R and N repeat the grid's inputs.
    """

    n: int
    R: float
    N: int
    grid: Grid
    base_kind: str
    base_params: dict
    gamma: float
    etas: tuple              # the family.eta scales, empty for "auto"
    eta_count: int
    stepper: StepperConfig
    max_steps: int
    probe: ProbeConfig
    outdir: str
    snapshot_every: int
    workers: int
    sweep_axes: dict = dc_field(default_factory=dict)
    warnings: list = dc_field(default_factory=list)


def parse_overrides(pairs) -> list[tuple[str, str, str]]:
    """Parse --set section.key=value strings."""
    out = []
    for raw in pairs or ():
        key, sep, value = raw.partition("=")
        if not sep:
            raise ConfigurationError(f"override {raw!r} is not of the form section.key=value")
        section, dot, name = key.strip().partition(".")
        if not dot or not section or not name:
            raise ConfigurationError(f"override key {key!r} is not of the form section.key")
        out.append((section.strip(), name.strip(), value.strip()))
    return out


def _check_version_line(path: Path, problems: list) -> None:
    with path.open() as handle:
        first = handle.readline().strip()
    if first != "# format_version=1":
        problems.append(
            f"first line must be '# format_version=1', got {first!r}"
        )


def load_config(path, overrides=()) -> RunConfig:
    """Parse and validate; raises ConfigurationError listing every violation,
    with problems mapping each keyed one (section.key) to its message."""
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file {path} does not exist")
    problems: list[str] = []
    keyed: dict[str, str] = {}  # section.key -> message, for the error's problems
    warnings: list[str] = []
    failed: set[str] = set()  # section.key of every value already reported
    _check_version_line(path, problems)

    def report(key: str, message: str) -> None:
        failed.add(key)
        keyed.setdefault(key, message)
        problems.append(f"{key}: {message}")

    def check(key: str, ok: bool, message: str) -> None:
        if not ok and key not in failed:
            report(key, message)

    def build(section: str, make, *args, **kwargs):
        """make(*args, **kwargs), or None once its problems are reported."""
        try:
            return make(*args, **kwargs)
        except RadksError as exc:
            if not exc.problems:
                raise
            for name, message in exc.problems.items():
                check(f"{section}.{name}", False, message)
            return None

    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keep key case: grid.n and grid.N differ
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigurationError(f"{path}: parse error: {exc}") from exc

    for section, name, value in parse_overrides(overrides):
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, name, value)

    warnings.extend(
        f"unknown key {section}.{key} is ignored"
        for section in parser.sections() if section != "sweep"
        for key in parser.options(section) if (section, key) not in _KNOWN_KEYS
    )

    def get(section: str, key: str) -> str:
        if parser.has_option(section, key):
            return parser.get(section, key).strip()
        if section in _DEFAULTS and key in _DEFAULTS[section]:
            return _DEFAULTS[section][key]
        report(f"{section}.{key}", "missing required key")
        return ""

    def get_number(section: str, key: str, kind=float, allow_auto: bool = False):
        """The value as kind, "auto" if allowed, or nan once reported as bad."""
        raw = get(section, key)
        if allow_auto and raw == "auto":
            return "auto"
        try:
            return kind(raw)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            check(f"{section}.{key}", False, f"must be {what}, got {raw!r}")
            return math.nan

    if not parser.has_section("grid"):
        problems.append("missing required section [grid]")
    n = get_number("grid", "n", int)
    R = get_number("grid", "R")
    N = get_number("grid", "N", int)
    grid = build("grid", make_grid, n, R, N)
    if "grid.n" not in failed and n < 5:
        warnings.append(f"grid.n={n} is below the n >= 5 blowup regime; run is fine for testing")

    base_kind = get("base", "kind")
    base_params = {key: get_number("base", key)
                   for key in ("value", "baseline", "amplitude", "width")}
    base_params.update(v_mode=get("base", "v_mode"), path=get("base", "path"))
    build("base", check_base, base_kind, grid, **base_params)

    gamma = get_number("family", "gamma")
    eta_raw = get("family", "eta")
    etas: tuple = ()
    if eta_raw != "auto":
        try:
            etas = tuple(float(x) for x in eta_raw.split(",") if x.strip())
        except ValueError:
            pass
        check("family.eta", bool(etas),
              f"must be 'auto' or a nonempty comma list of numbers, got {eta_raw!r}")
    build("family", check_family, gamma, etas)
    eta_count = get_number("family", "eta_count", int)
    check("family.eta_count", eta_count >= 1, f"must be >= 1, got {eta_count}")

    stepper_values = {key: get_number("stepper", key, allow_auto=key.startswith("dt_"))
                      for key in ("cfl", "dt_init", "dt_min", "dt_max", "t_end", "blowup_factor")}
    stepper_values["output_every"] = get_number("stepper", "output_every", int)
    explicit = {key: v for key, v in stepper_values.items() if v != "auto"}
    if grid is not None:
        stepper = build("stepper", default_stepper_config, grid, **explicit)
    else:
        # the auto step bounds come from the grid: check only the other keys
        failed.update(f"stepper.{key}" for key in stepper_values.keys() - explicit.keys())
        stepper = build("stepper", StepperConfig,
                        **{**dict.fromkeys(stepper_values, math.nan), **explicit})
    max_steps = get_number("stepper", "max_steps", int)
    check("stepper.max_steps", max_steps >= 1, f"must be >= 1, got {max_steps}")

    rho: tuple = ()
    rho_raw = get("probe", "rho")
    try:
        rho = tuple(float(x) for x in rho_raw.split(",") if x.strip())
    except ValueError:
        report("probe.rho", f"must be a comma list of numbers, got {rho_raw!r}")
    check("probe.rho", "grid.R" in failed or all(0.0 < x < R for x in rho),
          f"entries must lie in (0, R={R}), got {list(rho)}")
    probe_values = {key: get_number("probe", key, allow_auto=True)
                    for key in ("kappa", "beta")}
    probe = None
    if "grid.n" not in failed:  # every probe check is relative to n
        probe = build("probe", ProbeConfig, n=n, rho=rho or (0.5 * R,),
                      **{key: v for key, v in probe_values.items() if v != "auto"})

    outdir = get("run", "outdir")
    snapshot_every = get_number("run", "snapshot_every", int)
    workers = get_number("run", "workers", int)
    check("run.workers", workers >= 1, f"must be >= 1, got {workers}")
    check("run.snapshot_every", snapshot_every >= 0, f"must be >= 0, got {snapshot_every}")

    sweep_axes: dict = {}
    if parser.has_section("sweep"):
        for key, raw in parser.items("sweep"):
            values = [x.strip() for x in raw.split(",") if x.strip()]
            if not values:
                problems.append(f"sweep.{key}: has no values")
            if "." not in key:
                problems.append(f"sweep.{key}: axis must be a dotted section.key name")
            elif tuple(key.split(".", 1)) not in _KNOWN_KEYS:
                warnings.append(f"sweep axis {key} names no known key; its values change nothing")
            sweep_axes[key] = values

    if problems:
        raise ConfigurationError(
            f"{path}: {len(problems)} violation(s):\n  - " + "\n  - ".join(problems),
            problems=keyed,
        )

    return RunConfig(
        n=n, R=R, N=N, grid=grid,
        base_kind=base_kind, base_params=base_params,
        gamma=gamma, etas=etas, eta_count=eta_count,
        stepper=stepper, max_steps=max_steps, probe=probe,
        outdir=outdir, snapshot_every=snapshot_every, workers=workers,
        sweep_axes=sweep_axes, warnings=warnings,
    )


def resolve_output_dir(cfg: RunConfig) -> Path:
    """outdir, optionally rooted at $RADKS_OUTPUT_ROOT."""
    root = os.environ.get(OUTPUT_ROOT_ENV)
    out = Path(cfg.outdir)
    if root and not out.is_absolute():
        out = Path(root) / out
    return out
