"""Sectioned key-value run configuration.

INI-style sections mirror the module names ([grid], [base], [family],
[stepper], [probe], [run], [sweep]).  load_config parses and the domain
objects validate: make_grid, check_base on that grid, check_family,
default_stepper_config and ProbeConfig (rho relative to the grid's R).
[base], [stepper] and [probe] pass on only the keys the file sets, an
`auto` or empty value counting as unset, so their defaults are their
owners'; _DEFAULTS holds the few that no object holds.  The objects'
checks, keyed by parameter name, and the few that no object makes
(family.eta_count, stepper.max_steps, the run keys, the sweep axes) are
reported at once as `section.key: message`; a value that already
failed, by not parsing or by being rejected, adds no follow-on message.  Dimensions 2 <= n < 5,
unknown keys and sweep axes naming no known key only warn.  Dotted
overrides (--set section.key=value) are applied before validation.
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


def _numbers(raw: str) -> tuple:
    values = tuple(float(x) for x in raw.split(",") if x.strip())
    if not values:
        raise ValueError(raw)
    return values


# every key load_config reads, with its parser
_KEYS = {
    "grid": {"n": int, "R": float, "N": int},
    "base": {"kind": str, "value": float, "baseline": float, "amplitude": float,
             "width": float, "v_mode": str, "path": str},
    "family": {"gamma": float, "eta": _numbers, "eta_count": int},
    "stepper": {"cfl": float, "dt_init": float, "dt_max": float, "t_end": float,
                "blowup_factor": float, "output_every": int, "max_steps": int},
    "probe": {"kappa": float, "beta": float, "rho": _numbers},
    "run": {"outdir": str, "snapshot_every": int, "workers": int},
}
_WHAT = {int: "an integer", float: "a number",
         _numbers: "'auto' or a nonempty comma list of numbers"}
# the defaults no domain object holds; [grid] has none
_DEFAULTS = {
    "base": {"kind": "constant"},
    "family": {"gamma": 1.5, "eta": (), "eta_count": 4},  # eta () is auto
    "stepper": {"t_end": 1.0, "max_steps": 5_000_000},
    "run": {"outdir": "out", "snapshot_every": 0, "workers": 1},
}


@dataclass
class RunConfig:
    """Validated run parameters plus any non-fatal warnings.

    grid, stepper and probe are the objects load_config built to validate
    the [grid], [stepper] and [probe] sections, with their defaults
    filled in.  base_params are the [base] values as check_base
    resolved them.  n, R and N repeat the grid's inputs.
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
    keyed: dict[str, str] = {}  # section.key of every value already reported -> its message
    warnings: list[str] = []
    _check_version_line(path, problems)

    def report(key: str, message: str) -> None:
        keyed.setdefault(key, message)
        problems.append(f"{key}: {message}")

    def check(key: str, ok: bool, message: str) -> None:
        if not ok and key not in keyed:
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
        for key in parser.options(section) if key not in _KEYS.get(section, ())
    )

    def parse(section: str, key: str, raw: str):
        """raw parsed as the key's type, or nan once reported as bad (the
        owner's own check of a nan adds nothing: the key has failed)."""
        kind = _KEYS[section][key]
        try:
            return kind(raw)
        except ValueError:
            report(f"{section}.{key}", f"must be {_WHAT[kind]}, got {raw!r}")
            return (math.nan,) if kind is _numbers else math.nan

    def get(section: str, key: str):
        """A value load_config owns: the file's, else its _DEFAULTS entry."""
        if parser.has_option(section, key):
            return parse(section, key, parser.get(section, key).strip())
        if key in _DEFAULTS.get(section, ()):
            return _DEFAULTS[section][key]
        report(f"{section}.{key}", "missing required key")
        return math.nan

    def given(section: str) -> dict:
        """The keys without a _DEFAULTS entry that the file sets, parsed
        for their owner; an `auto` or empty value counts as unset."""
        raws = ((key, parser.get(section, key, fallback="").strip()) for key in _KEYS[section]
                if key not in _DEFAULTS.get(section, ()))
        return {key: parse(section, key, raw) for key, raw in raws if raw not in ("", "auto")}

    if not parser.has_section("grid"):
        problems.append("missing required section [grid]")
    n, R, N = (get("grid", key) for key in ("n", "R", "N"))
    grid = build("grid", make_grid, n, R, N)
    if "grid.n" not in keyed and n < 5:
        warnings.append(f"grid.n={n} is outside the paper's n >= 5 blowup regime; "
                        "lower dimensions are supported as comparison studies")

    base_kind = get("base", "kind")
    base_params = build("base", check_base, base_kind, grid, **given("base"))

    gamma = get("family", "gamma")
    auto = parser.get("family", "eta", fallback="").strip() == "auto"
    etas = () if auto else get("family", "eta")
    build("family", check_family, gamma, etas)
    eta_count = get("family", "eta_count")
    check("family.eta_count", eta_count >= 1, f"must be >= 1, got {eta_count}")

    # no stepper default depends on the grid, so a bad grid skips no check
    stepper_values = given("stepper")
    stepper = build("stepper", default_stepper_config, grid, get("stepper", "t_end"),
                    **stepper_values)
    max_steps = get("stepper", "max_steps")
    check("stepper.max_steps", max_steps >= 1, f"must be >= 1, got {max_steps}")

    probe = None
    if grid is not None:  # the probe checks are relative to n and R
        probe = build("probe", ProbeConfig, n=grid.n, R=grid.R, **given("probe"))

    outdir = get("run", "outdir")
    snapshot_every = get("run", "snapshot_every")
    workers = get("run", "workers")
    check("run.workers", workers >= 1, f"must be >= 1, got {workers}")
    check("run.snapshot_every", snapshot_every >= 0, f"must be >= 0, got {snapshot_every}")

    sweep_axes: dict = {}
    if parser.has_section("sweep"):
        for key, raw in parser.items("sweep"):
            values = [x.strip() for x in raw.split(",") if x.strip()]
            if not values:
                problems.append(f"sweep.{key}: has no values")
            section, dot, name = key.partition(".")
            if not dot:
                problems.append(f"sweep.{key}: axis must be a dotted section.key name")
            elif name not in _KEYS.get(section, ()):
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
