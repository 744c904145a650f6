"""Sectioned key-value run configuration.

INI-style sections mirror the module names ([grid], [base], [family],
[stepper], [probe], [run], [sweep]).  Loading validates every constraint
and reports all violations at once; sub-blowup-regime dimensions
(2 <= n < 5), unknown keys and sweep axes naming no known key only warn.
Dotted overrides (--set section.key=value) are applied before validation.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from .errors import ConfigurationError

__all__ = ["RunConfig", "load_config", "parse_overrides", "resolve_output_dir"]

OUTPUT_ROOT_ENV = "RADKS_OUTPUT_ROOT"

_DEFAULTS = {
    "base": {"kind": "constant", "value": "1.0", "baseline": "1.0",
             "amplitude": "0.0", "width": "0.25", "v_mode": "flat", "path": ""},
    "family": {"gamma": "1.5", "eta": "auto", "eta_count": "4"},
    "stepper": {"cfl": "0.9", "dt_init": "auto", "dt_min": "auto", "dt_max": "1e-2",
                "t_end": "1.0", "blowup_factor": "1e6", "output_every": "10",
                "max_steps": "5000000"},
    "probe": {"kappa": "auto", "beta": "auto", "theta": "auto", "rho": "0.25,0.5,0.75"},
    "run": {"outdir": "out", "snapshot_every": "0", "workers": "1"},
}
# every key load_config reads: the [grid] keys (no default) and the defaulted ones
_KNOWN_KEYS = {("grid", "n"), ("grid", "R"), ("grid", "N")}.union(
    (section, key) for section, keys in _DEFAULTS.items() for key in keys)


@dataclass
class RunConfig:
    """Validated run parameters plus any non-fatal warnings."""

    n: int
    R: float
    N: int
    base_kind: str
    base_params: dict
    gamma: float
    eta_spec: str            # "auto" or a comma list of scales
    eta_count: int
    cfl: float
    dt_init: str | float     # "auto" defers to the grid-derived default
    dt_min: str | float
    dt_max: float
    t_end: float
    blowup_factor: float
    output_every: int
    max_steps: int
    kappa: str | float
    beta: str | float
    theta: str | float
    rho: tuple
    outdir: str
    snapshot_every: int
    workers: int
    sweep_axes: dict = dc_field(default_factory=dict)
    warnings: list = dc_field(default_factory=list)
    source_path: str = ""

    def stepper_kwargs(self) -> dict:
        kw = dict(
            cfl=self.cfl,
            dt_max=self.dt_max,
            t_end=self.t_end,
            blowup_factor=self.blowup_factor,
            output_every=self.output_every,
        )
        if self.dt_min != "auto":
            kw["dt_min"] = float(self.dt_min)
        if self.dt_init != "auto":
            kw["dt_init"] = float(self.dt_init)
        return kw


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
    """Parse and validate; raises ConfigurationError listing every violation."""
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file {path} does not exist")
    problems: list[str] = []
    warnings: list[str] = []
    _check_version_line(path, problems)

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
        problems.append(f"missing required key {section}.{key}")
        return ""

    def get_int(section: str, key: str):
        raw = get(section, key)
        if raw == "":
            return None
        try:
            return int(raw)
        except ValueError:
            problems.append(f"{section}.{key} must be an integer, got {raw!r}")
            return None

    def get_float(section: str, key: str, allow_auto: bool = False):
        raw = get(section, key)
        if raw == "":
            return None
        if allow_auto and raw == "auto":
            return "auto"
        try:
            return float(raw)
        except ValueError:
            problems.append(f"{section}.{key} must be a number, got {raw!r}")
            return None

    if not parser.has_section("grid"):
        problems.append("missing required section [grid]")
    n = get_int("grid", "n")
    R = get_float("grid", "R")
    N = get_int("grid", "N")

    base_kind = get("base", "kind")
    base_params = {
        "value": get_float("base", "value"),
        "baseline": get_float("base", "baseline"),
        "amplitude": get_float("base", "amplitude"),
        "width": get_float("base", "width"),
        "v_mode": get("base", "v_mode"),
        "path": get("base", "path"),
    }
    if base_params["v_mode"] not in ("flat", "relaxed"):
        problems.append(
            f"base.v_mode must be flat or relaxed, got {base_params['v_mode']!r}"
        )
    gamma = get_float("family", "gamma")
    eta_spec = get("family", "eta")
    eta_count = get_int("family", "eta_count")
    cfl = get_float("stepper", "cfl")
    dt_init = get_float("stepper", "dt_init", allow_auto=True)
    dt_min = get_float("stepper", "dt_min", allow_auto=True)
    dt_max = get_float("stepper", "dt_max")
    t_end = get_float("stepper", "t_end")
    blowup_factor = get_float("stepper", "blowup_factor")
    output_every = get_int("stepper", "output_every")
    max_steps = get_int("stepper", "max_steps")
    kappa = get_float("probe", "kappa", allow_auto=True)
    beta = get_float("probe", "beta", allow_auto=True)
    theta = get_float("probe", "theta", allow_auto=True)
    rho_raw = get("probe", "rho")
    outdir = get("run", "outdir")
    snapshot_every = get_int("run", "snapshot_every")
    workers = get_int("run", "workers")

    rho: tuple = ()
    if rho_raw:
        try:
            rho = tuple(float(x) for x in rho_raw.split(",") if x.strip())
        except ValueError:
            problems.append(f"probe.rho must be a comma list of numbers, got {rho_raw!r}")

    # Constraint validation (collect everything, fail once).
    if n is not None:
        if n < 2:
            problems.append(f"grid.n must be >= 2, got {n}")
        elif n < 5:
            warnings.append(
                f"grid.n={n} is below the n >= 5 blowup regime; run is fine for testing"
            )
    if N is not None and N < 4:
        problems.append(f"grid.N must be >= 4, got {N}")
    if R is not None and not R > 0:
        problems.append(f"grid.R must be positive, got {R}")
    if base_kind not in ("constant", "bump", "custom"):
        problems.append(f"base.kind must be constant|bump|custom, got {base_kind!r}")
    if base_kind == "custom":
        p = base_params["path"]
        if not p:
            problems.append("base.kind=custom requires base.path")
        elif not Path(p).is_file():
            problems.append(f"base.path {p!r} is not a readable file")
    if gamma is not None and not gamma > 1.0:
        problems.append(f"family.gamma must exceed 1, got {gamma}")
    if eta_spec != "auto":
        try:
            etas = [float(x) for x in eta_spec.split(",") if x.strip()]
            if not etas:
                problems.append("family.eta must be 'auto' or a nonempty comma list")
            elif any(not 0.0 < e < 1.0 for e in etas):
                problems.append(f"family.eta entries must lie in (0, 1), got {etas}")
        except ValueError:
            problems.append(f"family.eta must be 'auto' or numbers, got {eta_spec!r}")
    if eta_count is not None and eta_count < 1:
        problems.append(f"family.eta_count must be >= 1, got {eta_count}")
    if cfl is not None and not 0.0 < cfl <= 1.0:
        problems.append(f"stepper.cfl must lie in (0, 1], got {cfl}")
    if dt_max is not None and not dt_max > 0:
        problems.append(f"stepper.dt_max must be positive, got {dt_max}")
    if t_end is not None and not t_end > 0:
        problems.append(f"stepper.t_end must be positive, got {t_end}")
    if blowup_factor is not None and not blowup_factor > 1:
        problems.append(f"stepper.blowup_factor must exceed 1, got {blowup_factor}")
    if output_every is not None and output_every < 1:
        problems.append(f"stepper.output_every must be >= 1, got {output_every}")
    if max_steps is not None and max_steps < 1:
        problems.append(f"stepper.max_steps must be >= 1, got {max_steps}")
    if n is not None and isinstance(kappa, float) and not kappa > n - 2:
        problems.append(f"probe.kappa must exceed n-2={n-2}, got {kappa}")
    if n is not None and isinstance(beta, float) and not beta > n - 2:
        problems.append(f"probe.beta must exceed n-2={n-2}, got {beta}")
    if R is not None and rho and any(not 0.0 < x < R for x in rho):
        problems.append(f"probe.rho entries must lie in (0, R={R}), got {list(rho)}")
    if workers is not None and workers < 1:
        problems.append(f"run.workers must be >= 1, got {workers}")
    if snapshot_every is not None and snapshot_every < 0:
        problems.append(f"run.snapshot_every must be >= 0, got {snapshot_every}")

    sweep_axes: dict = {}
    if parser.has_section("sweep"):
        for key, raw in parser.items("sweep"):
            values = [x.strip() for x in raw.split(",") if x.strip()]
            if not values:
                problems.append(f"sweep.{key} has no values")
            if "." not in key:
                problems.append(f"sweep axis {key!r} must be a dotted section.key name")
            elif tuple(key.split(".", 1)) not in _KNOWN_KEYS:
                warnings.append(f"sweep axis {key} names no known key; its values change nothing")
            sweep_axes[key] = values

    if problems:
        raise ConfigurationError(
            f"{path}: {len(problems)} violation(s):\n  - " + "\n  - ".join(problems)
        )

    return RunConfig(
        n=n, R=R, N=N,
        base_kind=base_kind, base_params=base_params,
        gamma=gamma, eta_spec=eta_spec, eta_count=eta_count,
        cfl=cfl, dt_init=dt_init, dt_min=dt_min, dt_max=dt_max,
        t_end=t_end, blowup_factor=blowup_factor, output_every=output_every,
        max_steps=max_steps,
        kappa=kappa, beta=beta, theta=theta, rho=rho,
        outdir=outdir, snapshot_every=snapshot_every, workers=workers,
        sweep_axes=sweep_axes, warnings=warnings, source_path=str(path),
    )


def resolve_output_dir(cfg: RunConfig) -> Path:
    """outdir, optionally rooted at $RADKS_OUTPUT_ROOT."""
    root = os.environ.get(OUTPUT_ROOT_ENV)
    out = Path(cfg.outdir)
    if root and not out.is_absolute():
        out = Path(root) / out
    return out
