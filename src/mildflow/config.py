"""Flat key=value run configuration with environment and flag overrides.

The on-disk format is one `section.key = value` pair per line, `#`
comments allowed; no nesting and no library dependence.  Every key can
also be set through the environment as MILDFLOW_<KEY> with dots
replaced by underscores (MILDFLOW_CLOUD_NU=2 overrides cloud.nu), and
programmatic overrides win over both; a caller's own defaults sit below
the file.  Unknown keys are rejected, and validation names the offending
key together with the violated constraint.  Every key must be well
formed, read or not; a rule that ties keys to a piece of work (the step
plan, a storage limit, a model's exponent window) is checked by that
work.
"""

import os
from dataclasses import dataclass, fields
from math import isfinite, pi

from .solver import INTEGRATORS

ENV_PREFIX = "MILDFLOW_"


class ConfigError(ValueError):
    """Bad key, bad value or violated constraint in a run configuration."""


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


@dataclass
class RunConfig:
    """Validated parameters of one CLI run; construct via parse_config."""

    model: str = "cloud"
    cloud_nu: float = 1.0
    cloud_eta: float = 0.0
    cloud_beta: float = 1.0
    heat_kind: str = "semilinear"
    heat_kappa: float = 6.0
    heat_p: float = 2.0
    heat_tau: float = 0.27
    heat_a0: float = 1.0
    heat_a_kind: str = "one_plus_square"
    heat_intervals: int = 64
    heat_points: int = 65
    heat_diffusion: float = 1.0
    grid_nx: int = 64
    grid_ny: int = 48
    grid_lx: float = 2.0 * pi
    grid_periodic: bool = True
    grid_half_width: float = 8.0 * pi
    grid_n: int = 256
    solver_dt: float = 1e-3
    solver_t_end: float = 1.0
    solver_integrator: str = "etdrk2"
    solver_record_every: int = 1
    solver_snapshot_every: int = 0
    solver_blowup_factor: float = 1e6
    init_kind: str = "mode"
    init_amplitude: float = 1e-2
    run_seed: int = 0
    run_out: str = "run"


# config keys are the dataclass fields with the first underscore dotted:
# cloud_nu <-> cloud.nu, run_seed <-> run.seed, model <-> model
KEYS = {field.name.replace("_", ".", 1): field.name
        for field in fields(RunConfig)}

# Single-key constraints, checked by validate_config for every key:
# allowed values; lower bounds as (bound, whether the bound itself is
# admissible); keys that must be even.  Every float key must also be
# finite, except blowup_factor, whose infinity switches the threshold off.
CHOICES = {
    "model": ("cloud", "heat-semilinear", "heat-quasilinear", "heat-periodic"),
    "init.kind": ("zero", "mode", "random"),
    "solver.integrator": INTEGRATORS,
    "heat.kind": ("semilinear", "quasilinear"),
    "heat.a_kind": ("constant", "one_plus_square"),
}
LOWER_BOUNDS = {
    "cloud.nu": (0, False),
    "grid.nx": (8, True),
    "grid.ny": (8, True),
    "grid.lx": (0, False),
    "grid.half_width": (0, False),
    "grid.n": (16, True),
    "solver.dt": (0, False),
    "solver.t_end": (0, False),
    "solver.record_every": (1, True),
    "solver.snapshot_every": (0, True),
    "solver.blowup_factor": (1, False),
    "init.amplitude": (0, True),
    "run.seed": (0, True),
    "heat.a0": (0, False),
    "heat.diffusion": (0, False),
    "heat.intervals": (8, True),
    "heat.points": (9, True),
    "heat.p": (1, True),
}
EVEN_KEYS = ("grid.nx", "grid.n")

_CONVERTERS = {bool: _parse_bool, int: int, float: float, str: str}


def env_name(key: str) -> str:
    return ENV_PREFIX + key.upper().replace(".", "_")


def _convert(key: str, raw: str, kind):
    try:
        return _CONVERTERS[kind](raw)
    except ValueError:
        raise ConfigError(
            f"{key}: cannot parse {raw!r} as {kind.__name__}") from None


def _pairs(entries) -> dict:
    """(location, 'key = value') entries as key -> raw value, every key
    checked; errors name the entry's location."""
    pairs = {}
    for where, entry in entries:
        if "=" not in entry:
            raise ConfigError(f"{where}: expected 'key = value', got {entry!r}")
        key, value = (part.strip() for part in entry.split("=", 1))
        if key not in KEYS:
            raise ConfigError(f"{where}: unknown config key '{key}'")
        pairs[key] = value
    return pairs


def parse_config(path=None, overrides=None, environ=None,
                 defaults=None) -> RunConfig:
    """Assemble a RunConfig from file, environment and explicit overrides.

    Precedence: built-in defaults < `defaults` < file < environment <
    overrides.  `defaults` (a command's own starting values) and
    `overrides` are iterables of 'key=value' strings.  Every key of the
    result obeys its own rules; every violation is reported with its key.
    """
    environ = os.environ if environ is None else environ
    raw = _pairs(("default", entry) for entry in defaults or ())
    if path is not None:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [(f"{path}:{lineno}", line.split("#", 1)[0].strip())
                     for lineno, line in enumerate(handle, start=1)]
        raw.update(_pairs(line for line in lines if line[1]))
    for key in KEYS:
        value = environ.get(env_name(key))
        if value is not None:
            raw[key] = value
    raw.update(_pairs(("override", entry) for entry in overrides or ()))

    config = RunConfig()
    field_types = {field.name: field.type for field in fields(RunConfig)}
    for key, raw_value in raw.items():
        attr = KEYS[key]
        setattr(config, attr, _convert(key, raw_value, field_types[attr]))
    if "heat.p" not in raw and config.model == "heat-quasilinear":
        # the shared default p = 2 is outside the quasilinear window p > 2n;
        # take the default of QuasilinearHeatModel instead
        config.heat_p = 2.5
    validate_config(config)
    return config


def _key_problem(key: str, value) -> str:
    """The first single-key constraint `value` violates, or ''."""
    if key in CHOICES and value not in CHOICES[key]:
        return f"must be one of {', '.join(CHOICES[key])}"
    if (isinstance(value, float) and not isfinite(value)
            and key != "solver.blowup_factor"):
        return "must be finite"
    if key not in LOWER_BOUNDS:
        return ""
    bound, admissible = LOWER_BOUNDS[key]
    if not (value >= bound if admissible else value > bound):
        if bound == 0:
            return "must be nonnegative" if admissible else "must be positive"
        return f"must be at least {bound}" if admissible else f"must exceed {bound}"
    if key in EVEN_KEYS and value % 2:
        return "must be even"
    return ""


def validate_config(config: RunConfig) -> None:
    """Check every key's own constraints; report every violation under
    its key."""
    problems = []
    for key, attr in KEYS.items():
        value = getattr(config, attr)
        problem = _key_problem(key, value)
        if problem:
            problems.append(f"{key}: {problem}, got {value!r}")
    if problems:
        raise ConfigError("; ".join(problems))


def config_echo(config: RunConfig) -> dict:
    """Flat, sorted key -> value mapping for embedding in summaries."""
    return {key: getattr(config, attr) for key, attr in sorted(KEYS.items())}
