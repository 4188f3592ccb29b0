"""Flat key=value run configuration with environment and flag overrides.

The on-disk format is one `section.key = value` pair per line, `#`
comments allowed; no nesting and no library dependence.  Every key can
also be set through the environment as MILDFLOW_<KEY> with dots
replaced by underscores (MILDFLOW_CLOUD_NU=2 overrides cloud.nu), and
programmatic overrides win over both; a caller's own defaults sit below
the file.  Unknown keys are rejected, and validation names the offending
key together with the violated constraint.
"""

import os
from dataclasses import dataclass, fields
from math import inf, isfinite, pi

from .exponents import ExponentError, quasilinear_recipe, semilinear_recipe
from .propagators import MAX_PROPAGATOR_BYTES
from .solver import INTEGRATORS, MAX_STEPS

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


def _read_file(path: str) -> dict:
    pairs = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(
                    f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            if key not in KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key '{key}'")
            pairs[key] = raw
    return pairs


def _pairs(entries) -> dict:
    """'key=value' strings as key -> raw value, every key checked."""
    pairs = {}
    for entry in entries:
        if "=" not in entry:
            raise ConfigError(f"override {entry!r} must look like key=value")
        key, value = (part.strip() for part in entry.split("=", 1))
        if key not in KEYS:
            raise ConfigError(f"unknown config key '{key}'")
        pairs[key] = value
    return pairs


def parse_config(path=None, overrides=None, environ=None,
                 defaults=None) -> RunConfig:
    """Assemble a RunConfig from file, environment and explicit overrides.

    Precedence: built-in defaults < `defaults` < file < environment <
    overrides.  `defaults` (a command's own starting values) and
    `overrides` are iterables of 'key=value' strings.  The result is
    fully validated; every violation is reported with its key.
    """
    environ = os.environ if environ is None else environ
    raw = _pairs(defaults or ())
    if path is not None:
        raw.update(_read_file(path))
    for key in KEYS:
        value = environ.get(env_name(key))
        if value is not None:
            raw[key] = value
    raw.update(_pairs(overrides or ()))

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


# recipe violations start with the exponent they bound; the rest (the
# exponent tuple the recipe derives) follow from kappa and p together
_RECIPE_KEYS = {"kappa": "heat.kappa", "p": "heat.p", "tau": "heat.tau"}


def _recipe_window(problems, recipe, *args) -> None:
    """Run the critical-exponent recipe the heat model constructor runs and
    report each violation under its configuration key."""
    try:
        recipe(*args)
    except ExponentError as err:
        for violation in err.violations:
            key = _RECIPE_KEYS.get(violation.split()[0], "heat.kappa, heat.p")
            problems.append(f"{key}: {violation}")


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
    """Re-check every module invariant the configuration touches."""
    problems = []
    for key, attr in KEYS.items():
        value = getattr(config, attr)
        problem = _key_problem(key, value)
        if problem:
            problems.append(f"{key}: {problem}, got {value!r}")

    def require(condition, key, constraint):
        if not condition:
            problems.append(f"{key}: {constraint}")

    # the step plan, wherever the quotient exists: a zero or nan step has
    # failed its own bound already, an infinite one fails here as well
    dt, t_end = config.solver_dt, config.solver_t_end
    if dt > 0.0 and t_end > 0.0:
        require(dt <= t_end and t_end / dt <= MAX_STEPS, "solver.dt, solver.t_end",
                f"need dt <= t_end <= {MAX_STEPS:,} dt, "
                f"got dt={dt}, t_end={t_end}")

    if config.model == "heat-semilinear":
        _recipe_window(problems, semilinear_recipe, 1, config.heat_p,
                       config.heat_kappa)
    elif config.model == "heat-quasilinear":
        _recipe_window(problems, quasilinear_recipe, 1, config.heat_p,
                       config.heat_kappa, config.heat_tau)
    elif config.model == "heat-periodic":
        # no recipe for the periodic surrogate; both kinds need kappa > 3
        # (for the semilinear kind that is the floor 1 + 2/n at n = 1)
        require(config.heat_kappa > 3.0, "heat.kappa",
                f"{config.heat_kind} periodic model needs kappa > 3, "
                f"got {config.heat_kappa}")
        require(config.heat_kind != "quasilinear"
                or 0.0 < config.heat_tau < 1.0, "heat.tau",
                f"must lie in (0, 1), got {config.heat_tau}")

    # propagator and basis storage of the configured model
    keys, size = {
        # eigenvectors, their inverses and three step factors of the
        # modes n = 0..nx/2, complex
        "cloud": ("grid.nx, grid.ny",
                  5 * (config.grid_nx // 2 + 1) * (config.grid_ny - 2) ** 2 * 16),
        # basis, derivative, generator and eigenvector matrices, float64
        "heat-quasilinear": ("heat.points", 6 * config.heat_points ** 2 * 8),
        # sine synthesis and analysis matrices, float64
        "heat-semilinear": ("heat.intervals", 2 * config.heat_intervals ** 2 * 8),
        # the complex n x (n/2+1) basis of the scaling resampler (the
        # generator itself is a multiplier)
        "heat-periodic": ("grid.n",
                          16 * config.grid_n * (config.grid_n // 2 + 1)),
    }.get(config.model, ("model", 0))
    gib = size / 2 ** 30 if size < 2 ** 1000 else inf
    require(size <= MAX_PROPAGATOR_BYTES, keys,
            f"propagator storage would take about {gib:.3g} GiB, "
            f"more than the {MAX_PROPAGATOR_BYTES / 2 ** 30:g} GiB limit")

    if problems:
        raise ConfigError("; ".join(problems))


def config_echo(config: RunConfig) -> dict:
    """Flat, sorted key -> value mapping for embedding in summaries."""
    return {key: getattr(config, attr) for key, attr in sorted(KEYS.items())}
