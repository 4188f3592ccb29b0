"""Command-line front end.

Every command is one row of COMMANDS.  A configured command reads the
flat key=value configuration (file, MILDFLOW_* environment, --set
overrides, flags), runs one experiment, and writes its outputs
atomically under the run directory.  Its row lists the configuration
keys it takes as flags, and each flag is named by its key (`_flag`); a
command that runs one model fixes it above every layer.  The lab and
exponents commands take plain arguments instead.  `_run` alone makes
the run directory, writes summary.json and prints.  Identical
configuration and seed give byte-identical outputs, so no timestamps or
machine identifiers enter any file.

Exit codes: 0 success (a detected blow-up is a successful run, recorded
in the summary), 2 constraint or configuration infeasibility or a file
that cannot be read or written, 1 numerical failure or a closed stdout.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .cloud import (CloudCoefficients, CloudModel, analytic_bound_nonperiodic,
                    mode_spectra, periodic_stability_margin)
from .config import (CHOICES, KEYS, ConfigError, RunConfig, config_echo,
                     parse_config)
from .exponents import ExponentError, quasilinear_recipe, semilinear_recipe
from .heat import (HEAT_P, DiffusivitySpec, PeriodicGrid, PeriodicHeatModel,
                   QuasilinearHeatModel, SemilinearHeatModel,
                   scaling_roundtrip_test)
from .io import (json_text, sigma_label, write_csv, write_json, write_series,
                 write_snapshot)
from .lab import contraction_experiment, decay_experiment
from .propagators import require_storage
from .solver import SolverConfig, fit_decay_rate, run_simulation
from .strip import (dirichlet_mode_field, open_strip, periodic_strip,
                    random_dirichlet_field, to_grid)

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONSTRAINT = 2


# ---------------------------------------------------------------- helpers

def _geometry(config: RunConfig):
    if config.grid_periodic:
        return periodic_strip(config.grid_nx, config.grid_ny)
    return open_strip(config.grid_nx, config.grid_ny,
                      half_length=config.grid_lx / 2.0)


def _cloud_coeffs(config: RunConfig) -> CloudCoefficients:
    return CloudCoefficients(nu=config.cloud_nu, eta=config.cloud_eta,
                             beta=config.cloud_beta)


def _series(basis, coeffs):
    """x -> sum_m coeffs[m] basis((m + 1) pi x)."""
    return lambda x: sum(c * basis((m + 1) * np.pi * x)
                         for m, c in enumerate(coeffs))


def _build_model_and_state(config: RunConfig):
    """Model, initial state, and the snapshot metadata of `_write_snapshots`."""
    rng = np.random.default_rng(config.run_seed)
    random = config.init_kind == "random"

    if config.model == "cloud":
        geometry = _geometry(config)
        model = CloudModel(_cloud_coeffs(config), geometry)
        state = model.state_from_field(
            random_dirichlet_field(geometry, rng) if random
            else dirichlet_mode_field(geometry, n=1, m=1))
        meta = (lambda st: to_grid(model.field_from_state(st), geometry),
                2.0 * geometry.half_length, int(geometry.periodic_x))
    elif config.model == "heat-periodic":
        grid = PeriodicGrid(half_width=config.grid_half_width, n=config.grid_n)
        model = PeriodicHeatModel(grid, kind=config.heat_kind,
                                  kappa=config.heat_kappa,
                                  diffusion=config.heat_diffusion)
        x = grid.nodes
        if random:
            k0 = math.pi / grid.half_width
            values = np.zeros(grid.n)
            for j in range(1, 7):
                a, b = rng.standard_normal(2)
                values += (a * np.cos(j * k0 * x) + b * np.sin(j * k0 * x)) \
                    / (1.0 + j) ** 1.5
        else:
            values = np.exp(-0.5 * x ** 2)
        state = model.state_from_values(values)
        meta = (lambda st: model.values(st)[None, :], 2.0 * grid.half_width, 1)
    else:
        if config.model == "heat-semilinear":
            model = SemilinearHeatModel(intervals=config.heat_intervals,
                                        kappa=config.heat_kappa,
                                        p=config.heat_p)
            basis = np.sin
        else:
            spec = DiffusivitySpec(kind=config.heat_a_kind, a0=config.heat_a0)
            model = QuasilinearHeatModel(points=config.heat_points,
                                         kappa=config.heat_kappa,
                                         p=config.heat_p, tau=config.heat_tau,
                                         diffusivity=spec)
            basis = np.cos
        coeffs = (rng.standard_normal(5) / (1.0 + np.arange(5)) ** 1.5
                  if random else (1.0,))
        state = model.state_from_function(_series(basis, coeffs))
        meta = (lambda st: model.nodal_values(st)[None, :], 1.0, 0)

    # zero data, or the state scaled to H1 norm init.amplitude
    base = model.norm(state, 1.0)
    if config.init_kind == "zero" or base <= 0.0:
        state = np.zeros_like(state)
    else:
        state = state * (config.init_amplitude / base)
    return (model, state, *meta)


def _solver_config(config: RunConfig, **extra) -> SolverConfig:
    weighted = config.model == "cloud"
    return SolverConfig(
        dt=config.solver_dt,
        t_end=config.solver_t_end,
        integrator=config.solver_integrator,
        record_every=config.solver_record_every,
        monitor_sigmas=(0.0, 1.0, 1.5) if weighted else (0.0, 1.0),
        weighted_sigma=1.5 if weighted else None,
        weighted_mu=0.25 if weighted else 0.0,
        blowup_factor=config.solver_blowup_factor,
        **extra,
    )


def _write_snapshots(out_dir, config, trajectory, grid_values, lx, flags):
    # grid_values maps a state to its real field on the natural grid, two
    # dimensional; snapshot i is taken after step i * snapshot_every
    for i, (_, state) in enumerate(trajectory.snapshots):
        step = i * config.solver_snapshot_every
        path = os.path.join(out_dir, "snapshots", f"step_{step:08d}.bin")
        write_snapshot(path, grid_values(state), lx, flags)
    return len(trajectory.snapshots)


def _fit_record(trajectory, sigma: float, t_min: float):
    try:
        fit = fit_decay_rate(trajectory, sigma, t_min=t_min)
    except (KeyError, ValueError):
        return None
    return {**asdict(fit), "sigma": sigma, "t_min": t_min}


def _blowup_record(trajectory):
    if not trajectory.flagged:
        return None
    return {"time": trajectory.blowup_time, "reason": trajectory.blowup_reason}


# ------------------------------------------------ configured commands

def cmd_simulate(config: RunConfig, args) -> tuple:
    solver_cfg = _solver_config(  # checks the step plan first
        config, snapshot_every=config.solver_snapshot_every)
    model, u0, *snapshot_meta = _build_model_and_state(config)
    trajectory = run_simulation(model, u0, solver_cfg)

    write_series(os.path.join(config.run_out, "series.csv"), trajectory)
    n_snapshots = _write_snapshots(config.run_out, config, trajectory,
                                   *snapshot_meta)
    status = "blow-up flagged" if trajectory.flagged else "completed"
    return f"{status}: {trajectory.times.size} samples", {
        "model": config.model,
        "steps": trajectory.steps,
        "recorded_samples": int(trajectory.times.size),
        "snapshots": n_snapshots,
        "blowup": _blowup_record(trajectory),
        "final": {
            "time": trajectory.final_time,
            "norms": {sigma_label(s): float(v[-1])
                      for s, v in sorted(trajectory.norms.items())},
        },
        "fitted": (None if trajectory.flagged else _fit_record(
            trajectory, 1.0, 0.25 * config.solver_t_end)),
    }


def cmd_spectral_bound(config: RunConfig, args) -> tuple:
    geometry = _geometry(config)
    coeffs = _cloud_coeffs(config)
    n_max = args.n_max if args.n_max is not None else geometry.nx // 2
    if n_max < 0:
        raise ConfigError(f"--n-max must be nonnegative, got {n_max}")
    # complex stacks of the blocks and eigenvectors of 0..n_max
    keys = "grid.nx" if args.n_max is None else f"--n-max {n_max}"
    require_storage(2 * (n_max + 1) * (geometry.ny - 2) ** 2 * 16,
                    f"{keys}, grid.ny: the stacked mode blocks")

    top, condition, defective = mode_spectra(coeffs, geometry, n_max)

    if geometry.periodic_x:
        analytic = -periodic_stability_margin(coeffs)
    else:
        analytic = analytic_bound_nonperiodic(coeffs)

    bound = float(np.max(top.real))
    write_csv(os.path.join(config.run_out, "modes.csv"),
              ["n", "re_lambda_max", "im_lambda_at_max"],
              [np.arange(n_max + 1, dtype=float), top.real, top.imag])
    status = f"spectral bound {bound:.10g} (analytic bound {analytic:.10g})"
    return status, {
        "numeric_bound": bound,
        "analytic_bound": analytic,
        "n_max": n_max,
        "periodic": geometry.periodic_x,
        "max_eigenvector_condition": float(np.max(condition)),
        "defective_modes": np.flatnonzero(defective).tolist(),
    }


def cmd_decay_test(config: RunConfig, args) -> tuple:
    solver_cfg = _solver_config(config)
    if not config.grid_periodic:
        raise ConfigError("grid.periodic: the decay test runs on the "
                          "periodic strip; set grid.periodic = true")
    coeffs = _cloud_coeffs(config)
    margin = periodic_stability_margin(coeffs)
    if not margin > 0.0:
        raise ConfigError(
            "cloud coefficients violate the decay condition "
            "eta + beta^2/(16 nu) < pi^2 nu "
            f"(margin {margin:.6g}); no exponential decay to verify")

    model, u0, *_ = _build_model_and_state(config)
    if not np.any(u0):
        raise ConfigError("init.kind: decay test needs nonzero initial data")
    u0_h1 = model.norm(u0, 1.0)
    trajectory = run_simulation(model, u0, solver_cfg)

    fitted = None if trajectory.flagged else _fit_record(
        trajectory, 1.0, min(1.0, 0.2 * config.solver_t_end))
    if fitted is None and not trajectory.flagged:
        raise ConfigError("solver.t_end, solver.dt, solver.record_every: the "
                          "decay fit needs at least 10 samples after t_min")
    write_series(os.path.join(config.run_out, "series.csv"), trajectory)
    decays = fitted is not None and fitted["rate"] > 0.0
    weighted_sup = None
    if decays:
        # sup_t e^{rate t / 2} (|u|_H1 + t^{1/4} |u|_H1.5), the weighted
        # quantity the mild-solution bound controls by a fixed multiple
        # of the initial H1 norm
        quotient = np.exp(0.5 * fitted["rate"] * trajectory.times) \
            * (trajectory.norms[1.0] + trajectory.weighted)
        weighted_sup = float(np.max(quotient))
    status = (f"blow-up flagged at t = {trajectory.blowup_time:.6g} "
              f"({trajectory.blowup_reason})" if trajectory.flagged else
              f"fitted decay rate {fitted['rate']:.6g} "
              f"(guaranteed margin {margin:.6g})")
    return status, {
        "stability_margin": margin,
        "initial_h1": u0_h1,
        "blowup": _blowup_record(trajectory),
        "fitted": fitted,
        "weighted_sup": weighted_sup,
        "bound_factor": None if weighted_sup is None else weighted_sup / u0_h1,
        "decays": decays,
    }


def cmd_scaling_test(config: RunConfig, args) -> tuple:
    if not 0.0 < args.lam < np.inf:  # the negated form refuses NaN too
        raise ValueError(f"--lambda: must be positive and finite, got {args.lam}")
    grid = PeriodicGrid(half_width=config.grid_half_width, n=config.grid_n)
    u0 = config.init_amplitude * np.exp(-0.5 * grid.nodes ** 2)

    reports = {}
    for label, nonlinear in (("nonlinear", True), ("linear", False)):
        reports[label] = asdict(scaling_roundtrip_test(
            u0, args.lam, config.solver_t_end, config.solver_dt,
            config.solver_integrator, grid,
            model_kind=config.heat_kind, kappa=config.heat_kappa,
            diffusion=config.heat_diffusion, nonlinear=nonlinear))
    status = (f"scaling roundtrip at lambda={args.lam:g}: nonlinear "
              f"{reports['nonlinear']['discrepancy']:.3e}, pure heat "
              f"{reports['linear']['discrepancy']:.3e}")
    return status, {"lambda": args.lam, "kind": config.heat_kind,
                    "kappa": config.heat_kappa, **reports}


# ------------------------------------------------ lab and exponents

def _require_seed(args) -> None:
    if args.seed < 0:  # numpy's generator refuses it too, but unnamed
        raise ValueError(f"--seed: must be nonnegative, got {args.seed}")


def cmd_lab_contraction(args) -> dict:
    _require_seed(args)
    return contraction_experiment(dim=args.dim, seed=args.seed)


def cmd_lab_decay(args) -> dict:
    _require_seed(args)
    return decay_experiment(dim=args.dim, seed=args.seed, varpi=args.varpi,
                            epsilon=args.epsilon)


def cmd_exponents(args) -> dict:
    p = HEAT_P[args.kind] if args.p is None else args.p
    try:
        if args.kind == "semilinear":
            recipe = semilinear_recipe(args.n, p, args.kappa)
        else:
            recipe = quasilinear_recipe(args.n, p, args.kappa, args.tau)
    except ExponentError as err:
        raise _by_key(err, _flag) from None
    return {"kind": args.kind, **recipe.report()}


# ---------------------------------------------------------- command table

# options of the flags that are not a plain `--key VALUE` with the
# key's choices
FLAG_OPTIONS = {
    "run.out": {"help": "run directory for outputs"},
    "grid.lx": {"help": "length of the open strip (default 2 pi, half-length pi)"},
    "grid.n": {"help": "grid points on the periodic line"},
    "grid.periodic": {"action": "store_const", "const": "false",
                      "help": "use the truncated open strip instead of periodic"},
}
# flags not named by the last part of their key (--kind is heat.kind's)
FLAG_NAMES = {"init.kind": "--init", "grid.periodic": "--open"}
# help of the command groups, the first parts of two-part command paths
GROUPS = {"lab": "matrix fixed-point laboratory"}


def _flag(key: str) -> str:
    """The flag of a configuration key: its FLAG_NAMES entry, else its
    last part with dashes (grid.half_width gives --half-width)."""
    return FLAG_NAMES.get(key) or "--" + key.rsplit(".", 1)[-1].replace("_", "-")


class Command(NamedTuple):
    """A command: its help, its handler and the arguments it takes
    outside the configuration.  A configured command also lists the
    configuration keys it takes as flags (space separated), its own
    defaults (above the built-in ones, below the file and the
    environment) and the model it runs if it runs only one (above every
    layer); its handler maps (configuration, arguments) to (status line,
    summary fields).  With keys None the handler maps the arguments
    alone to its report.  No handler prints or writes the summary."""

    help: str
    handler: Callable
    keys: Optional[str] = None
    defaults: tuple = ()
    model: Optional[str] = None
    arguments: tuple = ()


COMMANDS = {
    ("simulate",): Command(
        "time-march the configured model", cmd_simulate, " ".join(KEYS)),
    ("spectral-bound",): Command(
        "max real part of the mode-operator spectra", cmd_spectral_bound,
        "run.out grid.periodic cloud.nu cloud.eta cloud.beta grid.lx grid.nx "
        "grid.ny", model="cloud",
        arguments=(("--n-max", {"type": int,
                                "help": "largest mode index to assemble"}),)),
    ("decay-test",): Command(
        "verify exponential decay on the periodic strip", cmd_decay_test,
        "run.out cloud.nu cloud.eta cloud.beta grid.nx grid.ny solver.t_end "
        "solver.dt solver.integrator solver.record_every solver.blowup_factor "
        "init.amplitude init.kind run.seed",
        defaults=("solver.t_end=5.0",), model="cloud"),
    ("scaling-test",): Command(
        "self-similar scaling roundtrip of the periodic heat model",
        cmd_scaling_test,
        "run.out heat.kind heat.kappa heat.diffusion solver.t_end solver.dt "
        "solver.integrator init.amplitude grid.half_width grid.n",
        defaults=("heat.kappa=5.0", "solver.t_end=0.5", "init.amplitude=0.5"),
        model="heat-periodic",
        arguments=(("--lambda", {"dest": "lam", "type": float, "default": 2.0,
                                 "help": "scaling factor"}),)),
    ("lab", "contraction"): Command(
        "select contraction parameters and iterate", cmd_lab_contraction,
        arguments=(("--dim", {"type": int, "default": 8}),
                   ("--seed", {"type": int, "default": 0}),
                   ("--out", {"default": "run"}))),
    ("lab", "decay"): Command(
        "weighted exponential-decay verification", cmd_lab_decay,
        arguments=(("--dim", {"type": int, "default": 6}),
                   ("--seed", {"type": int, "default": 0}),
                   ("--varpi", {"type": float, "default": None,
                                "help": "decay rate to verify (default: "
                                        "half the spectral gap)"}),
                   ("--epsilon", {"type": float, "default": 0.5}),
                   ("--out", {"default": "run"}))),
    ("exponents",): Command(
        "critical exponent recipes for the heat models", cmd_exponents,
        arguments=(("kind", {"choices": CHOICES["heat.kind"]}),
                   ("--n", {"type": int, "default": 1,
                            "help": "space dimension"}),
                   ("--p", {"type": float, "help": "Lebesgue exponent"}),
                   ("--kappa", {"type": float, "default": RunConfig.heat_kappa,
                                "help": "nonlinearity power"}),
                   ("--tau", {"type": float, "default": RunConfig.heat_tau,
                              "help": "Hoelder index (quasilinear only)"}),
                   ("--out", {"default": None}))),
}


# the keys of each exponent a recipe's window bounds (the dimension is
# an argument of `exponents` alone); the rest of its violations (the
# exponent tuple it derives) follow from kappa and p
_RECIPE_KEYS = {"kappa": ("heat.kappa",), "p": ("heat.p",),
                "tau": ("heat.tau",), "n": ("n",), "dimension": ("n",)}


def _by_key(err: ExponentError, name: Callable = str) -> ConfigError:
    """err with each violation after the keys of the exponent it starts
    with, each key as `name` gives it (a key by default)."""
    named = []
    for violation in err.violations:
        keys = _RECIPE_KEYS.get(violation.split()[0], ("heat.kappa", "heat.p"))
        named.append(f"{', '.join(map(name, keys))}: {violation}")
    return ConfigError("; ".join(named))


def _run(args) -> int:
    """Run the parsed command, write its summary and print its result.

    A configured command's defaults sit below the file and the
    environment, the --set pairs above them and the flags above those;
    the model of a command that runs one comes last.  The run directory
    is made before any work, and on a failure the directories made for
    it are removed, innermost first, while empty.
    """
    spec = args.spec
    head = {"version": __version__, "command": args.label}
    inputs, out = (args,), getattr(args, "out", None)
    if spec.keys is not None:
        overrides = list(args.set)
        for key in spec.keys.split():
            value = getattr(args, KEYS[key])
            if value is not None:
                overrides.append(f"{key}={value}")
        if spec.model is not None:
            overrides.append(f"model={spec.model}")
        config = parse_config(args.config, overrides, defaults=spec.defaults)
        head["config"] = config_echo(config)
        inputs, out = (config, args), config.run_out
    made, missing = [], os.path.abspath(out or os.curdir)
    while not os.path.lexists(missing):  # what makedirs makes, innermost first
        made.append(missing)
        missing = os.path.dirname(missing)
    try:
        if out is not None:
            os.makedirs(os.path.abspath(out), exist_ok=True)
        try:
            result = spec.handler(*inputs)
        except ExponentError as err:  # a model checks its window when built
            raise (err if spec.keys is None else _by_key(err)) from None
        status, fields = (None, result) if spec.keys is None else result
        payload = {**head, **fields}
        path = None if out is None else os.path.join(out, "summary.json")
        if path is not None:
            write_json(path, payload)
    except BaseException:
        for directory in made:
            try:
                os.rmdir(directory)
            except OSError:  # never made, or made and not empty
                if os.path.isdir(directory):  # it and its parents stay
                    break
        raise
    print(json_text(payload) if status is None else f"{status} -> {path}")
    return EXIT_OK


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mildflow",
        description="spectral mild-solution simulator and verification lab "
                    "for critical parabolic equations")
    parser.add_argument("--version", action="version",
                        version=f"mildflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {(): sub}

    for path, spec in COMMANDS.items():
        if path[:-1] not in groups:
            group = sub.add_parser(path[0], help=GROUPS[path[0]])
            groups[path[:-1]] = group.add_subparsers(
                dest=f"{path[0]}_command", required=True)
        p = groups[path[:-1]].add_parser(path[-1], help=spec.help)
        if spec.keys is not None:
            p.add_argument("--config", metavar="FILE",
                           help="key = value configuration file")
            p.add_argument("--set", action="append", metavar="KEY=VALUE",
                           default=[], help="override one configuration key")
        for flag, options in spec.arguments:
            p.add_argument(flag, **options)
        for key in (spec.keys or "").split():
            # the value is passed on as text, so the configuration
            # converts and checks it under its key
            p.add_argument(_flag(key), dest=KEYS[key], **(
                FLAG_OPTIONS.get(key) or {"choices": CHOICES.get(key)}))
        p.set_defaults(spec=spec, label=" ".join(path))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = _run(args)
        sys.stdout.flush()  # a reader gone early shows here, not at exit
        return code
    except SystemExit as exc:  # argparse: usage errors, --help, --version
        return int(exc.code or 0)
    except BrokenPipeError:
        # quiet the exit-time flush of what is still buffered
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("broken pipe: stdout closed before the output was written",
              file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        # a --config file or run directory; after its subclass BrokenPipeError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except (FloatingPointError, RuntimeError, np.linalg.LinAlgError) as exc:
        # InstabilityError and FixedPointDivergence among them; before
        # ValueError, which LinAlgError subclasses
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        # ConfigError, ExponentError and InfeasibleProblem among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT


if __name__ == "__main__":
    raise SystemExit(main())
