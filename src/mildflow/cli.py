"""Command-line front end.

Every configured subcommand reads the same flat key=value configuration
(file, MILDFLOW_* environment, --set overrides, convenience flags), runs
one experiment, and writes its outputs atomically under the run
directory.  Each convenience flag is shorthand for one configuration key
and is declared once, in FLAGS; COMMANDS lists which flags each command
takes.  Identical configuration and seed give byte-identical outputs, so
no timestamps or machine identifiers enter any file.

Exit codes: 0 success (a detected blow-up is still a successful run and
is recorded in the summary), 2 constraint or configuration infeasibility,
1 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .cloud import (CloudCoefficients, CloudModel, analytic_bound_nonperiodic,
                    mode_spectra, periodic_stability_condition)
from .config import CHOICES, ConfigError, RunConfig, config_echo, parse_config
from .exponents import quasilinear_recipe, semilinear_recipe
from .heat import (DiffusivitySpec, PeriodicGrid, PeriodicHeatModel,
                   QuasilinearHeatModel, SemilinearHeatModel,
                   scaling_roundtrip_test)
from .io import (sigma_label, write_csv, write_json, write_series,
                 write_snapshot)
from .lab import contraction_experiment, decay_experiment
from .propagators import MAX_PROPAGATOR_BYTES
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
    """Model instance, initial state, and snapshot metadata (lx, flags)."""
    rng = np.random.default_rng(config.run_seed)
    random = config.init_kind == "random"

    if config.model == "cloud":
        geometry = _geometry(config)
        model = CloudModel(_cloud_coeffs(config), geometry)
        state = model.state_from_field(
            random_dirichlet_field(geometry, rng) if random
            else dirichlet_mode_field(geometry, n=1, m=1))
        meta = (2.0 * geometry.half_length, int(geometry.periodic_x))
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
        meta = (2.0 * grid.half_width, 1)
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
        meta = (1.0, 0)

    # zero data, or the state scaled to H1 norm init.amplitude
    base = model.norm(state, 1.0)
    if config.init_kind == "zero" or base <= 0.0:
        state = np.zeros_like(state)
    else:
        state = state * (config.init_amplitude / base)
    return (model, state, *meta)


def _solver_config(config: RunConfig) -> SolverConfig:
    weighted = config.model == "cloud"
    return SolverConfig(
        dt=config.solver_dt,
        t_end=config.solver_t_end,
        integrator=config.solver_integrator,
        record_every=config.solver_record_every,
        snapshot_every=config.solver_snapshot_every,
        monitor_sigmas=(0.0, 1.0, 1.5) if weighted else (0.0, 1.0),
        weighted_sigma=1.5 if weighted else None,
        weighted_mu=0.25 if weighted else None,
        blowup_factor=config.solver_blowup_factor,
    )


def _snapshot_values(config: RunConfig, model, state) -> np.ndarray:
    """Real-valued field on the natural grid, always two dimensional."""
    if config.model == "cloud":
        return to_grid(model.field_from_state(state))
    if config.model == "heat-periodic":
        return model.values(state)[None, :]
    return model.nodal_values(state)[None, :]


def _write_snapshots(out_dir, config, model, trajectory, lx, flags):
    # snapshot i is taken after step i * snapshot_every
    for i, (_, state) in enumerate(trajectory.snapshots):
        step = i * config.solver_snapshot_every
        path = os.path.join(out_dir, "snapshots", f"step_{step:08d}.bin")
        write_snapshot(path, _snapshot_values(config, model, state), lx, flags)
    return len(trajectory.snapshots)


def _fit_record(trajectory, sigma: float, t_min: float):
    try:
        fit = fit_decay_rate(trajectory, sigma, t_min=t_min)
    except (KeyError, ValueError):
        return None
    return {"rate": fit.rate, "amplitude": fit.amplitude,
            "residual": fit.residual, "samples": fit.samples,
            "sigma": sigma, "t_min": t_min}


def _blowup_record(trajectory):
    if not trajectory.flagged:
        return None
    return {"time": trajectory.blowup_time, "reason": trajectory.blowup_reason}


def _write_summary(config: RunConfig, args, fields: dict) -> str:
    """summary.json: version, command label and configuration echo, then
    the command's own fields."""
    path = os.path.join(config.run_out, "summary.json")
    write_json(path, {"version": __version__, "command": args.label,
                      "config": config_echo(config), **fields})
    return path


def _emit(command: str, report: dict, out_dir) -> int:
    """Print a JSON report and, given a run directory, write it there."""
    payload = {"version": __version__, "command": command, **report}
    if out_dir is not None:
        write_json(os.path.join(out_dir, "summary.json"), payload)
    print(json.dumps(payload, sort_keys=True, indent=2))
    return EXIT_OK


# ------------------------------------------------ configured commands

def cmd_simulate(config: RunConfig, args) -> int:
    model, u0, lx, flags = _build_model_and_state(config)
    trajectory = run_simulation(model, u0, _solver_config(config))

    write_series(os.path.join(config.run_out, "series.csv"), trajectory)
    n_snapshots = _write_snapshots(config.run_out, config, model, trajectory,
                                   lx, flags)
    path = _write_summary(config, args, {
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
    })

    status = "blow-up flagged" if trajectory.flagged else "completed"
    print(f"{status}: {trajectory.times.size} samples -> {path}")
    return EXIT_OK


def cmd_spectral_bound(config: RunConfig, args) -> int:
    geometry = _geometry(config)
    coeffs = _cloud_coeffs(config)
    n_max = args.n_max if args.n_max is not None else geometry.nx // 2
    if n_max < 0:
        raise ConfigError(f"--n-max must be nonnegative, got {n_max}")
    # complex stacks of the blocks and eigenvectors of 0..n_max
    if 2 * (n_max + 1) * (geometry.ny - 2) ** 2 * 16 > MAX_PROPAGATOR_BYTES:
        raise ConfigError(
            f"--n-max {n_max}: the stacks of {n_max + 1} mode blocks would "
            f"exceed the {MAX_PROPAGATOR_BYTES / 2 ** 30:g} GiB storage limit")

    top, condition, defective = mode_spectra(coeffs, geometry, n_max)

    if geometry.periodic_x:
        analytic = -periodic_stability_condition(coeffs).margin
    else:
        analytic = analytic_bound_nonperiodic(coeffs)

    bound = float(np.max(top.real))
    write_csv(os.path.join(config.run_out, "modes.csv"),
              ["n", "re_lambda_max", "im_lambda_at_max"],
              [np.arange(n_max + 1, dtype=float), top.real, top.imag])
    path = _write_summary(config, args, {
        "numeric_bound": bound,
        "analytic_bound": analytic,
        "n_max": n_max,
        "periodic": geometry.periodic_x,
        "max_eigenvector_condition": float(np.max(condition)),
        "defective_modes": np.flatnonzero(defective).tolist(),
    })

    print(f"spectral bound {bound:.10g} (analytic bound {analytic:.10g}) "
          f"-> {path}")
    return EXIT_OK


def cmd_decay_test(config: RunConfig, args) -> int:
    if not config.grid_periodic:
        raise ConfigError("grid.periodic: the decay test runs on the "
                          "periodic strip; set grid.periodic = true")
    coeffs = _cloud_coeffs(config)
    check = periodic_stability_condition(coeffs)
    if not check.satisfied:
        raise ConfigError(
            "cloud coefficients violate the decay condition "
            "eta + beta^2/(16 nu) < pi^2 nu "
            f"(margin {check.margin:.6g}); no exponential decay to verify")

    model, u0, _, _ = _build_model_and_state(config)
    if not np.any(u0):
        raise ConfigError("init.kind: decay test needs nonzero initial data")
    u0_h1 = model.norm(u0, 1.0)
    trajectory = run_simulation(model, u0, _solver_config(config))
    write_series(os.path.join(config.run_out, "series.csv"), trajectory)

    fitted = None if trajectory.flagged else _fit_record(
        trajectory, 1.0, min(1.0, 0.2 * config.solver_t_end))
    decays = fitted is not None and fitted["rate"] > 0.0
    weighted_sup = None
    if decays:
        # sup_t e^{rate t / 2} (|u|_H1 + t^{1/4} |u|_H1.5), the weighted
        # quantity the mild-solution bound controls by a fixed multiple
        # of the initial H1 norm
        quotient = np.exp(0.5 * fitted["rate"] * trajectory.times) \
            * (trajectory.norms[1.0] + trajectory.weighted)
        weighted_sup = float(np.max(quotient))
    path = _write_summary(config, args, {
        "stability_margin": check.margin,
        "initial_h1": u0_h1,
        "blowup": _blowup_record(trajectory),
        "fitted": fitted,
        "weighted_sup": weighted_sup,
        "bound_factor": None if weighted_sup is None else weighted_sup / u0_h1,
        "decays": decays,
    })

    rate = fitted["rate"] if fitted else float("nan")
    print(f"fitted decay rate {rate:.6g} "
          f"(guaranteed margin {check.margin:.6g}) -> {path}")
    return EXIT_OK


def cmd_scaling_test(config: RunConfig, args) -> int:
    if not 0.0 < args.lam < np.inf:  # the negated form refuses NaN too
        raise ValueError(f"--lambda: must be positive and finite, got {args.lam}")
    grid = PeriodicGrid(half_width=config.grid_half_width, n=config.grid_n)
    u0 = config.init_amplitude * np.exp(-0.5 * grid.nodes ** 2)
    solver_cfg = SolverConfig(dt=config.solver_dt, t_end=config.solver_t_end,
                              integrator=config.solver_integrator,
                              monitor_sigmas=(0.0,))

    reports = {}
    for label, nonlinear in (("nonlinear", True), ("linear", False)):
        report = scaling_roundtrip_test(
            u0, args.lam, config.solver_t_end, solver_cfg, grid,
            model_kind=config.heat_kind, kappa=config.heat_kappa,
            diffusion=config.heat_diffusion, nonlinear=nonlinear)
        reports[label] = {"discrepancy": report.discrepancy,
                          "reference_norm": report.reference_norm}
    path = _write_summary(config, args, {
        "lambda": args.lam, "kind": config.heat_kind,
        "kappa": config.heat_kappa, **reports})

    print(f"scaling roundtrip at lambda={args.lam:g}: nonlinear "
          f"{reports['nonlinear']['discrepancy']:.3e}, pure heat "
          f"{reports['linear']['discrepancy']:.3e} -> {path}")
    return EXIT_OK


# ------------------------------------------------ lab and exponents

def _require_seed(args) -> None:
    if args.seed < 0:  # numpy's generator refuses it too, but unnamed
        raise ValueError(f"--seed: must be nonnegative, got {args.seed}")


def cmd_lab_contraction(args) -> int:
    _require_seed(args)
    return _emit("lab contraction", contraction_experiment(
        dim=args.dim, seed=args.seed, quasilinear=args.quasilinear), args.out)


def cmd_lab_decay(args) -> int:
    _require_seed(args)
    return _emit("lab decay", decay_experiment(
        dim=args.dim, seed=args.seed, varpi=args.varpi,
        epsilon=args.epsilon), args.out)


def cmd_exponents(args) -> int:
    if args.kind == "semilinear":
        recipe = semilinear_recipe(args.n, args.p, args.kappa)
    else:
        recipe = quasilinear_recipe(args.n, args.p, args.kappa, args.tau)
    exps = recipe.exponents
    report = {
        "kind": args.kind,
        "n": recipe.n, "p": recipe.p, "kappa": recipe.kappa_exp,
        "s_c": recipe.s_c, "s": recipe.s, "mu": recipe.mu,
        "exponents": {"gamma": exps.gamma, "alpha": exps.alpha,
                      "beta": exps.beta_exp, "xi": exps.xi, "q": exps.q,
                      "mu": exps.mu},
    }
    if args.kind == "quasilinear":
        report.update(tau=recipe.tau, s_bar=recipe.s_bar,
                      theta_holder=recipe.theta_holder)
    return _emit("exponents", report, args.out)


# ------------------------------------------------------------ flag table

# convenience flag -> (configuration key, help); the value is passed on as
# text, so the configuration converts and checks it under its key, and a
# key with allowed values lends them to the flag as choices
FLAGS = {
    "out": ("run.out", "run directory for outputs"),
    "model": ("model", None),
    "nu": ("cloud.nu", None),
    "eta": ("cloud.eta", None),
    "beta": ("cloud.beta", None),
    "lx": ("grid.lx", "strip length for --open (default 2 pi, half-length pi)"),
    "nx": ("grid.nx", None),
    "ny": ("grid.ny", None),
    "half-width": ("grid.half_width", None),
    "n": ("grid.n", "grid points on the periodic line"),
    "kappa": ("heat.kappa", None),
    "p": ("heat.p", None),
    "tau": ("heat.tau", None),
    "diffusion": ("heat.diffusion", None),
    "intervals": ("heat.intervals", None),
    "points": ("heat.points", None),
    "t-end": ("solver.t_end", None),
    "dt": ("solver.dt", None),
    "integrator": ("solver.integrator", None),
    "record-every": ("solver.record_every", None),
    "snapshot-every": ("solver.snapshot_every", None),
    "init": ("init.kind", None),
    "amplitude": ("init.amplitude", None),
    "seed": ("run.seed", None),
}


class Command(NamedTuple):
    """A config-backed command: its flags (names in FLAGS, space
    separated), its own defaults (above the built-in ones, below the
    file and the environment), the overrides that fix its model, and
    the arguments it takes outside the configuration."""

    help: str
    handler: Callable
    flags: str
    defaults: tuple = ()
    base: Callable = lambda args: ()
    arguments: tuple = ()
    label: Optional[str] = None  # summary label; default the command path


SCALING_TEST = Command(
    "self-similar scaling roundtrip of the periodic heat model",
    cmd_scaling_test, "out kappa diffusion t-end dt amplitude half-width n",
    defaults=("heat.kappa=5.0", "solver.t_end=0.5", "init.amplitude=0.5"),
    base=lambda args: ["model=heat-periodic", f"heat.kind={args.kind}"],
    arguments=(("--lambda", {"dest": "lam", "type": float, "default": 2.0,
                             "help": "scaling factor"}),
               ("--kind", {"choices": CHOICES["heat.kind"],
                           "default": "semilinear"})),
    label="scaling-test")

COMMANDS = {
    ("simulate",): Command(
        "time-march the configured model", cmd_simulate,
        "out model nu eta beta kappa t-end dt integrator record-every "
        "snapshot-every init amplitude seed"),
    ("spectral-bound",): Command(
        "max real part of the mode-operator spectra", cmd_spectral_bound,
        "out nu eta beta lx nx ny",
        base=lambda args: ["grid.periodic=false"] if args.open_strip else [],
        arguments=(("--open", {"dest": "open_strip", "action": "store_true",
                               "help": "use the truncated open strip "
                                       "instead of periodic"}),
                   ("--n-max", {"type": int,
                                "help": "largest mode index to assemble"}))),
    ("decay-test",): Command(
        "verify exponential decay on the periodic strip", cmd_decay_test,
        "out nu eta beta t-end dt amplitude init seed",
        defaults=("solver.t_end=5.0",),
        base=lambda args: ["model=cloud"]),
    ("scaling-test",): SCALING_TEST,
    ("heat", "simulate"): Command(
        "time-march a heat model", cmd_simulate,
        "out kappa p tau diffusion intervals points n half-width t-end dt "
        "integrator record-every snapshot-every init amplitude seed",
        base=lambda args: [f"model=heat-{args.kind}"],
        arguments=(("--kind", {"choices": (*CHOICES["heat.kind"], "periodic"),
                               "default": "semilinear"}),)),
    ("heat", "scaling-test"): SCALING_TEST,
}


def _run_configured(args) -> int:
    """Parse the configuration of a config-backed command and run it.

    The command's defaults sit below the file and the environment.
    Overrides in increasing precedence: the command's base overrides,
    then --set pairs, then convenience flags.
    """
    spec = args.spec
    overrides = [*spec.base(args), *args.set]
    for name in spec.flags.split():
        value = getattr(args, name.replace("-", "_"))
        if value is not None:
            overrides.append(f"{FLAGS[name][0]}={value}")
    return spec.handler(parse_config(args.config, overrides,
                                     defaults=spec.defaults), args)


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mildflow",
        description="spectral mild-solution simulator and verification lab "
                    "for critical parabolic equations")
    parser.add_argument("--version", action="version",
                        version=f"mildflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    heat = sub.add_parser("heat", help="one-dimensional heat model runs")
    groups = {(): sub, ("heat",): heat.add_subparsers(dest="heat_command",
                                                     required=True)}

    for path, spec in COMMANDS.items():
        p = groups[path[:-1]].add_parser(path[-1], help=spec.help)
        p.add_argument("--config", metavar="FILE",
                       help="key = value configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       default=[], help="override one configuration key")
        for flag, options in spec.arguments:
            p.add_argument(flag, **options)
        for name in spec.flags.split():
            key, text = FLAGS[name]
            p.add_argument(f"--{name}", help=text, choices=CHOICES.get(key))
        p.set_defaults(handler=_run_configured, spec=spec,
                       label=spec.label or " ".join(path))

    p = sub.add_parser("lab", help="matrix fixed-point laboratory")
    lab_sub = p.add_subparsers(dest="lab_command", required=True)

    q = lab_sub.add_parser("contraction",
                           help="select contraction parameters and iterate")
    q.add_argument("--dim", type=int, default=8)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--quasilinear", action="store_true")
    q.add_argument("--out", default="run")
    q.set_defaults(handler=cmd_lab_contraction)

    q = lab_sub.add_parser("decay",
                           help="weighted exponential-decay verification")
    q.add_argument("--dim", type=int, default=6)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--varpi", type=float, default=None,
                   help="decay rate to verify (default: half the spectral gap)")
    q.add_argument("--epsilon", type=float, default=0.5)
    q.add_argument("--out", default="run")
    q.set_defaults(handler=cmd_lab_decay)

    p = sub.add_parser("exponents",
                       help="critical exponent recipes for the heat models")
    p.add_argument("kind", choices=("semilinear", "quasilinear"))
    p.add_argument("--n", type=int, default=1, help="space dimension")
    p.add_argument("--p", type=float, default=2.0, help="Lebesgue exponent")
    p.add_argument("--kappa", type=float, default=6.0,
                   help="nonlinearity power")
    p.add_argument("--tau", type=float, default=0.27,
                   help="Hoelder index (quasilinear only)")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_exponents)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
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
