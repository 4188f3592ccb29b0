"""The benchmark's four workloads.

Each workload draws one batch of cases from the run's seed, builds their
inputs during set-up, runs every job through mildflow's public API (the
functions the command-line handlers call) and checks every job's output.

Cases of the workloads with stored references are indices into a fixed
pool; ``references/<workload>.json`` holds the expected output of every
pool case, so a run on any seed can be checked.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from mildflow import chebyshev, cloud, heat, io, lab, solver, strip

HERE = Path(__file__).resolve().parent
WORK_DIR = HERE / "_work"
REFERENCE_DIR = HERE / "references"

AMPLITUDE = 1e-2  # H1 norm of every initial state
DT = 1e-3
NORM_RTOL = 1e-8
BOUND_TOL = 1e-9


def _rng(name: str, seed: int):
    """Case generator of one workload; any integer seed is accepted."""
    return np.random.default_rng([sum(name.encode()), seed % 2 ** 64])


def _normalized(model, state):
    return state * (AMPLITUDE / model.norm(state, 1.0))


class Workload:
    """Base: subclasses set the class attributes and the four hooks."""

    name = ""
    work_unit = ""
    batch_size = 1
    tail_percent = 50
    pool = 0  # number of referenced cases; 0 means no stored references

    def __init__(self, seed: int, batch_size: int | None = None):
        size = self.batch_size if batch_size is None else batch_size
        self.cases = self.draw_cases(_rng(self.name, seed), size)
        self.references = {}

    def draw_cases(self, rng, size):
        return [int(c) for c in rng.choice(self.pool, size=size, replace=False)]

    def load_references(self) -> None:
        """A missing file leaves no references, so every check fails."""
        try:
            with open(REFERENCE_DIR / f"{self.name}.json", encoding="utf-8") as handle:
                stored = json.load(handle)
        except FileNotFoundError:
            return
        self.references = {int(k): v for k, v in stored.items()}

    def setup(self) -> None:
        """Build models and inputs for every case in the batch."""

    def job(self, case) -> dict:
        """Run one case; returns its checked outputs and work counts."""
        raise NotImplementedError

    def check(self, case, out: dict) -> bool:
        raise NotImplementedError

    def reference_record(self, out: dict):
        """What references/<name>.json stores for one case."""
        raise NotImplementedError


class _March(Workload):
    """Shared time-march job: run_simulation plus artifacts through io."""

    steps = 100
    pool = 64
    batch_size = 8
    tail_percent = 75
    work_unit = "steps"

    def setup(self) -> None:
        self.out_dir = WORK_DIR / self.name
        self.inputs = {case: self.initial_state(case) for case in self.cases}
        self.load_references()

    def job(self, case) -> dict:
        traj = solver.run_simulation(self.model, self.inputs[case], self.config)
        series = self.out_dir / "series.csv"
        summary_path = self.out_dir / "summary.json"
        io.write_series(str(series), traj)
        final = {io.sigma_label(s): float(v[-1]) for s, v in sorted(traj.norms.items())}
        if traj.weighted is not None:
            final["weighted"] = float(traj.weighted[-1])
        # At amplitude 1e-2 the state norms barely see the nonlinearity;
        # the norm of f itself does.
        final["f_norm"] = float(traj.f_norms[-1])
        summary = {
            "workload": self.name,
            "case": case,
            "steps": int(round(traj.final_time / self.config.dt)),
            "recorded_samples": int(traj.times.size),
            "blowup": (None if not traj.flagged else
                       {"time": traj.blowup_time, "reason": traj.blowup_reason}),
            "final": final,
        }
        io.write_json(str(summary_path), summary)
        arrays = list(traj.norms.values()) + [traj.f_norms]
        if traj.weighted is not None:
            arrays.append(traj.weighted)
        return {
            "flagged": traj.flagged,
            "finite": all(bool(np.all(np.isfinite(a))) for a in arrays),
            "final": final,
            "work": summary["steps"],
            "steps": summary["steps"],
            "bytes": series.stat().st_size + summary_path.stat().st_size,
        }

    def check(self, case, out: dict) -> bool:
        ref = self.references.get(case)
        if out["flagged"] or not out["finite"] or ref is None:
            return False
        return set(ref) == set(out["final"]) and all(
            abs(out["final"][k] - v) <= NORM_RTOL * abs(v) for k, v in ref.items())

    def reference_record(self, out: dict):
        return out["final"]


class StripMarch(_March):
    """Default simulate path: periodic 64x48 cloud run, ETDRK2."""

    name = "strip_march"
    batch_size = 4

    def setup(self) -> None:
        self.geometry = strip.periodic_strip(64, 48)
        self.model = cloud.CloudModel(cloud.CloudCoefficients(1.0, 0.0, 1.0),
                                      self.geometry)
        self.config = solver.SolverConfig(
            dt=DT, t_end=self.steps * DT, integrator="etdrk2", record_every=1,
            monitor_sigmas=(0.0, 1.0, 1.5), weighted_sigma=1.5, weighted_mu=0.25)
        super().setup()

    def initial_state(self, case):
        """Random smooth Dirichlet field, sampled on the grid."""
        rng = np.random.default_rng(case)
        geom = self.geometry
        x = geom.x_nodes()[:, None]
        y = geom.y_nodes()[None, :]
        k0 = math.pi / geom.half_length
        values = np.zeros((geom.nx, geom.ny))
        for n in range(7):
            for m in range(1, 7):
                a, b = rng.standard_normal(2)
                values += ((a * np.cos(n * k0 * x) + b * np.sin(n * k0 * x))
                           * np.sin(m * math.pi * y) / (1.0 + n + m) ** 1.5)
        state = self.model.state_from_field(strip.from_grid(values, geom))
        return _normalized(self.model, state)


class HeatFrozen(_March):
    """Quasilinear heat model: the generator is rebuilt every step."""

    name = "heat_frozen"

    def setup(self) -> None:
        self.model = heat.QuasilinearHeatModel(points=65, kappa=4.0, p=2.5, tau=0.27)
        self.config = solver.SolverConfig(
            dt=DT, t_end=self.steps * DT, integrator="etdrk2", record_every=1,
            monitor_sigmas=(0.0, 1.0))
        super().setup()

    def initial_state(self, case):
        """Random cosine series with decaying coefficients."""
        coeffs = np.random.default_rng(case).standard_normal(5) \
            / (1.0 + np.arange(5)) ** 1.5
        state = self.model.state_from_function(
            lambda x: sum(c * np.cos((m + 1) * np.pi * x) for m, c in enumerate(coeffs)))
        return _normalized(self.model, state)


class ModeSpectra(Workload):
    """Open-strip spectral bound, one coefficient triple per job."""

    name = "mode_spectra"
    work_unit = "blocks"
    pool = 256
    batch_size = 32
    tail_percent = 90

    def setup(self) -> None:
        self.geometry = strip.open_strip(128, 48, half_length=4.0 * math.pi)
        chebyshev.diff_matrix(self.geometry.ny)
        chebyshev.cumulative_matrix(self.geometry.ny)
        self.coefficients = {case: self.coefficients_of(case) for case in self.cases}
        self.blocks = self.geometry.nx // 2 + 1
        self.load_references()

    @staticmethod
    def coefficients_of(case):
        rng = np.random.default_rng(case)
        return cloud.CloudCoefficients(nu=rng.uniform(0.5, 2.0),
                                       eta=rng.uniform(-1.0, 1.0),
                                       beta=rng.uniform(-2.0, 2.0))

    def job(self, case) -> dict:
        coeffs = self.coefficients[case]
        return {"numeric": cloud.spectral_bound_numeric(coeffs, self.geometry),
                "analytic": cloud.analytic_bound_nonperiodic(coeffs),
                "work": self.blocks}

    def check(self, case, out: dict) -> bool:
        ref = self.references.get(case)
        numeric = out["numeric"]
        return (ref is not None and numeric <= out["analytic"] + 1e-6
                and abs(numeric - ref) <= BOUND_TOL * max(1.0, abs(ref)))

    def reference_record(self, out: dict):
        return out["numeric"]


class LabCertify(Workload):
    """Matrix-lab contraction certificate; dimensions 2..32 in equal shares."""

    name = "lab_certify"
    work_unit = "certificates"
    batch_size = 62
    tail_percent = 90

    def draw_cases(self, rng, size):
        dims = [2 + i % 31 for i in range(size)]
        seeds = rng.integers(0, 2 ** 31, size=size)
        return [(dim, int(s)) for dim, s in zip(dims, seeds)]

    def job(self, case) -> dict:
        report = lab.contraction_experiment(dim=case[0], seed=case[1])
        return {"converged": report["converged"],
                "ratio": report["contraction_ratio"],
                "slacks": [rec["slack"] for rec in report["inequalities"].values()],
                "sweeps": report["iterations"],
                "work": 1}

    def check(self, case, out: dict) -> bool:
        return (bool(out["converged"]) and out["ratio"] <= 0.5
                and all(s <= 0.0 for s in out["slacks"]))


WORKLOADS = {cls.name: cls for cls in (StripMarch, ModeSpectra, LabCertify, HeatFrozen)}
