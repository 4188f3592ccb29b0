"""Time integration for mild solutions.

Every model speaks one protocol: `nonlinearity(state)` and
`norm(state, sigma)` take states with leading axes (one state is a stack
of one); a model has a fixed `propagator` or an `operator_matrix(state)`
= A(u); `norms(state, sigmas)`, every level at once, is optional.

* exponential integrators (exponential Euler and ETDRK2) march to a
  `Trajectory`, freezing A(u_n) for the whole step on a quasilinear
  model, which makes ETDRK2 first order in time there (second order for
  a fixed generator);
* Picard iteration for the integral fixed-point map itself, discretized
  by product integration of a piecewise-linear nonlinearity on a graded
  mesh clustered at t = 0 where the weighted norms live, returns a
  `PicardResult`; it needs a fixed propagator.

Blow-up is flagged, never silently integrated through: a trajectory
stops at the first nonfinite state, norm-threshold crossing, or
semigroup overflow, and carries the flag time and reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .propagators import InstabilityError, Propagator, phi, require_storage

INTEGRATORS = ("exp_euler", "etdrk2")
# the longest march a configuration may ask for, in steps of dt
MAX_STEPS = 10 ** 7
# nodes of the Picard mesh are t_k = T (k/K)^MESH_POWER
MESH_POWER = 2.0


@dataclass(frozen=True)
class SolverConfig:
    dt: float = 1e-3
    t_end: float = 1.0
    integrator: str = "etdrk2"
    record_every: int = 1
    snapshot_every: int = 0
    monitor_sigmas: tuple = (0.0, 1.0)
    weighted_sigma: Optional[float] = None
    weighted_mu: float = 0.0
    blowup_factor: float = 1e6
    picard_segments: int = 128
    picard_tol: float = 1e-10
    picard_max_iter: int = 50

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.t_end > 0.0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if not self.dt <= self.t_end < np.inf:
            raise ValueError("solver.dt, solver.t_end: need finite dt <= t_end, "
                             f"got dt={self.dt}, t_end={self.t_end}")
        if not self.t_end / self.dt <= MAX_STEPS:
            raise ValueError(f"solver.dt, solver.t_end: t_end/dt asks for more "
                             f"than {MAX_STEPS:,} steps, got dt={self.dt}, "
                             f"t_end={self.t_end}")
        if self.integrator not in INTEGRATORS:
            raise ValueError(
                f"integrator must be one of {INTEGRATORS}, got {self.integrator!r}")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be nonnegative (0 keeps none)")
        if self.picard_segments < 2:
            raise ValueError("picard_segments must be at least 2")


@dataclass
class Trajectory:
    """Recorded norm histories; arrays end at the blow-up flag if raised.
    steps counts the steps to final_time, a partial last step included."""

    times: np.ndarray
    norms: dict
    f_norms: np.ndarray
    weighted: Optional[np.ndarray]
    final_state: np.ndarray
    final_time: float
    blowup_time: Optional[float] = None
    blowup_reason: Optional[str] = None
    snapshots: list = field(default_factory=list)
    steps: int = 0

    @property
    def flagged(self) -> bool:
        return self.blowup_time is not None


def _advance(state, f0, dt, operators, nonlinearity, method):
    """One step from u given f(u); operators apply e^{hA}, phi1(hA), phi2(hA).
    A method other than exp_euler is etdrk2: SolverConfig admits no third."""
    expo, phi1_op, phi2_op = operators
    stage = expo(state) + dt * phi1_op(f0)
    if method == "exp_euler":
        return stage
    return stage + dt * phi2_op(nonlinearity(stage) - f0)


def step_plan(t_end: float, dt: float):
    """(steps, last): whole steps of dt, then a partial step of the
    remainder, ending at t_end; a ratio t_end/dt within 1e-12 relative
    of a whole number takes whole steps only (last == dt)."""
    ratio = t_end / dt
    if abs(ratio - round(ratio)) <= 1e-12 * ratio:
        return round(ratio), dt
    return int(ratio) + 1, t_end - int(ratio) * dt


def _norm_set(model, state, sigmas) -> dict:
    if hasattr(model, "norms"):
        return model.norms(state, sigmas)
    return {s: model.norm(state, s) for s in sigmas}


@np.errstate(over="ignore", invalid="ignore")
def run_simulation(model, u0, config: SolverConfig) -> Trajectory:
    """March the model from u0, recording norms and watching for blow-up.

    The march ends at t_end (`step_plan`). A fixed .propagator takes
    whole steps with its cached per-dt factors and a partial last step
    with its actions; otherwise each step builds the propagator of
    operator_matrix frozen at the current state. f and the norm set are
    evaluated once per accepted state, and the next step reuses f.
    """
    dt = config.dt

    def operators(st, h):
        if fixed is not None and h == dt:
            return [partial(fixed.apply_factor, factor)
                    for factor in fixed.step_factors(dt)]
        prop = fixed or Propagator.from_matrix(model.operator_matrix(st))
        return [partial(fn, h) for fn in (
            prop.propagate, prop.phi1_action, prop.phi2_action)]
    lead = config.monitor_sigmas[0]
    extra = () if config.weighted_sigma is None else (config.weighted_sigma,)
    sigmas = tuple(dict.fromkeys(config.monitor_sigmas + extra))
    state = np.array(u0, copy=True)
    n_steps, last = step_plan(config.t_end, dt)
    if config.snapshot_every:
        require_storage((n_steps // config.snapshot_every + 1) * state.nbytes,
                        "solver.snapshot_every, solver.t_end: the snapshots")
    # read after the snapshot rule: a model may build it on first use
    fixed = getattr(model, "propagator", None)
    norms = _norm_set(model, state, sigmas)
    threshold = config.blowup_factor * max(norms[lead], 1.0)

    times, f_norms, weighted = [], [], []
    norm_series = {s: [] for s in config.monitor_sigmas}
    snapshots = []
    blowup_time = blowup_reason = None
    t, taken = 0.0, 0
    f_state = model.nonlinearity(state)

    def record(t_now, f_val, values):
        times.append(t_now)
        for s in config.monitor_sigmas:
            norm_series[s].append(values[s])
        f_norms.append(model.norm(f_val, 0.0))
        if config.weighted_sigma is not None:
            weighted.append(t_now ** config.weighted_mu
                            * values[config.weighted_sigma]
                            if t_now > 0.0 else 0.0)

    record(0.0, f_state, norms)
    if config.snapshot_every:
        snapshots.append((0.0, state.copy()))
    if not (np.all(np.isfinite(state)) and np.isfinite(norms[lead])):
        blowup_time, blowup_reason = 0.0, "nonfinite"
        n_steps = 0

    for k in range(1, n_steps + 1):
        h = dt if k < n_steps else last
        try:
            new_state = _advance(state, f_state, h, operators(state, h),
                                 model.nonlinearity, config.integrator)
        except InstabilityError:
            blowup_time, blowup_reason = t, "semigroup-overflow"
            break
        except FloatingPointError:
            blowup_time, blowup_reason = t, "nonfinite"
            break
        t, taken = (k * dt if k < n_steps else config.t_end), k
        if not np.all(np.isfinite(new_state)):
            blowup_time, blowup_reason = t, "nonfinite"
            break
        state, f_state = new_state, model.nonlinearity(new_state)
        norms = _norm_set(model, state, sigmas)
        crossed = not np.isfinite(norms[lead]) or norms[lead] > threshold
        if crossed or k % config.record_every == 0 or k == n_steps:
            record(t, f_state, norms)
        if crossed:
            blowup_time, blowup_reason = t, "norm-threshold"
            break
        if config.snapshot_every and k % config.snapshot_every == 0:
            snapshots.append((t, state.copy()))

    return Trajectory(
        times=np.asarray(times),
        norms={s: np.asarray(v) for s, v in norm_series.items()},
        f_norms=np.asarray(f_norms),
        weighted=np.asarray(weighted) if config.weighted_sigma is not None else None,
        final_state=state,
        final_time=t,
        blowup_time=blowup_time,
        blowup_reason=blowup_reason,
        snapshots=snapshots,
        steps=taken,
    )


def graded_mesh(t_end: float, segments: int, power: float) -> np.ndarray:
    """Nodes t_k = T (k/K)^power, clustered at zero for power > 1."""
    return t_end * (np.arange(segments + 1) / segments) ** power


@dataclass
class PicardResult:
    times: np.ndarray
    states: np.ndarray  # (K+1, ...): the state at each node
    iterations: int
    converged: bool
    distances: np.ndarray
    contraction_ratios: np.ndarray

    @property
    def final_state(self):
        return self.states[-1]


@np.errstate(over="ignore", invalid="ignore")
def picard_solve(model, u0, t_end: float,
                 config: SolverConfig) -> PicardResult:
    """Iterate the mild-solution map to a fixed point on a graded mesh.

    The map F(u)(t) = e^{tA} u0 + int_0^t e^{(t-s)A} f(u(s)) ds is
    discretized by exact product integration of the piecewise-linear
    interpolant of f(u): with g_j = h phi1(h lam) f_j + h phi2(h lam)
    (f_{j+1} - f_j) on segment j, the running sum obeys the stable
    forward recursion S_{k+1} = e^{(t_{k+1}-t_k) lam} S_k + g_k. A sweep
    calls the model's nonlinearity, eigen transforms and norms once each,
    on the (K+1, ...) stack of node states; only the recursion loops, in
    place on preallocated rows of one dtype, bit for bit the plain loop.

    Successive iterates are compared in the sup norm at the march's lead
    level monitor_sigmas[0] plus the t^weighted_mu weighted sup at level
    weighted_sigma; their ratios estimate the contraction factor. A
    sweep whose distance is not finite ends the iteration unconverged,
    without numpy's overflow warnings, as the march does.
    """
    propagator, norm_fn = model.propagator, model.norm
    sigma_sup, sigma_weighted = config.monitor_sigmas[0], config.weighted_sigma
    if propagator.defective:
        raise ValueError("Picard iteration needs a diagonalizable generator")
    tau = graded_mesh(t_end, config.picard_segments, MESH_POWER)
    lam = propagator.lam
    h = np.diff(tau).reshape((-1,) + (1,) * lam.ndim)  # a column against lam
    want_real = propagator.real and not np.iscomplexobj(u0)
    u0_hat = propagator.to_eigen(np.asarray(u0))
    # t_k^mu at the nodes t_k > 0 by scalar powers (array powers round apart)
    later = tau > 0.0
    weights = np.array([t_k ** config.weighted_mu for t_k in tau[later]])

    def reconstruct(coeffs):
        out = propagator.from_eigen(coeffs)
        return out.real if want_real and np.iscomplexobj(out) else out

    def distance(states_a, states_b):
        diff = states_a - states_b
        d_sup = np.max(norm_fn(diff, sigma_sup))
        d_weight = 0.0
        if sigma_weighted is not None:
            d_weight = np.max(weights * norm_fn(diff[later], sigma_weighted))
        return d_sup + d_weight

    # tables of the factors of z = h_j lam and of the free orbit
    # e^{t_k lam} u0_hat: they depend only on the mesh and the spectrum
    z = h * lam
    p1, p2, decay = phi(z, 1), phi(z, 2), phi(z, 0)
    free = phi(np.multiply.outer(tau, lam), 0) * u0_hat
    # first iterate: the free semigroup orbit of the initial value
    states = reconstruct(free)
    running = np.zeros(free.shape, dtype=complex)  # S_k; S_0 stays 0
    # row views; decay is cast once, as a mixed product casts it each time
    rows, decay_rows = list(running), list(decay.astype(running.dtype))
    distances = []
    converged = False
    iterations = 0
    scale = max(norm_fn(np.asarray(u0), sigma_sup), 1e-30)
    for iterations in range(1, config.picard_max_iter + 1):
        f_hat = propagator.to_eigen(model.nonlinearity(states))
        g = h * (p1 * f_hat[:-1] + p2 * (f_hat[1:] - f_hat[:-1]))
        for d_j, s_j, s_next, g_j in zip(decay_rows, rows, rows[1:],
                                          g.astype(running.dtype, copy=False)):
            np.multiply(d_j, s_j, out=s_next)
            s_next += g_j
        new_states = reconstruct(free + running)
        new_states[0] = states[0]  # node 0 keeps the first iterate's u0
        dist = distance(new_states, states)
        distances.append(dist)
        states = new_states
        if not np.isfinite(dist):
            break
        if dist < config.picard_tol * scale:
            converged = True
            break
    distances = np.asarray(distances)
    ratios = distances[1:] / np.maximum(distances[:-1], 1e-300)
    return PicardResult(times=tau, states=states, iterations=iterations,
                        converged=converged, distances=distances,
                        contraction_ratios=ratios)


@dataclass(frozen=True)
class DecayFit:
    rate: float
    amplitude: float
    residual: float
    samples: int


def fit_decay_rate(trajectory: Trajectory, sigma: float,
                   t_min: float = 0.0) -> DecayFit:
    """Least-squares fit of norm(t) ~ amplitude * exp(-rate t).

    Only samples with t >= t_min and positive norm enter; at least ten
    are required for a meaningful slope.
    """
    if sigma not in trajectory.norms:
        raise KeyError(f"sigma {sigma} was not monitored")
    t = trajectory.times
    v = trajectory.norms[sigma]
    mask = (t >= t_min) & (v > 0.0) & np.isfinite(v)
    t, v = t[mask], v[mask]
    if t.size < 10:
        raise ValueError(
            f"decay fit needs at least 10 usable samples, got {t.size}")
    coeff, res = np.polyfit(t, np.log(v), 1, full=True)[:2]
    residual = float(res[0]) if res.size else 0.0
    return DecayFit(rate=-float(coeff[0]), amplitude=float(np.exp(coeff[1])),
                    residual=residual, samples=int(t.size))
