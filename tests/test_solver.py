"""Exponential steppers and Picard iteration against a scalar logistic
closed form, convergence-order sweeps, and blow-up flagging."""

from types import SimpleNamespace

import numpy as np
import pytest

from mildflow.propagators import Propagator
from mildflow.solver import (
    MAX_STEPS,
    DecayFit,
    SolverConfig,
    Trajectory,
    fit_decay_rate,
    graded_mesh,
    picard_solve,
    run_simulation,
    step_plan,
)
from oracles import step_exponential


def logistic_exact(t, u0=0.1, eps=1.0):
    # u' = -u + eps u^2  =>  u(t) = u0 e^{-t} / (1 - eps u0 (1 - e^{-t}))
    e = np.exp(-t)
    return u0 * e / (1.0 - eps * u0 * (1.0 - e))


class ScalarLogistic:
    propagator = Propagator(np.array([-1.0]))

    def nonlinearity(self, u):
        return u ** 2

    def norm(self, u, sigma):
        # one value per row of a stack of states
        return np.abs(u[..., 0])


class ScalarLinear:
    def __init__(self, rate):
        self.propagator = Propagator(np.array([rate]))

    def nonlinearity(self, u):
        return np.zeros_like(u)

    def norm(self, u, sigma):
        return float(np.abs(u[0]))


class LinearComplex:
    # a real state of a complex spectrum turns complex under the flow
    propagator = Propagator(np.array([-1.0 + 3.0j, -2.0 - 1.0j]))

    def nonlinearity(self, u):
        return np.zeros_like(u)

    def norm(self, u, sigma):
        return np.abs(u).max(axis=-1)


U0 = np.array([0.1])


def test_config_validation_messages():
    with pytest.raises(ValueError, match="dt"):
        SolverConfig(dt=0.0)
    with pytest.raises(ValueError, match="t_end"):
        SolverConfig(t_end=-1.0)
    with pytest.raises(ValueError, match="integrator"):
        SolverConfig(integrator="rk4")
    with pytest.raises(ValueError, match="picard_segments"):
        SolverConfig(picard_segments=1)
    # a negative cadence would pass the snapshot storage rule, then keep
    # every step
    with pytest.raises(ValueError, match="snapshot_every"):
        SolverConfig(snapshot_every=-1)


def test_step_rejects_unknown_method():
    m = ScalarLogistic()
    with pytest.raises(ValueError, match="integrator"):
        step_exponential(U0, 0.1, m.propagator, m.nonlinearity, method="euler")


def test_linear_step_is_exact():
    m = ScalarLinear(-2.0)
    state, _ = step_exponential(np.array([1.0]), 0.3, m.propagator,
                                m.nonlinearity, "etdrk2")
    assert abs(state[0] - np.exp(-0.6)) < 1e-14


def test_etdrk2_matches_logistic_closed_form():
    cfg = SolverConfig(dt=1e-3, t_end=1.0, monitor_sigmas=(0.0,))
    tr = run_simulation(ScalarLogistic(), U0, cfg)
    assert abs(tr.final_state[0] - logistic_exact(1.0)) < 1e-8
    assert not tr.flagged


@pytest.mark.parametrize("method,lo,hi", [("exp_euler", 0.8, 1.2),
                                          ("etdrk2", 1.7, 2.3)])
def test_convergence_order(method, lo, hi):
    errs = []
    steps = [2.0 ** -p for p in range(6, 11)]
    for dt in steps:
        cfg = SolverConfig(dt=dt, t_end=0.5, integrator=method,
                           monitor_sigmas=(0.0,))
        tr = run_simulation(ScalarLogistic(), U0, cfg)
        errs.append(abs(tr.final_state[0] - logistic_exact(0.5)))
    slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert lo < slope < hi


def test_trajectory_recording_cadence():
    cfg = SolverConfig(dt=0.1, t_end=1.0, record_every=2,
                       snapshot_every=5, monitor_sigmas=(0.0,))
    tr = run_simulation(ScalarLinear(-1.0), np.array([1.0]), cfg)
    # t=0 plus every other step plus the final step
    assert tr.times[0] == 0.0 and tr.times[-1] == pytest.approx(1.0)
    assert [round(t, 10) for t in tr.times] == [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    assert [round(t, 10) for t, _ in tr.snapshots] == [0.0, 0.5, 1.0]


@pytest.mark.parametrize("t_end, dt, steps", [
    (0.1, 1e-3, 100), (5.0, 1e-3, 5000), (0.3, 0.1, 3), (1.0, 0.1, 10),
    (0.5, 2.0 ** -10, 512)])
def test_step_plan_keeps_whole_step_counts(t_end, dt, steps):
    # t_end/dt within roundoff of a whole number: no extra step
    assert step_plan(t_end, dt) == (steps, dt)


class ScalarFrozen(ScalarLinear):
    """ScalarLinear through the reassembled-generator path."""

    def __init__(self, rate):
        self.rate = rate

    def operator_matrix(self, u):
        return np.array([[self.rate]])


@pytest.mark.parametrize("model", [ScalarLinear(-1.0), ScalarFrozen(-1.0)],
                         ids=["fixed", "frozen"])
def test_off_grid_t_end_takes_a_partial_last_step(model):
    cfg = SolverConfig(dt=0.1, t_end=0.25, monitor_sigmas=(0.0,),
                       snapshot_every=1)
    tr = run_simulation(model, np.array([1.0]), cfg)
    assert tr.final_time == 0.25 and tr.steps == 3
    assert tr.times.tolist() == [0.0, 0.1, 0.2, 0.25]
    assert [t for t, _ in tr.snapshots] == [0.0, 0.1, 0.2, 0.25]
    # the exponential integrators are exact on a linear problem
    assert tr.final_state[0] == pytest.approx(np.exp(-0.25), rel=1e-12)


def test_partial_step_keeps_the_step_factor_cache(monkeypatch):
    model = ScalarLinear(-1.0)
    builds = []
    factor = model.propagator._factor
    monkeypatch.setattr(model.propagator, "_factor",
                        lambda dt, *args: builds.append(dt) or factor(dt, *args))
    cfg = SolverConfig(dt=0.1, t_end=0.25, monitor_sigmas=(0.0,))
    for _ in range(2):
        run_simulation(model, np.array([1.0]), cfg)
    assert builds == [0.1, 0.1, 0.1]


def test_weighted_record_vanishes_at_origin():
    cfg = SolverConfig(dt=0.05, t_end=1.0, monitor_sigmas=(0.0,),
                       weighted_sigma=0.0, weighted_mu=0.25)
    tr = run_simulation(ScalarLinear(-1.0), np.array([1.0]), cfg)
    assert tr.weighted[0] == 0.0
    # t^{1/4} e^{-t} peaks at t = 1/4
    k = np.argmax(tr.weighted)
    assert abs(tr.times[k] - 0.25) <= 0.05 + 1e-12


def test_blowup_norm_threshold_flag():
    class Explodes:
        propagator = Propagator(np.array([1.0]))

        def nonlinearity(self, u):
            return u ** 3

        def norm(self, u, sigma):
            return float(np.abs(u[0]))

    cfg = SolverConfig(dt=1e-3, t_end=1.0, monitor_sigmas=(0.0,),
                       blowup_factor=1e6)
    tr = run_simulation(Explodes(), np.array([2.0]), cfg)
    assert tr.flagged and tr.blowup_reason == "norm-threshold"
    assert tr.blowup_time < 0.2
    assert np.all(np.diff(tr.norms[0.0]) >= 0.0)


def test_blowup_nonfinite_flag_when_threshold_disabled():
    class Explodes:
        propagator = Propagator(np.array([1.0]))

        def nonlinearity(self, u):
            return u ** 3

        def norm(self, u, sigma):
            return float(np.abs(u[0]))

    cfg = SolverConfig(dt=1e-3, t_end=1.0, monitor_sigmas=(0.0,),
                       blowup_factor=np.inf)
    tr = run_simulation(Explodes(), np.array([2.0]), cfg)
    assert tr.flagged and tr.blowup_reason == "nonfinite"
    assert np.all(np.isfinite(tr.final_state))


def test_semigroup_overflow_flags_before_the_first_step():
    # h lam = 1e3 exceeds the exponent guard in the first step factor
    cfg = SolverConfig(dt=1e-3, t_end=1.0, monitor_sigmas=(0.0,))
    tr = run_simulation(ScalarLinear(1e6), U0, cfg)
    assert tr.blowup_reason == "semigroup-overflow" and tr.blowup_time == 0.0
    assert tr.steps == 0 and tr.times.size == 1


def test_nonfinite_start_flags_before_the_first_step():
    cfg = SolverConfig(dt=0.01, t_end=1.0, monitor_sigmas=(0.0,))
    tr = run_simulation(ScalarLinear(-1.0), np.array([np.nan]), cfg)
    assert tr.blowup_reason == "nonfinite" and tr.blowup_time == 0.0
    assert tr.steps == 0 and tr.times.size == 1


def test_picard_matches_logistic_closed_form():
    m = ScalarLogistic()
    cfg = SolverConfig(picard_segments=512, picard_tol=1e-13,
                       picard_max_iter=80)
    res = picard_solve(m, U0, 1.0, cfg)
    assert res.converged
    assert abs(res.final_state[0] - logistic_exact(1.0)) < 2e-8


def test_picard_second_order_in_mesh():
    m = ScalarLogistic()
    errs = []
    for segments in [128, 256]:
        cfg = SolverConfig(picard_segments=segments, picard_tol=1e-14,
                           picard_max_iter=100)
        res = picard_solve(m, U0, 1.0, cfg)
        errs.append(abs(res.final_state[0] - logistic_exact(1.0)))
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_picard_contracts_geometrically():
    m = ScalarLogistic()
    cfg = SolverConfig(picard_segments=64, picard_tol=1e-12)
    res = picard_solve(m, U0, 1.0, cfg)
    assert res.converged and res.iterations < 15
    assert np.all(res.contraction_ratios[:-1] < 0.5)


def test_picard_keeps_the_imaginary_part_of_a_complex_generator():
    m = LinearComplex()
    u0 = np.array([1.0, 0.5])
    exact = np.exp(0.5 * m.propagator.lam) * u0
    res = picard_solve(m, u0, 0.5, SolverConfig())
    march = run_simulation(m, u0, SolverConfig(dt=0.01, t_end=0.5,
                                               monitor_sigmas=(0.0,)))
    assert res.converged
    for got in (res.final_state, march.final_state):
        assert np.max(np.abs(got - exact)) <= 1e-12


def test_picard_rejects_defective_generator():
    jordan = Propagator.from_matrix(np.array([[-1.0, 1.0], [0.0, -1.0]]))
    cfg = SolverConfig()
    with pytest.raises(ValueError, match="diagonalizable"):
        picard_solve(SimpleNamespace(
            propagator=jordan, nonlinearity=lambda u: 0.0 * u,
            norm=lambda u, s: float(np.abs(u).max())),
            np.array([1.0, 0.0]), 0.5, cfg)


def test_graded_mesh_shape_and_clustering():
    tau = graded_mesh(2.0, 10, 2.0)
    assert tau[0] == 0.0 and tau[-1] == pytest.approx(2.0)
    h = np.diff(tau)
    assert np.all(np.diff(h) > 0.0)  # segments grow away from zero


def test_fit_decay_rate_linear_problem():
    cfg = SolverConfig(dt=0.01, t_end=2.0, monitor_sigmas=(0.0,))
    tr = run_simulation(ScalarLinear(-2.5), np.array([1.0]), cfg)
    fit = fit_decay_rate(tr, 0.0)
    assert fit.rate == pytest.approx(2.5, abs=1e-9)
    assert fit.amplitude == pytest.approx(1.0, rel=1e-9)


def test_fit_decay_rate_needs_samples():
    tr = Trajectory(times=np.array([0.0, 0.1]),
                    norms={0.0: np.array([1.0, 0.5])},
                    f_norms=np.zeros(2), weighted=None,
                    final_state=np.array([0.5]), final_time=0.1)
    with pytest.raises(ValueError, match="10"):
        fit_decay_rate(tr, 0.0)
    with pytest.raises(KeyError):
        fit_decay_rate(tr, 1.0)


@pytest.mark.parametrize("dt, t_end", [
    (1e-3, float("inf")), (float("inf"), 1.0), (1.0, 0.5),
    # step counts that overflow or exceed MAX_STEPS; no march is started
    (1e-300, 1e300), (1e-12, 1.0), (1.0, MAX_STEPS * (1.0 + 1e-15))])
def test_config_rejects_nonfinite_or_oversized_step(dt, t_end):
    with pytest.raises(ValueError, match="dt=.*t_end="):
        SolverConfig(dt=dt, t_end=t_end)


def test_config_accepts_the_step_cap():
    assert SolverConfig(dt=1.0, t_end=float(MAX_STEPS)).t_end == MAX_STEPS


def test_config_accepts_horizon_off_the_step_grid():
    assert SolverConfig(dt=0.3, t_end=1.0).t_end == 1.0


def _small_cloud():
    from mildflow.cloud import CloudCoefficients, CloudModel
    from mildflow.strip import periodic_strip, random_dirichlet_field

    geometry = periodic_strip(16, 12)
    model = CloudModel(CloudCoefficients(1.0, 0.5, 2.0), geometry)
    rng = np.random.default_rng(4)
    return model, model.state_from_field(random_dirichlet_field(geometry, rng))


@pytest.mark.parametrize("method", ["exp_euler", "etdrk2"])
@pytest.mark.parametrize("record_every", [1, 3])
def test_fixed_step_path_matches_step_exponential_loop(method, record_every):
    model, u0 = _small_cloud()
    dt, steps = 2e-3, 12
    cfg = SolverConfig(dt=dt, t_end=steps * dt, integrator=method,
                       record_every=record_every, monitor_sigmas=(0.0, 1.0),
                       weighted_sigma=1.5, weighted_mu=0.25)
    tr = run_simulation(model, u0, cfg)
    states = [u0]
    for _ in range(steps):
        states.append(step_exponential(states[-1], dt, model.propagator,
                                       model.nonlinearity, method)[0])
    scale = np.max(np.abs(states[-1]))
    assert not tr.flagged
    assert np.max(np.abs(tr.final_state - states[-1])) <= 1e-13 * scale
    recorded = states[::record_every]
    assert np.allclose(tr.times, dt * np.arange(0, steps + 1, record_every),
                       rtol=0.0, atol=1e-15)
    for sigma in (0.0, 1.0):
        ref = [model.norm(s, sigma) for s in recorded]
        assert np.max(np.abs(tr.norms[sigma] - ref)) <= 1e-13 * max(ref)
    ref_f = [model.norm(model.nonlinearity(s), 0.0) for s in recorded]
    assert np.max(np.abs(tr.f_norms - ref_f)) <= 1e-13 * max(ref_f)
    ref_w = [t ** 0.25 * model.norm(s, 1.5) if t > 0 else 0.0
             for t, s in zip(tr.times, recorded)]
    assert np.max(np.abs(tr.weighted - ref_w)) <= 1e-13 * max(ref_w)


def _counting(fn, calls):
    def counted(state):
        calls.append(1)
        return fn(state)
    return counted


@pytest.mark.parametrize("method, per_step", [("etdrk2", 2), ("exp_euler", 1)])
@pytest.mark.parametrize("record_every", [1, 3])
def test_f_is_evaluated_once_per_accepted_state(method, per_step, record_every):
    from mildflow.heat import QuasilinearHeatModel

    cloud, u0 = _small_cloud()
    heat = QuasilinearHeatModel(points=17)
    frozen_u0 = heat.state_from_function(lambda x: 0.01 * np.cos(np.pi * x))
    steps = 9
    cfg = SolverConfig(dt=1e-3, t_end=steps * 1e-3, integrator=method,
                       record_every=record_every, monitor_sigmas=(0.0, 1.0))
    for model, state in ((cloud, u0), (heat, frozen_u0)):
        calls = []
        model.nonlinearity = _counting(model.nonlinearity, calls)
        assert not run_simulation(model, state, cfg).flagged
        assert len(calls) == 1 + per_step * steps
