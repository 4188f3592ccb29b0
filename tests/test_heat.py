"""Interval heat models: pointwise nonlinearities against closed forms,
divergence-form mass conservation, the parabolic scaling laws, and
Picard on the graded mesh against the march."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from mildflow.heat import (
    DiffusivitySpec,
    PeriodicGrid,
    PeriodicHeatModel,
    QuasilinearHeatModel,
    SemilinearHeatModel,
    nonlinearity_gradient,
    nonlinearity_semilinear,
    scaling_amplitude,
    scaling_roundtrip_test,
    scaling_transform,
)
from mildflow import solver
from mildflow.propagators import dense_phis
from mildflow.solver import (SolverConfig, fit_decay_rate, picard_solve,
                             run_simulation)
from oracles import phi_action_dense, scaling_transform_one_piece


# ---------- pointwise nonlinearities ----------

def test_semilinear_pointwise_values():
    assert nonlinearity_semilinear(np.array([0.0]), 6.0)[0] == 0.0
    assert nonlinearity_semilinear(np.array([-2.0]), 3.0)[0] == -8.0


def test_semilinear_odd_exactly():
    u = np.linspace(-2.0, 2.0, 17)
    left = nonlinearity_semilinear(-u, 6.0)
    right = -nonlinearity_semilinear(u, 6.0)
    assert np.array_equal(left, right)


def test_semilinear_lipschitz_estimate():
    # | |x|^{k-1}x - |y|^{k-1}y | <= k max(|x|,|y|)^{k-1} |x - y|
    rng = np.random.default_rng(31)
    kappa = 6.0
    for _ in range(200):
        u, v = rng.uniform(-3.0, 3.0, 2)
        lhs = abs(nonlinearity_semilinear(np.array([u]), kappa)[0]
                  - nonlinearity_semilinear(np.array([v]), kappa)[0])
        rhs = kappa * (abs(u) ** (kappa - 1) + abs(v) ** (kappa - 1)) * abs(u - v)
        assert lhs <= rhs + 1e-12


def test_semilinear_rejects_small_kappa():
    # the floor is 3 for both kinds, as the configuration checks it
    for kappa in (1.0, 2.0):
        with pytest.raises(ValueError, match="kappa"):
            PeriodicHeatModel(PeriodicGrid(), "semilinear", kappa=kappa)


def test_gradient_constant_profile_and_patch():
    assert np.all(nonlinearity_gradient(np.zeros(5), 4.0) == 0.0)
    assert nonlinearity_gradient(np.array([1.0]), 4.0)[0] == 1.0


def test_gradient_symbolic_oracle_cos_fourth():
    grid = PeriodicGrid(half_width=math.pi, n=64)
    model = PeriodicHeatModel(grid, "quasilinear", kappa=4.0)
    state = model.state_from_values(np.sin(grid.nodes))
    grad = model.values(1j * grid.wavenumbers * state)
    got = nonlinearity_gradient(grad, 4.0)
    assert np.max(np.abs(got - np.abs(np.cos(grid.nodes)) ** 4)) < 1e-8


def test_gradient_translation_invariance_exact():
    rng = np.random.default_rng(5)
    grid = PeriodicGrid(half_width=math.pi, n=32)
    model = PeriodicHeatModel(grid, "quasilinear", kappa=4.0)
    base = rng.standard_normal(32)
    a = model.nonlinearity(model.state_from_values(base))
    b = model.nonlinearity(model.state_from_values(base + 7.3))
    assert np.max(np.abs(a - b)) < 1e-13 * max(1.0, np.max(np.abs(a)))


def test_gradient_rejects_small_kappa():
    with pytest.raises(ValueError, match="kappa"):
        PeriodicHeatModel(PeriodicGrid(), "quasilinear", kappa=3.0)


# ---------- semilinear Dirichlet model ----------

def test_semilinear_model_norms_closed_form():
    m = SemilinearHeatModel(intervals=64, kappa=6.0)
    c = m.state_from_function(lambda x: np.sin(np.pi * x))
    assert c[0] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
    assert np.max(np.abs(c[1:])) < 1e-12
    assert m.norm(c, 0.0) == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert m.norm(c, 1.0) == pytest.approx(
        math.sqrt(0.5 * (1.0 + math.pi ** 2)), rel=1e-12)


def test_semilinear_linear_decay_rate_is_pi_squared():
    m = SemilinearHeatModel(intervals=32, kappa=6.0)
    m.nonlinearity = np.zeros_like
    u0 = m.state_from_function(lambda x: np.sin(np.pi * x))
    tr = run_simulation(m, u0, SolverConfig(dt=1e-3, t_end=0.5,
                                            monitor_sigmas=(0.0,)))
    fit = fit_decay_rate(tr, 0.0)
    assert fit.rate == pytest.approx(math.pi ** 2, rel=1e-9)


def test_semilinear_small_data_decay_window():
    # below the invariant neighborhood the fitted rate sits in (0, pi^2]
    m = SemilinearHeatModel(intervals=32, kappa=6.0)
    u0 = m.state_from_function(lambda x: 0.1 * np.sin(np.pi * x))
    tr = run_simulation(m, u0, SolverConfig(dt=1e-3, t_end=2.0,
                                            monitor_sigmas=(0.0,)))
    assert not tr.flagged
    fit = fit_decay_rate(tr, 0.0, t_min=0.2)
    assert 0.0 < fit.rate <= math.pi ** 2 + 1e-6


def test_semilinear_blowup_flag():
    m = SemilinearHeatModel(intervals=64, kappa=6.0)
    u0 = m.state_from_function(lambda x: 50.0 * np.sin(np.pi * x))
    tr = run_simulation(m, u0, SolverConfig(dt=1e-3, t_end=1.0,
                                            monitor_sigmas=(0.0,)))
    assert tr.flagged and tr.blowup_time < 1.0
    assert np.all(np.diff(tr.norms[0.0]) >= 0.0)


# ---------- quasilinear Neumann model ----------

def test_diffusivity_spec_validation_and_values():
    with pytest.raises(ValueError, match="kind"):
        DiffusivitySpec(kind="cubic")
    with pytest.raises(ValueError, match="a0"):
        DiffusivitySpec(a0=-1.0)
    spec = DiffusivitySpec("one_plus_square", a0=2.0)
    assert np.allclose(spec.evaluate(np.array([0.0, 1.0])), [2.0, 3.0])
    const = DiffusivitySpec("constant", a0=0.7)
    assert np.allclose(const.evaluate(np.array([5.0])), [0.7])


def test_quasilinear_constant_a_reduces_to_laplacian():
    q = QuasilinearHeatModel(points=33, kappa=4.0,
                             diffusivity=DiffusivitySpec("constant", 1.0))
    mat = q.operator_matrix(np.zeros(33))
    lam = np.sort(np.linalg.eigvals(mat).real)
    # modes 1..31 carry -(m pi)^2; mean and grid-invisible top mode are null
    want = np.sort(np.concatenate([[0.0, 0.0],
                                   -(np.arange(1, 32) * math.pi) ** 2]))
    assert np.max(np.abs(lam - want)) < 1e-8


def test_quasilinear_mass_conserved_without_forcing():
    q = QuasilinearHeatModel(points=65, kappa=4.0)
    q.nonlinearity = np.zeros_like
    u0 = q.state_from_function(lambda x: 0.3 * np.cos(np.pi * x) + 0.5)
    tr = run_simulation(q, u0, SolverConfig(dt=1e-3, t_end=0.3,
                                            monitor_sigmas=(0.0,)))
    assert abs(tr.final_state[0] - u0[0]) < 1e-8  # the mean is coefficient 0


def test_quasilinear_ellipticity_floor_raises():
    # a(u) >= a0 for both kinds, so the floor is checked once, on a0
    for kind in ("constant", "one_plus_square"):
        with pytest.raises(ValueError, match="floor"):
            DiffusivitySpec(kind, a0=1e-9)


def test_quasilinear_nonfinite_diffusivity_is_instability():
    q = QuasilinearHeatModel(points=17, kappa=4.0)
    u = q.state_from_function(lambda x: 1e200 * np.cos(np.pi * x))
    with np.errstate(over="ignore"), \
            pytest.raises(FloatingPointError, match="diffusivity"):
        q.operator_matrix(u)


def test_quasilinear_diffusivity_overflow_flags_before_the_first_step():
    # the L2 norm is finite (4.7e153), but a(u) = 1 + u^2 overflows in the
    # first operator_matrix, so the march stops at t = 0 without a step
    q = QuasilinearHeatModel(65)
    u0 = q.state_from_function(lambda x: 3e153 * sum(
        np.cos(k * np.pi * x) for k in range(1, 6)))
    assert np.isfinite(q.norm(u0, 0.0))
    with np.errstate(over="ignore"):
        tr = run_simulation(q, u0, SolverConfig(dt=1e-3, t_end=0.05))
    assert tr.blowup_reason == "nonfinite" and tr.blowup_time == 0.0
    assert tr.steps == 0 and tr.times.size == 1


def test_quasilinear_frozen_step_self_convergence():
    q = QuasilinearHeatModel(points=33, kappa=4.0)
    u0 = q.state_from_function(lambda x: 0.2 * np.cos(np.pi * x))
    finals = []
    steps = [0.02, 0.01, 0.005, 0.0025]
    for dt in steps:
        tr = run_simulation(q, u0, SolverConfig(dt=dt, t_end=0.2,
                                                monitor_sigmas=(0.0,)))
        finals.append(tr.final_state)
    errs = [np.linalg.norm(f - finals[-1]) for f in finals[:-1]]
    slope = np.polyfit(np.log(steps[:-1]), np.log(errs), 1)[0]
    assert slope > 0.9  # frozen-coefficient stepping keeps at least order one


def test_quasilinear_frozen_step_orders():
    # A(u_n) stays frozen for the whole step, so ETDRK2 is first order on
    # this model, as the solver docstring and README say. Slopes of the
    # final-state error per halving of dt = 2^-8..2^-11 against an ETDRK2
    # reference at 2^-14: exponential Euler 1.05, 1.03, 1.01; ETDRK2 1.82,
    # 1.39, 1.13. A second-order quasilinear step (ROADMAP item 1) would
    # move the ETDRK2 bound to 2 +- 0.3 (Hochbruck & Ostermann, Acta
    # Numerica 2010).
    q = QuasilinearHeatModel(points=33, kappa=4.0, p=2.5, tau=0.27)
    u0 = q.state_from_function(
        lambda x: 0.2 * np.cos(np.pi * x) + 0.1 * np.cos(2 * np.pi * x))

    def final_state(dt, integrator):
        config = SolverConfig(dt=dt, t_end=2.0 ** -4, integrator=integrator,
                              monitor_sigmas=(0.0,))
        return run_simulation(q, u0, config).final_state

    reference = final_state(2.0 ** -14, "etdrk2")
    slopes = {}
    for integrator in ("exp_euler", "etdrk2"):
        errs = np.array([np.linalg.norm(final_state(2.0 ** -k, integrator)
                                        - reference) for k in range(8, 12)])
        slopes[integrator] = np.log2(errs[:-1] / errs[1:])
    assert np.all(np.abs(slopes["exp_euler"] - 1.0) <= 0.2)
    assert slopes["etdrk2"][-1] < 1.5


def test_quasilinear_mean_decouples():
    # adding a constant shifts a(u) but the dynamics of the fluctuation
    # part see only that shifted diffusivity; the mean itself is static
    q = QuasilinearHeatModel(points=33, kappa=4.0)
    q.nonlinearity = np.zeros_like
    u0 = q.state_from_function(lambda x: np.cos(2 * np.pi * x) + 2.0)
    tr = run_simulation(q, u0, SolverConfig(dt=1e-3, t_end=0.1,
                                            monitor_sigmas=(0.0,)))
    assert tr.final_state[0] == pytest.approx(2.0, abs=1e-10)


def _quasilinear_cases():
    # both diffusivity kinds, a flat and two varying states each
    for spec in (DiffusivitySpec("constant", 0.7), DiffusivitySpec()):
        q = QuasilinearHeatModel(points=33, kappa=4.0, diffusivity=spec)
        for fn in (lambda x: 0.0 * x,
                   lambda x: 0.3 * np.cos(np.pi * x) + 0.5,
                   lambda x: np.cos(2 * np.pi * x) - 0.4 * np.cos(5 * np.pi * x)):
            yield q, q.state_from_function(fn)


def test_quasilinear_operator_exactly_symmetric_with_null_edges():
    for q, u in _quasilinear_cases():
        mat = q.operator_matrix(u)
        assert np.array_equal(mat, mat.T)
        # mean and grid-invisible top mode: zero rows and columns
        for idx in (0, q.points - 1):
            assert np.all(mat[idx] == 0.0) and np.all(mat[:, idx] == 0.0)


def test_quasilinear_operator_matches_three_product_assembly():
    # the former assembly: differentiate into sines, multiply by a(u) at
    # the interior nodes, project back onto sines, differentiate again
    for q, u in _quasilinear_cases():
        n = q.points
        sine_modes = np.arange(1, n - 1)
        sin_synth = np.sin(np.pi * np.outer(q.nodes[1:-1], sine_modes))
        sin_analyze = sin_synth.T * 2.0 / (n - 1)
        c2s = np.zeros((n - 2, n))
        c2s[np.arange(n - 2), np.arange(1, n - 1)] = -(sine_modes * math.pi)
        s2c = np.zeros((n, n - 2))
        s2c[np.arange(1, n - 1), np.arange(n - 2)] = sine_modes * math.pi
        a_vals = q.diffusivity.evaluate(q.nodal_values(u)[1:-1])
        old = s2c @ sin_analyze @ (a_vals[:, None] * (sin_synth @ c2s))
        gap = np.max(np.abs(q.operator_matrix(u) - old))
        assert gap <= 1e-13 * np.max(np.abs(old))


def test_quasilinear_frozen_factors_match_expm():
    # a frozen step's factors against expm and the augmented-exponential phi
    dt = 1e-3
    for q, u in _quasilinear_cases():
        mat = dt * q.operator_matrix(u)
        eye = np.eye(q.points)
        wants = (expm(mat), phi_action_dense(mat, eye, 1),
                 phi_action_dense(mat, eye, 2))
        for got, want in zip(dense_phis(mat), wants):
            assert got.dtype == np.float64
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_frozen_march_costs_one_dense_phis_per_step(monkeypatch):
    # each frozen step builds e^{hA}, phi1(hA) and phi2(hA) of A(u_n) by
    # one dense_phis, with no eigendecomposition and no inverse; a real
    # state keeps the three factors real
    q = QuasilinearHeatModel(points=33, kappa=4.0)
    u0 = q.state_from_function(lambda x: 0.3 * np.cos(np.pi * x) + 0.5)
    dtypes = []

    def counted(a):
        factors = dense_phis(a)
        dtypes.append(tuple(f.dtype for f in factors))
        return factors

    def refused(*args, **kwargs):
        raise AssertionError("a frozen step took eigh, eig or inv")

    monkeypatch.setattr(solver, "dense_phis", counted)
    for name in ("eigh", "eig", "inv"):
        monkeypatch.setattr(np.linalg, name, refused)
    steps = 12
    tr = run_simulation(q, u0, SolverConfig(dt=1e-3, t_end=steps * 1e-3,
                                            monitor_sigmas=(0.0,)))
    assert not tr.flagged and len(tr.times) == steps + 1
    assert dtypes == [(np.dtype(np.float64),) * 3] * steps


def test_heat_norms_bit_identical_with_cached_weights():
    q = QuasilinearHeatModel(points=33, kappa=4.0)
    s = SemilinearHeatModel(intervals=32, kappa=6.0)
    rng = np.random.default_rng(3)
    for model, modes, scale in [
            (q, np.arange(33), np.where(np.arange(33) == 0, 1.0, 0.5)),
            (s, np.arange(1, 32), 1.0)]:
        state = rng.standard_normal(modes.size)
        for sigma in (0.0, 1.0, 0.635, 1.0):
            weights = (1.0 + (modes * math.pi) ** 2) ** sigma * scale
            want = float(np.sqrt(np.sum(weights * np.abs(state) ** 2)))
            assert model.norm(state, sigma) == want
        assert model._norm_weights(1.0) is model._norm_weights(1.0)


# ---------- periodic surrogate and scaling ----------

def test_periodic_grid_validation():
    with pytest.raises(ValueError, match="even"):
        PeriodicGrid(n=17)
    with pytest.raises(ValueError, match="half_width"):
        PeriodicGrid(half_width=0.0)


def test_periodic_norm_gaussian_closed_form():
    grid = PeriodicGrid()
    model = PeriodicHeatModel(grid, "semilinear", kappa=5.0)
    state = model.state_from_values(np.exp(-grid.nodes ** 2 / 2.0))
    # int exp(-x^2) dx = sqrt(pi); boundary truncation is negligible
    assert model.norm(state, 0.0) == pytest.approx(math.pi ** 0.25, rel=1e-10)


def test_scaling_amplitude_factors():
    assert scaling_amplitude(4.0, "semilinear", 5.0) == pytest.approx(
        math.sqrt(2.0), rel=1e-14)
    assert scaling_amplitude(2.0, "quasilinear", 4.0) == pytest.approx(
        2.0 ** (-1.0 / 3.0), rel=1e-14)
    with pytest.raises(ValueError, match="kind"):
        scaling_amplitude(2.0, "hyperbolic", 4.0)


def test_scaling_identity_and_gaussian_closed_form():
    grid = PeriodicGrid()
    u0 = np.exp(-grid.nodes ** 2 / 2.0)
    assert np.max(np.abs(scaling_transform(u0, grid, 1.0, "semilinear", 5.0)
                         - u0)) < 1e-12
    out = scaling_transform(u0, grid, 4.0, "semilinear", 5.0)
    ref = math.sqrt(2.0) * np.exp(-(2.0 * grid.nodes) ** 2 / 2.0)
    assert np.max(np.abs(out - ref)) < 1e-12
    shrink = scaling_transform(u0, grid, 0.5, "semilinear", 5.0)
    ref2 = 0.5 ** 0.25 * np.exp(-0.5 * grid.nodes ** 2 / 2.0)
    assert np.max(np.abs(shrink - ref2)) < 1e-12


def test_scaling_support_guard():
    grid = PeriodicGrid()
    wide = np.exp(-(grid.nodes / 20.0) ** 2)
    with pytest.raises(ValueError, match="support exits box"):
        scaling_transform(wide, grid, 0.25, "semilinear", 5.0)
    with pytest.raises(ValueError, match="lambda"):
        scaling_transform(wide, grid, -1.0, "semilinear", 5.0)
    # sqrt(inf) would stretch every node out of reach: NaN everywhere
    with pytest.raises(ValueError, match="lambda"):
        scaling_transform(np.exp(-grid.nodes ** 2), grid, math.inf,
                          "semilinear", 5.0)


@pytest.mark.parametrize("kind", ["semilinear", "quasilinear"])
@pytest.mark.parametrize("n, lam", [
    (n, lam) for n in (16, 256, 2048) for lam in (0.25, 2.0, 4.0)
    # 16 points hold no data that stays inside the box when spread 2x:
    # the support guard refuses it
    if (n, lam) != (16, 0.25)])
def test_blocked_resampler_matches_the_one_piece_basis(n, lam, kind):
    # row blocks change where the basis is stored, not what is summed
    grid = PeriodicGrid(n=n)
    u0 = np.exp(-grid.nodes ** 2 / 2.0) * (1.0 + 0.3 * np.sin(grid.nodes))
    assert np.array_equal(scaling_transform(u0, grid, lam, kind, 5.0),
                          scaling_transform_one_piece(u0, grid, lam, kind, 5.0))


def test_resampler_peak_is_linear_in_n():
    # a one-piece basis would peak at 128 MiB at n = 4096, 15x its n = 1024 peak
    def peak(n):
        grid = PeriodicGrid(n=n)
        u0 = np.exp(-grid.nodes ** 2 / 2.0)
        tracemalloc.start()
        try:
            scaling_transform(u0, grid, 4.0, "semilinear", 5.0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(1024), peak(4096)
    assert large <= 32 << 20
    assert large <= 5 * small


def test_critical_seminorm_invariance():
    grid = PeriodicGrid()
    model = PeriodicHeatModel(grid, "semilinear", kappa=6.0)
    u0 = np.sin(2.0 * grid.nodes) * np.exp(-grid.nodes ** 2 / 2.0)
    for kappa, s_c in [(5.0, 0.0), (6.0, 0.1)]:
        base = model.homogeneous_seminorm(model.state_from_values(u0), s_c)
        for lam in (2.0, 4.0):
            scaled = scaling_transform(u0, grid, lam, "semilinear", kappa)
            val = model.homogeneous_seminorm(model.state_from_values(scaled), s_c)
            assert val == pytest.approx(base, rel=1e-4)


def test_roundtrip_pure_heat_exact():
    grid = PeriodicGrid()
    u0 = 0.5 * np.exp(-grid.nodes ** 2 / 2.0)
    rep = scaling_roundtrip_test(u0, 4.0, 0.1, 1e-3, "etdrk2", grid,
                                 "semilinear", 5.0, nonlinear=False)
    assert rep.discrepancy < 1e-6


def test_roundtrip_semilinear_and_quasilinear():
    grid = PeriodicGrid()
    u0 = 0.5 * np.exp(-grid.nodes ** 2 / 2.0)
    rep = scaling_roundtrip_test(u0, 2.0, 0.1, 1e-3, "etdrk2", grid,
                                 "semilinear", 5.0)
    assert rep.discrepancy < 1e-3
    rep = scaling_roundtrip_test(u0, 2.0, 0.1, 1e-3, "etdrk2", grid,
                                 "quasilinear", 4.0)
    assert rep.discrepancy < 1e-3


# ---------- Picard on the graded mesh ----------

@pytest.mark.parametrize("kind", ["sine", "periodic"])
def test_picard_agrees_with_the_march(kind):
    # K = 128 graded segments against ETDRK2 at dt = 1e-4 to T = 0.05;
    # the sine gap is Picard's mesh error (1.4e-6 at K = 64, 6e-8 at 256)
    if kind == "sine":
        model = SemilinearHeatModel(64, kappa=6.0)
        u0 = model.state_from_function(
            lambda x: np.sin(np.pi * x) + 0.3 * np.sin(3.0 * np.pi * x))
        sigma, tol = 1.0, 1e-6
    else:
        model = PeriodicHeatModel(PeriodicGrid(8.0, 128), kappa=5.0)
        u0 = model.state_from_values(0.5 * np.exp(-model.grid.nodes ** 2 / 2.0))
        sigma, tol = 0.0, 1e-8
    picard = picard_solve(model, u0, 0.05, SolverConfig(picard_segments=128))
    march = run_simulation(model, u0, SolverConfig(dt=1e-4, t_end=0.05))
    assert picard.converged and picard.iterations <= 6
    assert not march.flagged
    gap = model.norm(picard.final_state - march.final_state, sigma)
    assert gap < tol * model.norm(march.final_state, sigma)


def test_picard_stops_unconverged_when_the_iterates_overflow():
    # u0 = 2 sin(pi x) blows up before T = 0.1 at kappa = 6: the sweeps
    # overflow, and the first distance that is not finite ends them; the
    # suite makes a RuntimeWarning an error, so they must overflow quietly
    model = SemilinearHeatModel(32, kappa=6.0)
    u0 = model.state_from_function(lambda x: 2.0 * np.sin(np.pi * x))
    config = SolverConfig(picard_segments=32, picard_tol=1e-12)
    result = picard_solve(model, u0, 0.1, config)
    assert not result.converged
    assert result.iterations == len(result.distances) < config.picard_max_iter
    assert np.isfinite(result.distances[:-1]).all()
    assert not np.isfinite(result.distances[-1])
