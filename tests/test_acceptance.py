"""Acceptance gate: fourteen verification criteria, one test each.

Every test prints a single pass/fail line (visible with pytest -s, and
always on failure) carrying the measured runtime against the stated
limit. Tolerances are asserted exactly as stated; nothing is loosened
to accommodate the implementation.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from mildflow.cloud import (
    CloudCoefficients,
    CloudModel,
    analytic_bound_nonperiodic,
    periodic_stability_margin,
    spectral_bound_numeric,
)
from mildflow.exponents import (
    beta_function,
    contraction_pair_sum,
    semilinear_recipe,
    validate_exponents,
)
from mildflow.heat import (
    PeriodicGrid,
    PeriodicHeatModel,
    SemilinearHeatModel,
    scaling_roundtrip_test,
    scaling_transform,
)
from mildflow.lab import (
    OMEGA0,
    FixedPointProblem,
    contraction_experiment,
    random_problem,
    run_fixed_point,
    select_parameters,
    verify_decay,
)
from mildflow.solver import (
    SolverConfig,
    fit_decay_rate,
    picard_solve,
    run_simulation,
)
from mildflow.strip import (
    apply_T,
    dirichlet_mode_field,
    from_grid,
    l2_norm,
    open_strip,
    periodic_strip,
)

SEMI = validate_exponents(0.1, 0.5, 0.8, 2.0)


def _verdict(num, label, ok, t0, limit):
    elapsed = time.time() - t0
    ok = bool(ok) and elapsed < limit
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} {status} ({elapsed:.2f}s / limit {limit:g}s): "
          f"{label}")
    assert ok, f"criterion {num}: {label} ({elapsed:.2f}s)"


def _planned_run(problem, rng, u0_factor=0.5):
    """Select certified contraction parameters and an in-ball state."""
    n_star = problem.lipschitz()
    pair_sum = contraction_pair_sum(problem.exponents)
    params = select_parameters(problem.exponents, n_star, pair_sum)
    direction = rng.standard_normal(problem.dimension)
    direction /= problem.norm(direction, problem.exponents.alpha)
    u0 = u0_factor * params.r * direction
    return params, u0


def test_criterion_01_boundary_operator_is_contraction():
    t0 = time.time()
    geometry = periodic_strip(64, 48)
    rng = np.random.default_rng(1)
    worst = -math.inf
    for _ in range(1000):
        w = from_grid(rng.standard_normal((geometry.nx, geometry.ny)),
                      geometry)
        worst = max(worst, l2_norm(apply_T(w), geometry) - l2_norm(w, geometry))
    _verdict(1, "1000 random fields: |Tw| <= |w| + 1e-10",
             worst <= 1e-10, t0, 10.0)


def test_criterion_02_driftless_bound_matches_closed_form():
    t0 = time.time()
    geometry = periodic_strip(16, 48)
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(10):
        nu = rng.uniform(0.5, 2.0)
        eta = rng.uniform(-1.0, 1.0)
        coeffs = CloudCoefficients(nu=nu, eta=eta, beta=0.0)
        numeric = spectral_bound_numeric(coeffs, geometry, n_max=6)
        worst = max(worst, abs(numeric - (eta - nu * math.pi ** 2)))
    _verdict(2, "beta = 0 spectral bound equals eta - nu pi^2 to 1e-6",
             worst <= 1e-6, t0, 5.0)


def test_criterion_03_open_strip_numeric_below_analytic():
    t0 = time.time()
    geometry = open_strip(128, 48, half_length=4.0 * math.pi)
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(100):
        coeffs = CloudCoefficients(nu=rng.uniform(0.5, 2.0),
                                   eta=rng.uniform(-1.0, 1.0),
                                   beta=rng.uniform(-2.0, 2.0))
        numeric = spectral_bound_numeric(coeffs, geometry)
        ok = ok and numeric <= analytic_bound_nonperiodic(coeffs) + 1e-6
    _verdict(3, "100 random coefficient triples on the 8 pi strip stay "
                "below the analytic bound", ok, t0, 120.0)


def test_criterion_04_stable_window_gives_negative_bound():
    t0 = time.time()
    geometry = periodic_strip(64, 48)
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(100):
        nu = rng.uniform(0.5, 2.0)
        beta = rng.uniform(-2.0, 2.0)
        cap = math.pi ** 2 * nu - beta ** 2 / (16.0 * nu)
        eta = cap - rng.uniform(0.05, 1.5)
        coeffs = CloudCoefficients(nu=nu, eta=eta, beta=beta)
        assert periodic_stability_margin(coeffs) > 0.0
        ok = ok and spectral_bound_numeric(coeffs, geometry) < 0.0
    _verdict(4, "100 triples inside eta + beta^2/(16 nu) < pi^2 nu have "
                "negative periodic bound", ok, t0, 120.0)


def test_criterion_05_small_data_weighted_decay():
    t0 = time.time()
    geometry = periodic_strip(64, 48)
    model = CloudModel(CloudCoefficients(nu=1.0, eta=0.0, beta=1.0), geometry)
    u0 = model.state_from_field(dirichlet_mode_field(geometry, n=1, m=1))
    u0_h1 = 1e-2
    u0 = u0 * (u0_h1 / model.norm(u0, 1.0))
    config = SolverConfig(dt=1e-3, t_end=5.0, integrator="etdrk2",
                          record_every=5, monitor_sigmas=(0.0, 1.0, 1.5),
                          weighted_sigma=1.5, weighted_mu=0.25)
    trajectory = run_simulation(model, u0, config)
    fit = fit_decay_rate(trajectory, 1.0, t_min=1.0)
    quotient = np.exp(0.5 * fit.rate * trajectory.times) \
        * (trajectory.norms[1.0] + trajectory.weighted)
    ok = (not trajectory.flagged) and fit.rate > 0.0 \
        and float(np.max(quotient)) < 10.0 * u0_h1
    _verdict(5, "cloud run to t = 5: fitted rate positive, weighted "
                "quotient below 10 |u0|_H1", ok, t0, 60.0)


def test_criterion_06_integrator_convergence_orders():
    t0 = time.time()
    geometry = periodic_strip(32, 24)
    model = CloudModel(CloudCoefficients(nu=1.0, eta=0.0, beta=1.0), geometry)
    u0 = model.state_from_field(dirichlet_mode_field(geometry, n=1, m=1))
    u0 = u0 * (0.5 / model.norm(u0, 1.0))
    t_end = 0.5

    def final_state(dt, integrator):
        config = SolverConfig(dt=dt, t_end=t_end, integrator=integrator,
                              record_every=10 ** 9, monitor_sigmas=(0.0,))
        trajectory = run_simulation(model, u0, config)
        assert not trajectory.flagged
        return trajectory.final_state

    reference = final_state(2.0 ** -13, "etdrk2")
    dts = [2.0 ** -k for k in range(6, 11)]
    slopes = {}
    for integrator in ("etdrk2", "exp_euler"):
        errors = [model.norm(final_state(dt, integrator) - reference, 0.0)
                  for dt in dts]
        slopes[integrator] = float(
            np.polyfit(np.log(dts), np.log(errors), 1)[0])
    ok = abs(slopes["etdrk2"] - 2.0) <= 0.3 \
        and abs(slopes["exp_euler"] - 1.0) <= 0.2
    _verdict(6, f"convergence orders etdrk2 {slopes['etdrk2']:.2f} "
                f"(2 +- 0.3), exp_euler {slopes['exp_euler']:.2f} "
                f"(1 +- 0.2)", ok, t0, 120.0)


def test_criterion_07_picard_agrees_with_stepper():
    t0 = time.time()
    geometry = periodic_strip(32, 24)
    model = CloudModel(CloudCoefficients(nu=1.0, eta=0.0, beta=1.0), geometry)
    u0 = model.state_from_field(dirichlet_mode_field(geometry, n=1, m=1))
    u0 = u0 * (0.3 / model.norm(u0, 1.0))
    t_local = 0.1
    config = SolverConfig(dt=1e-4, t_end=t_local, integrator="etdrk2",
                          record_every=10 ** 9, monitor_sigmas=(0.0,),
                          picard_segments=192, picard_tol=1e-12,
                          picard_max_iter=80)
    reference = run_simulation(model, u0, config).final_state
    result = picard_solve(model, u0, t_local, config)
    gap = model.norm(result.final_state - reference, 0.0) \
        / model.norm(reference, 0.0)
    ok = result.converged and gap < 1e-5
    _verdict(7, f"Picard iterate vs etdrk2 at t = {t_local}: relative L2 "
                f"gap {gap:.2e} < 1e-5", ok, t0, 60.0)


def test_criterion_08_parabolic_scaling_roundtrip():
    t0 = time.time()
    grid = PeriodicGrid(half_width=8.0 * math.pi, n=256)
    u0 = 0.5 * np.exp(-0.5 * grid.nodes ** 2)
    ok = True
    for lam in (2.0, 4.0):
        nonlinear = scaling_roundtrip_test(u0, lam, 0.25, 1e-3, "etdrk2", grid,
                                           kappa=5.0, nonlinear=True)
        linear = scaling_roundtrip_test(u0, lam, 0.25, 1e-3, "etdrk2", grid,
                                        kappa=5.0, nonlinear=False)
        ok = ok and nonlinear.discrepancy <= 1e-3 \
            and linear.discrepancy <= 1e-6
    _verdict(8, "kappa = 5 scaling roundtrip at lambda in {2, 4}: "
                "nonlinear <= 1e-3, pure heat <= 1e-6", ok, t0, 120.0)


def test_criterion_09_critical_seminorm_scale_invariant():
    t0 = time.time()
    grid = PeriodicGrid(half_width=8.0 * math.pi, n=256)
    x = grid.nodes

    # the |k|^{s_c} seminorm of lambda-rescaled data must match the
    # unscaled value; sin(2x) e^{-x^2/2} keeps the kappa = 6 weight
    # |k|^{2 s_c} away from its k = 0 cusp, s_c = 1/p - 2/(kappa-1)
    cases = [
        (6.0, semilinear_recipe(1, 2.0, 6.0).s_c,
         np.sin(2.0 * x) * np.exp(-0.5 * x ** 2)),
        (5.0, 0.0, np.exp(-0.5 * x ** 2)),
    ]
    worst = 0.0
    for kappa, s_c, data in cases:
        model = PeriodicHeatModel(grid, kind="semilinear", kappa=kappa)
        base = model.homogeneous_seminorm(model.state_from_values(data), s_c)
        for lam in (2.0, 4.0):
            scaled = scaling_transform(data, grid, lam, "semilinear", kappa)
            value = model.homogeneous_seminorm(
                model.state_from_values(scaled), s_c)
            worst = max(worst, abs(value - base) / base)
    _verdict(9, f"|k|^s_c seminorm of scaled data matches unscaled, worst "
                f"relative gap {worst:.1e} <= 1%", worst <= 0.01, t0, 10.0)


def test_criterion_10_fifty_random_contractions():
    t0 = time.time()
    rng = np.random.default_rng(1000)
    dims = rng.integers(2, 33, size=50)
    ok = True
    worst = 0.0
    for seed, dim in enumerate(dims):
        report = contraction_experiment(dim=int(dim), seed=seed)
        worst = max(worst, report["contraction_ratio"])
        ok = ok and report["converged"] \
            and report["contraction_ratio"] <= 0.5 \
            and all(rec["satisfied"]
                    for rec in report["inequalities"].values())
    _verdict(10, f"50 random problems (dim <= 32): selected parameters "
                 f"contract, worst ratio {worst:.2e} <= 0.5", ok, t0, 60.0)


def test_criterion_11_decay_oracles_and_logistic_closed_form():
    t0 = time.time()

    # linear scalar and diagonal problems: reported constants stay below
    # five times the semigroup constant
    ok = True
    for generator in (np.array([[-1.0]]), np.diag([-1.0, -4.0])):
        problem = FixedPointProblem(generator, SEMI, epsilon=0.0)
        report = verify_decay(problem, varpi=0.5,
                              direction=np.ones(generator.shape[0]))
        ok = ok and all(rec.bounded for rec in report.scales) \
            and report.m_report is not None \
            and report.m_report < 5.0 * OMEGA0

    # nonlinear scalar flow against the logistic closed form
    problem = FixedPointProblem(np.array([[-1.0]]), SEMI)
    rng = np.random.default_rng(0)
    params, _ = _planned_run(problem, rng)
    u0 = np.array([0.1 * params.r])
    result, ratio = run_fixed_point(problem, params, u0)
    decay = math.exp(-params.T)
    exact = float(u0[0]) * decay / (1.0 - float(u0[0]) * (1.0 - decay))
    gap = abs(result.final_state[0] - exact)
    ok = ok and result.converged and ratio <= 0.5 and gap <= 1e-8
    _verdict(11, f"decay constants below 5 omega0; logistic closed form "
                 f"matched to {gap:.1e} (<= 1e-8)", ok, t0, 30.0)


def test_criterion_12_beta_constants_against_quadrature():
    t0 = time.time()
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(50):
        a = rng.uniform(0.05, 4.0)
        b = rng.uniform(0.05, 4.0)
        oracle, _ = quad(lambda t: 1.0, 0.0, 1.0, weight="alg",
                         wvar=(a - 1.0, b - 1.0))
        worst = max(worst, abs(beta_function(a, b) - oracle) / oracle)
    _verdict(12, f"50 Beta evaluations vs adaptive quadrature, worst "
                 f"relative error {worst:.1e} <= 1e-10", worst <= 1e-10,
             t0, 5.0)


def test_criterion_13_blowup_flag_and_small_data_global():
    t0 = time.time()
    model = SemilinearHeatModel(intervals=64, kappa=6.0)

    large = model.state_from_function(lambda x: 50.0 * np.sin(np.pi * x))
    config = SolverConfig(dt=1e-5, t_end=1.0, integrator="etdrk2",
                          monitor_sigmas=(0.0, 1.0))
    exploding = run_simulation(model, large, config)
    h1 = exploding.norms[1.0]
    flagged_ok = exploding.flagged and exploding.blowup_time < 1.0 \
        and bool(np.all(np.diff(h1) >= 0.0))

    small = model.state_from_function(lambda x: np.sin(np.pi * x))
    small = small * (1e-2 / model.norm(small, 1.0))
    config = SolverConfig(dt=1e-3, t_end=5.0, integrator="etdrk2",
                          record_every=5, monitor_sigmas=(0.0, 1.0))
    settled = run_simulation(model, small, config)
    small_ok = (not settled.flagged) \
        and settled.norms[1.0][-1] < settled.norms[1.0][0]

    _verdict(13, "u0 = 50 sin(pi x) flags monotone blow-up before t = 1; "
                 "small data runs to t = 5 unflagged", flagged_ok and small_ok,
             t0, 60.0)


def test_criterion_14_continuous_dependence_under_halving():
    t0 = time.time()
    rng = np.random.default_rng(99)
    problem = random_problem(3, rng, epsilon=2.0)
    params, u0 = _planned_run(problem, rng)
    alpha = problem.exponents.alpha
    perturbation = rng.standard_normal(problem.dimension)
    perturbation /= problem.norm(perturbation, alpha)

    base, _ = run_fixed_point(problem, params, u0)
    constants = []
    for delta in (0.2 * params.r, 0.1 * params.r, 0.05 * params.r):
        shifted, _ = run_fixed_point(problem, params,
                                     u0 + delta * perturbation)
        gap = problem.norm(shifted.final_state - base.final_state, alpha)
        constants.append(gap / delta)
    low, high = min(constants), max(constants)
    variation = (high - low) / low
    ok = all(c > 0.0 for c in constants) and variation < 0.2
    _verdict(14, f"perturbation constants at delta, delta/2, delta/4 vary "
                 f"by {variation:.1e} (< 20%)", ok, t0, 60.0)
