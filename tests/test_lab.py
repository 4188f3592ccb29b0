"""Tests for the matrix-scale fixed-point laboratory."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from mildflow.exponents import BetaConstants, validate_exponents
from mildflow.lab import (
    ContractionParameters,
    FixedPointDivergence,
    FixedPointProblem,
    InfeasibleProblem,
    SemigroupConstants,
    check_contraction_inequalities,
    contraction_experiment,
    decay_experiment,
    estimate_semigroup_constants,
    random_problem,
    run_fixed_point,
    select_parameters,
    tail_profile,
    verify_decay,
)
from oracles import phi_action_dense, sampled_lipschitz, sampled_semigroup_sup

# Oracles ------------------------------------------------------------------

def logistic_exact(u0, t):
    """Closed form of u' = -u + u^2."""
    decay = np.exp(-t)
    return u0 * decay / (1.0 - u0 * (1.0 - decay))


def mode_sup_exact(delta):
    """sup_t (t * lam)^delta e^{-lam t} = (delta/e)^delta, lam-independent."""
    return 1.0 if delta == 0.0 else (delta / math.e) ** delta


# Frozen bound of the Lipschitz budget for omega0=1, N*=1, q=2 and
# exponents (0.1, 0.5, 0.8): 1 / (8 * (B(0.6,0.4) + B(0.3,0.4))).
FROZEN_L_BOUND = 0.014853796028005788

SEMI = validate_exponents(0.1, 0.5, 0.8, 2.0)
UNIT_CONSTANTS = SemigroupConstants(omega0=1.0)
SEMI_BETA = BetaConstants.from_exponents(SEMI)


def scalar_problem(epsilon=1.0):
    return FixedPointProblem(np.array([[-1.0]]), SEMI, epsilon=epsilon)


def level_pairs(exps):
    """(theta, vartheta) of every semigroup estimate of the contraction
    argument."""
    return sorted({(0.0, 0.0), (exps.alpha, exps.gamma), (exps.xi, exps.gamma),
                   (exps.xi, exps.alpha)})


def fractional_norm(generator, theta, vector):
    return FixedPointProblem(generator, SEMI).norm(vector, theta)


# Fractional norms ----------------------------------------------------------

def test_fractional_norm_frozen_values():
    a = np.diag([-1.0, -4.0])
    x = np.array([1.0, 1.0])
    assert fractional_norm(a, 0.5, x) == pytest.approx(math.sqrt(5.0), rel=1e-14)
    assert fractional_norm(a, 0.0, x) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert fractional_norm(a, 1.0, x) == pytest.approx(math.sqrt(17.0), rel=1e-14)


def test_fractional_norm_rejects_bad_input():
    with pytest.raises(ValueError, match="theta"):
        fractional_norm(np.diag([-1.0]), 1.5, np.ones(1))
    with pytest.raises(ValueError, match="symmetric"):
        fractional_norm(np.array([[-1.0, 3.0], [0.0, -2.0]]), 0.5, np.ones(2))
    with pytest.raises(ValueError, match="negative definite"):
        fractional_norm(np.diag([1.0, -2.0]), 0.5, np.ones(2))


def test_interpolation_inequality_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        dim = int(rng.integers(2, 16))
        rates = rng.uniform(0.3, 20.0, dim)
        basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        a = -(basis * rates) @ basis.T
        a = 0.5 * (a + a.T)
        x = rng.standard_normal(dim)
        theta = rng.uniform(0.0, 1.0)
        lhs = fractional_norm(a, theta, x)
        rhs = fractional_norm(a, 0.0, x) ** (1.0 - theta) \
            * fractional_norm(a, 1.0, x) ** theta
        assert lhs <= rhs * (1.0 + 1e-12)


def test_log_convexity_in_theta():
    rng = np.random.default_rng(4)
    prob = random_problem(9, rng)
    x = rng.standard_normal(9)
    for _ in range(50):
        ta, tb = np.sort(rng.uniform(0.0, 1.0, 2))
        mid = prob.norm(x, 0.5 * (ta + tb))
        assert mid ** 2 <= prob.norm(x, ta) * prob.norm(x, tb) * (1.0 + 1e-10)


# Semigroup constants --------------------------------------------------------

def test_semigroup_constants_scalar_frozen():
    problem = scalar_problem()
    consts = estimate_semigroup_constants(problem)
    assert consts == SemigroupConstants(omega0=1.0)
    # (0, 0), (alpha, gamma), (xi, gamma) and (xi, alpha)
    pairs = level_pairs(SEMI)
    assert pairs == [(0.0, 0.0), (0.5, 0.1), (0.8, 0.1), (0.8, 0.5)]
    by_pair = {pair: sampled_semigroup_sup(problem, *pair) for pair in pairs}
    assert by_pair[(0.0, 0.0)] == consts.omega0
    assert by_pair[(0.8, 0.1)] == pytest.approx(0.7 ** 0.7 / math.e ** 0.7,
                                                rel=1e-3)
    assert max(by_pair.values()) <= consts.omega0


def test_semigroup_constants_two_mode_closed_form():
    prob = FixedPointProblem(np.diag([-1.0, -10.0]), SEMI)
    assert estimate_semigroup_constants(prob).omega0 == 1.0
    for theta, vartheta in level_pairs(SEMI):
        sup = sampled_semigroup_sup(prob, theta, vartheta)
        assert sup == pytest.approx(mode_sup_exact(theta - vartheta), rel=1e-4)
        assert sup <= 1.0
    assert sampled_semigroup_sup(prob, 0.8, 0.5) == pytest.approx(
        (0.3 / math.e) ** 0.3, rel=1e-4)


def test_closed_form_constants_bound_their_samples():
    # sampled sups are lower bounds of the closed forms; at dim 1 the
    # Lipschitz bound is sharp, so its samples reach it up to rounding
    for dim in range(1, 41):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            problem = random_problem(dim, rng)
            n_star = problem.lipschitz()
            assert sampled_lipschitz(problem, rng) <= n_star * (1.0 + 1e-9)
            omega0 = estimate_semigroup_constants(problem).omega0
            for theta, vartheta in level_pairs(problem.exponents):
                assert sampled_semigroup_sup(problem, theta, vartheta) <= omega0


def test_semigroup_constants_type_validation():
    with pytest.raises(ValueError, match="omega0"):
        SemigroupConstants(omega0=0.5)


# Parameter selection --------------------------------------------------------

def test_select_parameters_frozen_contraction_budget():
    params = select_parameters(UNIT_CONSTANTS, SEMI, 1.0, SEMI_BETA)
    assert params.L == pytest.approx(0.9 * FROZEN_L_BOUND, rel=1e-9)
    assert params.L <= FROZEN_L_BOUND
    # r caps at 0.9 * L / (4 * omega0), below the 0.999 cap
    assert params.r == pytest.approx(0.9 * params.L / 4.0, rel=1e-12)
    assert params.T == 0.99


def test_select_parameters_revalidation_slack():
    # u0 = 0.1 has a tail t^mu |u0| e^-t far above L/4 = 3.3e-3 at T = 0.99,
    # so the horizon is bisected; the bisected T is a plain float, which
    # the JSON reports need
    profile = tail_profile(scalar_problem(), np.array([0.1]))
    params = select_parameters(UNIT_CONSTANTS, SEMI, 1.0, SEMI_BETA,
                               m_profile=profile)
    assert type(params.T) is float and params.T < 1e-3
    slacks = check_contraction_inequalities(params, UNIT_CONSTANTS, SEMI, 1.0,
                                            SEMI_BETA, profile)
    assert set(slacks) == {"lipschitz_budget", "ball_radius", "tail_smallness"}
    assert all(value <= 1e-12 for value in slacks.values())


def test_select_parameters_large_q_cap():
    levels = []
    for q in (2.0, 51.0, 2001.0):
        exps = validate_exponents(0.1, 0.5, 0.5 + 0.6 / q, q)
        levels.append(select_parameters(
            UNIT_CONSTANTS, exps, 1.0, BetaConstants.from_exponents(exps)).L)
    assert levels == sorted(levels)
    assert 0.88 <= levels[-1] <= 0.9 + 1e-12


def test_select_parameters_infeasible_names_budget():
    with pytest.raises(InfeasibleProblem) as err:
        select_parameters(UNIT_CONSTANTS, SEMI, 1e9, SEMI_BETA)
    assert err.value.binding == "lipschitz_budget"


def test_select_parameters_semilinear_window_free():
    consts = SemigroupConstants(omega0=1.0)
    beta_consts = BetaConstants.from_exponents(SEMI)
    params = select_parameters(consts, SEMI, 1.0, beta_consts)
    slacks = check_contraction_inequalities(params, consts, SEMI, 1.0,
                                            beta_consts)
    assert set(slacks) == {"lipschitz_budget", "ball_radius"}
    assert params.T == pytest.approx(0.99)


def test_lab_refuses_exponent_sets_with_beta_exp():
    # the lab's generator is fixed: a Hoelder level has nothing to measure
    quasi = validate_exponents(0.1, 0.5, 0.8, 2.0, beta_exp=0.2)
    params = ContractionParameters(L=0.01, r=0.002, T=0.5)
    with pytest.raises(ValueError, match="beta_exp"):
        select_parameters(UNIT_CONSTANTS, quasi, 1.0, SEMI_BETA)
    with pytest.raises(ValueError, match="beta_exp"):
        check_contraction_inequalities(params, UNIT_CONSTANTS, quasi, 1.0,
                                       SEMI_BETA)
    with pytest.raises(ValueError, match="beta_exp"):
        FixedPointProblem(np.array([[-1.0]]), quasi)


def test_contraction_parameters_range_validation():
    with pytest.raises(ValueError, match="L"):
        ContractionParameters(L=0.0, r=0.1, T=0.1)
    with pytest.raises(ValueError, match="T"):
        ContractionParameters(L=0.1, r=0.1, T=1.5)


def test_tail_profile_monotone_and_small_for_ball_data():
    rng = np.random.default_rng(3)
    prob = random_problem(7, rng)
    u0 = rng.standard_normal(7)
    u0 *= 1e-2 / prob.norm(u0, prob.exponents.alpha)
    profile = tail_profile(prob, u0)
    ts = np.geomspace(1e-10, 0.9, 40)
    vals = [profile(t) for t in ts]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    # weighted tail of ball data stays below the ball radius itself
    assert max(vals) <= 1e-2


def test_problem_propagator_reuses_cached_eigenbasis():
    prob = random_problem(6, np.random.default_rng(4))
    prop = prob.propagator
    assert np.array_equal(prop.lam, -prob.spectrum)
    v = np.random.default_rng(5).standard_normal(prob.dimension)
    dt = 0.2
    mat = dt * prob.generator
    checks = [(prop.propagate(dt, v), expm(mat) @ v),
              (prop.phi1_action(dt, v), phi_action_dense(mat, v, 1)),
              (prop.phi2_action(dt, v), phi_action_dense(mat, v, 2))]
    for got, want in checks:
        assert got.dtype == np.float64
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


# Nonlinearity contract ------------------------------------------------------

def test_default_nonlinearity_vanishes_at_origin():
    rng = np.random.default_rng(5)
    for _ in range(20):
        prob = random_problem(int(rng.integers(1, 9)), rng)
        fz = prob.nonlinearity(np.zeros(prob.dimension))
        assert prob.norm(fz, prob.exponents.gamma) == 0.0


def test_lipschitz_estimate_scalar_quadratic():
    # for |u| u the ratio is at most 1 because ||w|w - |v|v| <= (|w| + |v|)
    # |w - v|, with equality as v -> w: the closed form is sharp here
    problem = scalar_problem()
    n_star = problem.lipschitz()
    assert n_star == 1.0
    # nearly coincident pairs reach it up to the rounding of their gap
    sampled = sampled_lipschitz(problem, np.random.default_rng(0))
    assert 0.99 <= sampled <= 1.0 + 1e-9


# Fixed-point runs -----------------------------------------------------------

def plan_for(problem, rng, u0_factor=0.9):
    consts = estimate_semigroup_constants(problem)
    n_star = problem.lipschitz()
    beta_consts = BetaConstants.from_exponents(problem.exponents)
    first = select_parameters(consts, problem.exponents, n_star, beta_consts)
    direction = rng.standard_normal(problem.dimension)
    direction /= problem.norm(direction, problem.exponents.alpha)
    u0 = u0_factor * first.r * direction
    params = select_parameters(consts, problem.exponents, n_star, beta_consts,
                               m_profile=tail_profile(problem, u0))
    return params, u0


def test_fixed_point_matches_logistic_closed_form():
    prob = scalar_problem()
    rng = np.random.default_rng(0)
    params, _ = plan_for(prob, rng)
    u0 = np.array([0.1 * params.r])
    result, ratio = run_fixed_point(prob, params, u0)
    exact = logistic_exact(float(u0[0]), params.T)
    assert result.final_state[0] == pytest.approx(exact, abs=1e-8)
    assert ratio <= 0.5
    assert result.converged


def test_fixed_point_zero_initial_value():
    prob = scalar_problem()
    params = ContractionParameters(L=0.01, r=0.002, T=0.5)
    result, ratio = run_fixed_point(prob, params, np.zeros(1))
    assert ratio == 0.0
    assert float(np.abs(result.final_state).max()) == 0.0


def test_fixed_point_divergence_names_the_sweeps_it_ran():
    # epsilon = 100 overflows the iterates within a few sweeps, far below
    # PICARD_CONFIG's 60
    prob = scalar_problem(epsilon=100.0)
    params = ContractionParameters(L=0.5, r=0.5, T=0.9)
    with pytest.raises(FixedPointDivergence,
                       match="within 8 sweeps") as caught:
        run_fixed_point(prob, params, np.array([0.5]))
    assert caught.value.ratios.size == 7


def test_fixed_point_divergence_names_the_largest_ratio():
    # the ratio printed is ratios.max() over the whole run
    prob = scalar_problem(epsilon=100.0)
    params = ContractionParameters(L=0.5, r=0.5, T=0.9)
    with pytest.raises(FixedPointDivergence,
                       match=r"\(largest ratio inf\)$") as caught:
        run_fixed_point(prob, params, np.array([0.5]))
    assert caught.value.ratios.max() == np.inf


def test_fixed_point_rejects_out_of_ball_data():
    prob = scalar_problem()
    params = ContractionParameters(L=0.01, r=0.002, T=0.5)
    with pytest.raises(ValueError, match="contraction ball"):
        run_fixed_point(prob, params, np.array([0.01]))


def test_random_problem_rejects_empty_dimension():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="dim must be at least 1, got 0"):
        random_problem(0, rng)


def test_random_problem_dimension_storage_limit():
    # six float64 (dim, dim) matrices fit in 1 GiB up to dim 4729
    with pytest.raises(ValueError, match="dim 4730: .*storage limit"):
        random_problem(4730, np.random.default_rng(0))
    with pytest.raises(ValueError, match="storage limit"):
        random_problem(100000, np.random.default_rng(0))


def test_random_problems_contract_within_iteration_budget():
    # geometric convergence at rate <= 1/2 bounds the sweep count by
    # ceil(log(tol) / log(1/2)) + 5 for the relative tolerance in use
    budget = math.ceil(math.log(1e-10) / math.log(0.5)) + 5
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        prob = random_problem(int(rng.integers(2, 13)), rng)
        params, u0 = plan_for(prob, rng)
        result, ratio = run_fixed_point(prob, params, u0)
        assert result.converged
        assert result.iterations <= budget
        worst = max(worst, ratio)
    assert worst <= 0.5


# Decay verification ---------------------------------------------------------

def test_verify_decay_linear_semigroup():
    rng = np.random.default_rng(7)
    prob = random_problem(6, rng, epsilon=0.0)
    consts = estimate_semigroup_constants(prob)
    varpi = 0.5 * prob.lambda_min
    report = verify_decay(prob, varpi, scales=(1e-3, 1e-1, 1.0), rng=rng)
    assert all(rec.bounded for rec in report.scales)
    assert report.largest_passing_scale == 1.0
    mu = prob.exponents.mu
    shift = (prob.lambda_min / (prob.lambda_min - varpi)) ** mu
    honest = 1.0 + (mu / math.e) ** mu * shift
    assert report.m_report <= honest * 1.005
    assert report.m_report < 5.0 * consts.omega0
    assert report.m_report >= 1.0  # the t=0 sample alone contributes 1


def test_verify_decay_flags_supercritical_scale():
    prob = scalar_problem()
    report = verify_decay(prob, 0.5, scales=(1e-3, 5.0),
                          direction=np.array([1.0]))
    small, large = report.scales
    assert small.bounded and small.quotient < 5.0
    assert not large.bounded
    assert large.blowup_time is not None
    assert report.largest_passing_scale == pytest.approx(1e-3)
    assert report.m_report == pytest.approx(small.quotient)


def test_verify_decay_varpi_precondition():
    prob = scalar_problem()
    with pytest.raises(ValueError, match="varpi"):
        verify_decay(prob, 1.5)
    with pytest.raises(ValueError, match="varpi"):
        verify_decay(prob, 0.0)


# Experiment reports ---------------------------------------------------------

def test_contraction_experiment_report_shape():
    import json

    report = contraction_experiment(dim=6, seed=3)
    assert report["converged"]
    assert report["contraction_ratio"] <= 0.5
    # plain bools, which the default json encoder writes
    assert all(entry["satisfied"] is True
               for entry in report["inequalities"].values())
    json.dumps(report)


def test_decay_experiment_report_shape():
    import json

    report = decay_experiment(dim=5, seed=2)
    assert report["largest_passing_scale"] is not None
    assert report["m_report"] < 5.0 * report["omega0"]
    json.dumps(report)

