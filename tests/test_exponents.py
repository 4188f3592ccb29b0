"""Exponent arithmetic against quadrature and closed-form oracles.

The Beta-constant oracle integrates t^(a-1) (1-t)^(b-1) with the QUADPACK
algebraic-endpoint rule, independent of the log-Gamma evaluation under test.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mildflow.exponents import (
    ExponentError,
    beta_constant,
    contraction_pair_sum,
    quasilinear_recipe,
    semilinear_recipe,
    validate_exponents,
)


def beta_oracle(a, b):
    # weight='alg' with wvar=(a-1, b-1) integrates the singular endpoints
    # exactly in the QUADPACK sense; f is the remaining smooth factor (1).
    value, _ = quad(lambda t: 1.0, 0.0, 1.0, weight="alg", wvar=(a - 1.0, b - 1.0))
    return value


# ---------------------------------------------------------------------------
# validate_exponents


def test_cloud_exponents_valid():
    exps = validate_exponents(gamma=0.0, alpha=0.5, xi=0.75, q=2.0)
    assert exps.mu == pytest.approx(0.25, abs=1e-15)
    assert exps.beta_exp is None


def test_quasilinear_style_exponents_valid():
    exps = validate_exponents(gamma=0.1, alpha=0.5, xi=0.8, q=2.0, beta_exp=0.2)
    residual = exps.q * (exps.xi - exps.alpha) - (1.0 + exps.gamma - exps.alpha)
    assert abs(residual) == 0.0
    assert exps.beta_exp == 0.2


def test_identity_violation_reports_residual():
    with pytest.raises(ExponentError) as err:
        validate_exponents(gamma=0.0, alpha=0.5, xi=0.75, q=3.0)
    assert "critical identity" in str(err.value)
    # residual 3*(1/4) - 1/2 = 1/4
    assert "2.5" in str(err.value) or "0.25" in str(err.value)


def test_ordering_violation_named():
    with pytest.raises(ExponentError) as err:
        validate_exponents(gamma=0.6, alpha=0.5, xi=0.75, q=2.0)
    assert "ordering" in str(err.value)


def test_gamma_zero_xi_one_excluded():
    # q = (1+0-alpha)/(1-alpha) = 1 fails the q > 1 requirement.
    with pytest.raises(ExponentError):
        validate_exponents(gamma=0.0, alpha=0.5, xi=1.0, q=1.0)


@given(
    gamma=st.floats(0.0, 0.3),
    alpha_gap=st.floats(0.05, 0.4),
    xi_gap=st.floats(0.05, 0.3),
)
@settings(max_examples=200, deadline=None)
def test_identity_residual_zero_by_construction(gamma, alpha_gap, xi_gap):
    alpha = gamma + alpha_gap
    xi = min(alpha + xi_gap, 0.99)
    if xi <= alpha:
        return
    q = (1.0 + gamma - alpha) / (xi - alpha)
    exps = validate_exponents(gamma=gamma, alpha=alpha, xi=xi, q=q)
    assert abs(exps.q * exps.mu - (1.0 + gamma - alpha)) <= 1e-12
    assert exps.mu * exps.q < 1.0


# ---------------------------------------------------------------------------
# beta_constant


def test_beta_half_half_is_pi():
    assert beta_constant(0.0, 0.5, 0.25, 2.0) == pytest.approx(math.pi, rel=1e-14)


def test_beta_one_one():
    assert beta_constant(0.0, 0.0, 0.0, 2.0) == pytest.approx(1.0, rel=1e-14)


def test_beta_quarter_half_frozen():
    # Oracle (QUADPACK) value frozen: B(1/4, 1/2) = 5.244115108584242.
    got = beta_constant(0.0, 0.75, 0.25, 2.0)
    assert got == pytest.approx(5.244115108584242, rel=1e-12)
    assert got == pytest.approx(beta_oracle(0.25, 0.5), rel=1e-10)


def test_beta_against_quadrature_oracle_50_random():
    import numpy as np

    rng = np.random.default_rng(20240817)
    for _ in range(50):
        gamma = rng.uniform(0.0, 0.4)
        theta = rng.uniform(gamma, min(1.0, 1.0 + gamma - 0.05))
        muq = rng.uniform(0.0, 0.9)
        a, b = 1.0 + gamma - theta, 1.0 - muq
        got = beta_constant(gamma, theta, muq, 1.0)
        assert got == pytest.approx(beta_oracle(a, b), rel=1e-10)


def test_beta_rejects_nonpositive_argument():
    with pytest.raises(ExponentError):
        beta_constant(0.0, 1.2, 0.25, 2.0)


def test_beta_constants_monotone_in_theta():
    exps = validate_exponents(gamma=0.1, alpha=0.5, xi=0.8, q=2.0, beta_exp=0.2)
    consts = [beta_constant(exps.gamma, theta, exps.mu, exps.q)
              for theta in (exps.gamma, exps.alpha, exps.xi)]
    assert consts[1] < consts[2]  # B_alpha < B_xi
    assert all(v > 0.0 and math.isfinite(v) for v in consts)


def test_contraction_pair_sum_frozen_value():
    # B_alpha + B_xi = B(0.6, 0.4) + B(0.3, 0.4) = 8.415357243651474
    exps = validate_exponents(gamma=0.1, alpha=0.5, xi=0.8, q=2.0)
    b_alpha = beta_constant(exps.gamma, exps.alpha, exps.mu, exps.q)
    b_xi = beta_constant(exps.gamma, exps.xi, exps.mu, exps.q)
    assert b_alpha == pytest.approx(beta_oracle(0.6, 0.4), rel=1e-12)
    assert b_xi == pytest.approx(beta_oracle(0.3, 0.4), rel=1e-12)
    assert contraction_pair_sum(exps) == pytest.approx(8.415357243651474, rel=1e-12)
    assert contraction_pair_sum(exps) == pytest.approx(
        beta_oracle(0.6, 0.4) + beta_oracle(0.3, 0.4), rel=1e-12)


# ---------------------------------------------------------------------------
# semilinear recipe


def test_semilinear_frozen_example():
    rec = semilinear_recipe(n=1, p=2.0, kappa_exp=6.0)
    assert rec.s_c == pytest.approx(0.1, abs=1e-15)
    assert rec.s == pytest.approx(5.0 / 12.0, abs=1e-15)
    assert rec.mu == pytest.approx(19.0 / 120.0, abs=1e-15)
    exps = rec.exponents
    assert exps.gamma == 0.0
    assert exps.alpha == pytest.approx(0.05, abs=1e-15)
    assert exps.xi == pytest.approx(5.0 / 24.0, abs=1e-15)
    assert exps.q == 6.0
    assert exps.mu == pytest.approx(rec.mu, abs=1e-14)


def test_semilinear_rejects_kappa_at_boundary():
    with pytest.raises(ExponentError) as err:
        semilinear_recipe(n=1, p=2.0, kappa_exp=3.0)
    assert "p >= n(kappa-1)/2" in str(err.value)


def test_semilinear_rejects_small_kappa():
    with pytest.raises(ExponentError) as err:
        semilinear_recipe(n=1, p=1.5, kappa_exp=2.5)
    assert "kappa must exceed 1 + 2/n" in str(err.value)


def test_semilinear_rejects_excluded_sobolev_line():
    # n=3, kappa=3: excluded p = (n-1)(kappa-1)/2 = 2, inside (p_low, p_high).
    with pytest.raises(ExponentError) as err:
        semilinear_recipe(n=3, p=2.0, kappa_exp=3.0)
    assert "forbidden Sobolev line" in str(err.value)


@given(
    n=st.integers(1, 3),
    p_frac=st.floats(0.05, 0.95),
    kappa=st.floats(3.5, 9.0),
)
@settings(max_examples=200, deadline=None)
def test_semilinear_invariants(n, p_frac, kappa):
    p_low = max(1.0, n * (kappa - 1.0) / (2.0 * kappa))
    p_high = n * (kappa - 1.0) / 2.0
    if p_high <= p_low:
        return
    p = p_low + p_frac * (p_high - p_low)
    if p <= p_low or p >= p_high:
        return
    if abs(p - (n - 1) * (kappa - 1.0) / 2.0) < 1e-9:
        return
    rec = semilinear_recipe(n=n, p=p, kappa_exp=kappa)
    assert 0.0 < rec.s_c < rec.s < 2.0
    assert 0.0 < rec.mu < 1.0


# ---------------------------------------------------------------------------
# quasilinear recipe


def test_quasilinear_frozen_example():
    rec = quasilinear_recipe(n=1, p=2.5, kappa_exp=4.0, tau=0.27)
    assert rec.s_c == pytest.approx(16.0 / 15.0, abs=1e-14)
    assert rec.s == pytest.approx(1.3, abs=1e-14)
    assert rec.mu == pytest.approx(7.0 / 60.0, abs=1e-14)
    assert rec.theta_holder == pytest.approx(1.0 / 3.0 - 0.27, abs=1e-14)
    assert rec.s_bar == pytest.approx(0.94, abs=1e-14)
    exps = rec.exponents
    assert exps.gamma == pytest.approx(0.27)
    assert exps.beta_exp == pytest.approx(0.27 + 0.47, abs=1e-14)
    assert exps.alpha == pytest.approx(0.27 + 8.0 / 15.0, abs=1e-14)
    assert exps.xi == pytest.approx(0.27 + 0.65, abs=1e-14)
    residual = exps.q * (exps.xi - exps.alpha) - (1.0 + exps.gamma - exps.alpha)
    assert abs(residual) <= 1e-12


def test_quasilinear_rejects_large_p():
    with pytest.raises(ExponentError) as err:
        quasilinear_recipe(n=1, p=4.0, kappa_exp=4.0, tau=0.27)
    assert "p >= (kappa-1)n" in str(err.value)


def test_quasilinear_rejects_bad_tau():
    with pytest.raises(ExponentError) as err:
        quasilinear_recipe(n=1, p=2.5, kappa_exp=4.0, tau=0.1)
    assert "tau" in str(err.value)


def test_recipes_name_nonpositive_exponents_instead_of_dividing():
    # p = 0 used to reach 1 - n/p and kappa = 0 the quotient 1/kappa
    with pytest.raises(ExponentError) as err:
        quasilinear_recipe(n=1, p=0.0, kappa_exp=4.0, tau=0.27)
    assert err.value.violations == ["p must exceed 2n = 2, got 0"]
    with pytest.raises(ExponentError) as err:
        semilinear_recipe(n=1, p=2.0, kappa_exp=0.0)
    assert "kappa must exceed 1 + 2/n = 3, got 0" in err.value.violations


@given(
    p_frac=st.floats(0.1, 0.9),
    kappa=st.floats(3.3, 8.0),
    tau_frac=st.floats(0.05, 0.95),
)
@settings(max_examples=200, deadline=None)
def test_quasilinear_invariants(p_frac, kappa, tau_frac):
    n = 1
    p_low, p_high = 2.0 * n, (kappa - 1.0) * n
    if p_high <= p_low:
        return
    p = p_low + p_frac * (p_high - p_low)
    tau_low, tau_high = 0.25, (1.0 - n / p) / 2.0
    if tau_high <= tau_low:
        return
    tau = tau_low + tau_frac * (tau_high - tau_low)
    if not (0.5 < 2 * tau < 1.0 - n / p):
        return
    rec = quasilinear_recipe(n=n, p=p, kappa_exp=kappa, tau=tau)
    assert rec.s_bar < rec.s_c < rec.s < 2.0 - 2.0 * rec.tau
    assert 0.0 < rec.mu < 1.0
    assert rec.exponents.mu * rec.exponents.q < 1.0
