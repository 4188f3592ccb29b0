"""Exponent arithmetic for critical-space well-posedness.

The time-weighted fixed-point framework is governed by a tuple of
interpolation exponents (gamma, beta_exp, alpha, xi) together with a
nonlinearity exponent q.  Local solvability in the critical space hinges
on the identity q*(xi - alpha) = 1 + gamma - alpha; the singular
convolution integrals it produces evaluate to Beta-function constants
B(1 + gamma - theta, 1 - mu*q) with mu = xi - alpha.

This module validates exponent tuples, evaluates the Beta constants, and
derives the admissible exponent windows for the two concrete heat-type
models (power nonlinearity with Dirichlet data, gradient nonlinearity in
divergence form with Neumann data).
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from typing import Optional

IDENTITY_TOL = 1e-12


class ExponentError(ValueError):
    """An exponent configuration violates an admissibility constraint.

    Carries the list of named violations so callers (and the CLI) can
    report every failed inequality, not just the first.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class ExponentSet:
    """Validated exponent tuple; construct via validate_exponents."""

    gamma: float
    alpha: float
    xi: float
    q: float
    beta_exp: Optional[float] = None
    mu: float = 0.0

    def theta_levels(self) -> dict:
        """Named exponent levels at which Beta constants are needed."""
        return {"gamma": self.gamma, "alpha": self.alpha, "xi": self.xi}

    def report(self) -> dict:
        """The set as a report: its fields, beta_exp printed as beta."""
        fields = asdict(self)
        fields["beta"] = fields.pop("beta_exp")
        return fields


def validate_exponents(gamma, alpha, xi, q, beta_exp=None) -> ExponentSet:
    """Check ordering, the critical identity and Beta-argument positivity.

    Returns the validated ExponentSet (with mu = xi - alpha filled in) or
    raises ExponentError naming every violated constraint.
    """
    violations = []
    if not (0.0 <= gamma < 1.0):
        violations.append(f"gamma must lie in [0,1), got {gamma}")
    if not (gamma < alpha < xi):
        violations.append(
            f"ordering gamma < alpha < xi violated: ({gamma}, {alpha}, {xi})"
        )
    if not (0.0 < alpha < 1.0):
        violations.append(f"alpha must lie in (0,1), got {alpha}")
    if not (0.0 < xi <= 1.0):
        violations.append(f"xi must lie in (0,1], got {xi}")
    if beta_exp is not None and not (gamma < beta_exp < alpha):
        violations.append(
            f"beta_exp must lie in (gamma, alpha), got {beta_exp}"
        )
    if not q > 1.0:
        violations.append(f"q must exceed 1, got {q}")
    residual = q * (xi - alpha) - (1.0 + gamma - alpha)
    if abs(residual) > IDENTITY_TOL:
        violations.append(
            "critical identity q*(xi-alpha) = 1+gamma-alpha fails, "
            f"residual {residual:.3e}"
        )
    mu = xi - alpha
    if not violations:
        # Beta arguments: 1+gamma-theta > 0 for theta up to xi, 1-mu*q > 0.
        if 1.0 + gamma - xi <= 0.0:
            violations.append(
                f"1+gamma-xi must be positive (got {1.0 + gamma - xi}); "
                "(gamma, xi) = (0, 1) is excluded"
            )
        if 1.0 - mu * q <= 0.0:
            violations.append(
                f"mu*q must stay below 1 (got {mu * q}); requires gamma < alpha"
            )
    if violations:
        raise ExponentError(violations)
    return ExponentSet(gamma=gamma, alpha=alpha, xi=xi, q=q,
                       beta_exp=beta_exp, mu=mu)


def beta_function(a: float, b: float) -> float:
    """Euler Beta via log-Gamma; both arguments must be positive."""
    if a <= 0.0 or b <= 0.0:
        raise ExponentError(
            f"Beta arguments must be positive, got ({a}, {b}); "
            "exponent configuration is inadmissible"
        )
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def beta_constant(gamma: float, theta: float, mu: float, q: float) -> float:
    """B(1+gamma-theta, 1-mu*q), the singular-kernel convolution constant."""
    return beta_function(1.0 + gamma - theta, 1.0 - mu * q)


@dataclass(frozen=True)
class BetaConstants:
    """Beta constants of an exponent set, keyed by level name."""

    b_theta: dict

    @classmethod
    def from_exponents(cls, exps: ExponentSet) -> "BetaConstants":
        return cls(b_theta={
            name: beta_constant(exps.gamma, theta, exps.mu, exps.q)
            for name, theta in exps.theta_levels().items()
        })

    @property
    def contraction_pair_sum(self) -> float:
        """B_alpha + B_xi, the Beta constants of the contraction budget."""
        return self.b_theta["alpha"] + self.b_theta["xi"]


def _require_finite(**values) -> None:
    """Refuse a non-finite recipe input, or an integer no float can hold,
    by name."""
    bad = [f"{name} must be finite, got {value}" for name, value in values.items()
           if isinstance(value, float) and not math.isfinite(value)]
    bad += [f"{name} must not exceed the largest float, got an integer of "
            f"{value.bit_length()} bits" for name, value in values.items()
            if isinstance(value, int) and abs(value) > sys.float_info.max]
    if bad:
        raise ExponentError(bad)


@dataclass(frozen=True)
class CriticalRecipe:
    """Derived critical indices for one of the concrete models."""

    n: int
    p: float
    kappa_exp: float
    s_c: float
    s: float
    mu: float
    exponents: ExponentSet
    tau: Optional[float] = None
    s_bar: Optional[float] = None
    theta_holder: Optional[float] = None

    def report(self) -> dict:
        """The recipe as a report: kappa_exp printed as kappa, the exponent
        set as its own report, the fields its kind lacks left out."""
        fields = {name: value for name, value in asdict(self).items()
                  if value is not None}
        fields["kappa"] = fields.pop("kappa_exp")
        return {**fields, "exponents": self.exponents.report()}


def semilinear_recipe(n: int, p: float, kappa_exp: float) -> CriticalRecipe:
    """Critical indices for u' = Laplacian(u) + |u|^(kappa-1) u, Dirichlet data.

    s_c = n/p - 2/(kappa-1) is the scaling-critical Sobolev index, s the
    regularity the weighted norm controls, mu the time weight.
    """
    _require_finite(n=n, p=p, kappa=kappa_exp)
    kappa = float(kappa_exp)
    violations = []
    if n < 1:
        violations.append(f"dimension n must be a positive integer, got {n}")
    else:
        kappa_floor = 1.0 + 2.0 / n
        if not kappa > kappa_floor:
            violations.append(
                f"kappa must exceed 1 + 2/n = {kappa_floor:g}, got {kappa:g}"
            )
        # kappa <= 0 already fails the floor above; keep it out of 1/kappa
        p_low = 1.0
        if kappa > 0.0:
            p_low = max(1.0, n * (kappa - 1.0) / (2.0 * kappa))
        p_high = n * (kappa - 1.0) / 2.0
        if not p > p_low:
            violations.append(
                f"p must exceed max(1, n(kappa-1)/(2 kappa)) = {p_low:g}, got {p:g}"
            )
        if not p < p_high:
            violations.append(f"p >= n(kappa-1)/2 = {p_high:g}")
        p_excluded = (n - 1) * (kappa - 1.0) / 2.0
        if abs(p - p_excluded) < 1e-12 and n > 1:
            violations.append(
                f"p = (n-1)(kappa-1)/2 = {p_excluded:g} is excluded: the "
                "critical index would sit on the forbidden Sobolev line s = 1/p"
            )
    if violations:
        raise ExponentError(violations)

    s_c = n / p - 2.0 / (kappa - 1.0)
    s = n * (kappa - 1.0) / (p * kappa)
    mu = 1.0 / (kappa - 1.0) - n / (2.0 * p * kappa)
    exps = validate_exponents(gamma=0.0, alpha=s_c / 2.0, xi=s / 2.0, q=kappa)
    return CriticalRecipe(n=n, p=p, kappa_exp=kappa, s_c=s_c, s=s, mu=mu,
                          exponents=exps)


def quasilinear_recipe(n: int, p: float, kappa_exp: float,
                       tau: float) -> CriticalRecipe:
    """Critical indices for u' = div(a(u) grad u) + |grad u|^kappa, Neumann data.

    tau shifts the whole interpolation ladder; the Hoelder gap of the
    frozen-coefficient argument is theta_holder = (kappa-2)/(2(kappa-1)) - tau.
    """
    _require_finite(n=n, p=p, kappa=kappa_exp, tau=tau)
    kappa = float(kappa_exp)
    violations = []
    if n < 1:
        violations.append(f"dimension n must be a positive integer, got {n}")
    else:
        if not kappa > 3.0:
            violations.append(f"kappa must exceed 3, got {kappa:g}")
        if not p > 2 * n:
            violations.append(f"p must exceed 2n = {2 * n}, got {p:g}")
        if not p < (kappa - 1.0) * n:
            violations.append(f"p >= (kappa-1)n = {(kappa - 1.0) * n:g}")
        p_excluded = (n - 1) * (kappa - 1.0)
        if abs(p - p_excluded) < 1e-12 and n > 1:
            violations.append(
                f"p = (n-1)(kappa-1) = {p_excluded:g} is excluded: the "
                "critical index would sit on the forbidden Sobolev line s = 1+1/p"
            )
        # p <= 0 already fails p > 2n above; keep it out of n/p
        if p > 0 and not (0.5 < 2.0 * tau < 1.0 - n / p):
            violations.append(
                f"tau must satisfy 1/2 < 2 tau < 1 - n/p = {1.0 - n / p:g}, "
                f"got 2 tau = {2.0 * tau:g}"
            )
    if violations:
        raise ExponentError(violations)

    s_c = n / p + (kappa - 2.0) / (kappa - 1.0)
    s = 1.0 + n * (kappa - 1.0) / (p * kappa)
    mu = 1.0 / (2.0 * (kappa - 1.0)) - n / (2.0 * p * kappa)
    s_bar = 2.0 * tau + n / p
    theta_holder = (kappa - 2.0) / (2.0 * (kappa - 1.0)) - tau
    exps = validate_exponents(gamma=tau, alpha=tau + s_c / 2.0,
                              xi=tau + s / 2.0, q=kappa,
                              beta_exp=tau + s_bar / 2.0)
    return CriticalRecipe(n=n, p=p, kappa_exp=kappa, s_c=s_c, s=s, mu=mu,
                          exponents=exps, tau=tau, s_bar=s_bar,
                          theta_holder=theta_holder)
