"""Matrix-scale laboratory for the weighted fixed-point contraction argument.

A problem couples a dense symmetric negative-definite generator A on R^m
with a superlinear nonlinearity on the fractional-power ladder
||x||_theta = ||(-A)^theta x||_2.  The lab takes the semigroup constant
and the Lipschitz constant of the nonlinearity in closed form, selects
the smallness parameters (L, r) by closed-form inversion of the
contraction inequalities with the horizon T = T_MAX, produces the mild
solution by Picard iteration so every contraction ratio is observable,
and checks the exponential-decay estimate over a sweep of initial-value
scales.

The lab takes semilinear exponent sets only: its generator is fixed, so
it has no state-dependent part for a Hoelder level beta_exp to measure.

Everything here is finite-dimensional and self-adjoint on purpose: the
fractional powers and both constants are exact, so the only gap between
theory and measurement is the graded-mesh discretization of the weighted
metric (a documented lower bound of the continuum metric).
"""

from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from .exponents import ExponentSet, contraction_pair_sum, validate_exponents
from .propagators import Propagator, require_storage
from .solver import MAX_STEPS, SolverConfig, picard_solve, run_simulation

# Operator-norm constant of the analytic semigroup, exact for a
# self-adjoint generator: t^delta ||(-A)^theta e^{tA} (-A)^-vartheta||
# with delta = theta - vartheta >= 0 is max_k x^delta e^-x at
# x = t rate_k, at most (delta/e)^delta <= 1, and the pair (0, 0)
# reaches 1.
OMEGA0 = 1.0
# selection takes L and r at this share of their caps, so their slacks
# stay strictly negative
SELECT_SAFETY = 0.9
# the horizon: the tail of data in the ball never binds it (see
# select_parameters)
T_MAX = 0.99
L_FLOOR = 1e-8
# the Picard mesh and stopping rule of run_fixed_point
PICARD_CONFIG = SolverConfig(picard_segments=96, picard_tol=1e-10,
                             picard_max_iter=60)
# initial-value scales of decay_experiment
DECAY_SCALES = (1e-3, 1e-2, 1e-1, 1.0)


class InfeasibleProblem(ValueError):
    """No admissible smallness parameters; names the binding inequality."""

    def __init__(self, binding: str, message: str):
        super().__init__(message)
        self.binding = binding


class FixedPointDivergence(RuntimeError):
    """Picard iteration failed to contract; carries the ratio history."""

    def __init__(self, message: str, ratios: np.ndarray):
        super().__init__(message)
        self.ratios = np.asarray(ratios)


@dataclass
class FixedPointProblem:
    """Generator, nonlinearity and exponent data for one contraction run.

    The nonlinearity is f(u) = epsilon ||u||_xi^(q-1) u, with the
    closed-form Lipschitz constant of `lipschitz`. The generator must be
    square, symmetric up to rounding and negative definite; it is stored
    symmetrized. The exponent set must be semilinear.
    """

    generator: np.ndarray
    exponents: ExponentSet
    epsilon: float = 1.0

    def __post_init__(self):
        _require_semilinear(self.exponents)
        a = np.asarray(self.generator, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("generator must be a square matrix")
        scale = max(1.0, float(np.abs(a).max()))
        if not np.allclose(a, a.T, atol=1e-12 * scale):
            raise ValueError("generator must be symmetric")
        self.generator = 0.5 * (a + a.T)  # exactly symmetric: the eigh route
        self.propagator = Propagator.from_matrix(self.generator)
        if self.propagator.lam.max() >= 0.0:
            raise ValueError("generator must be negative definite")
        # positive decay rates, aligned with the propagator's eigenbasis
        self.spectrum = -self.propagator.lam
        # the negated forms refuse NaN too
        if not 0.0 <= self.epsilon < np.inf:
            raise ValueError(
                f"epsilon must be finite and nonnegative, got {self.epsilon}")

    @property
    def dimension(self) -> int:
        return self.generator.shape[0]

    @property
    def lambda_min(self) -> float:
        return float(self.spectrum.min())

    @property
    def lambda_max(self) -> float:
        return float(self.spectrum.max())

    def norm(self, vector, theta: float):
        """Ladder norm of one vector (a float) or of each row of a
        (..., m) stack (an array), each row on its own."""
        if not 0.0 <= theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {theta}")
        # a contiguous copy: matmul rounds a strided vector differently
        coeff = self.propagator.to_eigen(
            np.ascontiguousarray(vector, dtype=float))
        coeff *= self.spectrum ** theta
        out = np.sqrt(np.vecdot(coeff, coeff))
        return float(out) if out.ndim == 0 else out

    def nonlinearity(self, u) -> np.ndarray:
        """f of one vector or of each row of a stack; a row's strength is a
        scalar power, which numpy's array power would round differently."""
        u = np.asarray(u, dtype=float)
        xi_norms = np.asarray(self.norm(u, self.exponents.xi))
        # np.float64 powers, which overflow to inf where a float raises
        strength = [self.epsilon * n ** (self.exponents.q - 1.0)
                    for n in xi_norms.ravel()]
        return np.reshape(strength, xi_norms.shape + (1,)) * u

    def lipschitz(self) -> float:
        """N with ||f(w)-f(v)||_gamma <= N (||w||_xi^(q-1) + ||v||_xi^(q-1))
        ||w-v||_xi on the whole space: epsilon lambda_min^(gamma-xi)
        max(1, q/2).

        With a = ||w||_xi, b = ||v||_xi and p = q-1, a^p w - b^p v =
        (a^p+b^p)(w-v)/2 + (a^p-b^p)(w+v)/2; then ||x||_gamma <=
        lambda_min^(gamma-xi) ||x||_xi and |a^p-b^p| (a+b) <= max(1, p)
        (a^p+b^p) |a-b|.
        """
        exps = self.exponents
        return (self.epsilon * self.lambda_min ** (exps.gamma - exps.xi)
                * max(1.0, 0.5 * exps.q))


@dataclass(frozen=True)
class ContractionParameters:
    """Smallness parameters of the contraction window, all in (0, 1)."""

    L: float
    r: float
    T: float

    def __post_init__(self):
        for name, value in (("L", self.L), ("r", self.r), ("T", self.T)):
            if not 0.0 < value < 1.0:
                raise ValueError(
                    f"{name} must lie strictly in (0, 1), got {value}")


def tail_sup(problem: FixedPointProblem, u0, t_end: float) -> float:
    """sup over t <= t_end of t^mu ||e^{tA} u0||_xi: the largest value on
    a fixed log grid over [1e-12, 1] up to t_end, and at t_end itself.
    At most OMEGA0 ||u0||_alpha."""
    exps = problem.exponents
    rates = problem.spectrum
    hat = problem.propagator.to_eigen(np.asarray(u0, dtype=float))
    ts = np.geomspace(1e-12, 1.0, 1200)
    modes = (rates[None, :] ** exps.xi * np.exp(-ts[:, None] * rates[None, :])
             * hat[None, :])
    values = ts ** exps.mu * np.sqrt((modes ** 2).sum(axis=1))
    direct = t_end ** exps.mu * np.sqrt(
        ((rates ** exps.xi * np.exp(-t_end * rates) * hat) ** 2).sum())
    return float(max(direct, values[ts <= t_end].max(initial=0.0)))


def _require_semilinear(exponents: ExponentSet) -> None:
    """Refuse a set with a Hoelder level beta_exp (module docstring)."""
    if exponents.beta_exp is not None:
        raise ValueError(
            "the lab takes semilinear exponent sets only, got beta_exp = "
            f"{exponents.beta_exp}")


def check_contraction_inequalities(params: ContractionParameters,
                                   exponents: ExponentSet,
                                   n_star: float,
                                   pair_sum: float,
                                   tail: Optional[float] = None) -> dict:
    """Slack (lhs - rhs, nonpositive when satisfied) of every inequality,
    with pair_sum = B_alpha + B_xi; tail_smallness when the tail sup of
    the data over [0, T] is given.

    This table is the only statement of the contraction inequalities:
    select_parameters inverts it.
    """
    _require_semilinear(exponents)
    L, r = params.L, params.r

    slacks = {
        "lipschitz_budget": 2.0 * OMEGA0 * n_star * pair_sum
        * L ** (exponents.q - 1.0) - 0.25,
        "ball_radius": r * OMEGA0 - L / 4.0,
    }
    if tail is not None:
        slacks["tail_smallness"] = tail - L / 4.0
    return slacks


def select_parameters(exponents: ExponentSet, n_star: float,
                      pair_sum: float) -> ContractionParameters:
    """Invert the contraction inequalities for the largest (L, r, T),
    with pair_sum = B_alpha + B_xi.

    L comes from the Lipschitz budget in closed form and r from the ball
    inequality given L, each SELECT_SAFETY = 0.9 times its cap, so their
    slacks stay strictly negative. T is T_MAX: data in the ball,
    ||u0||_alpha <= r, has tail t^mu ||e^{tA} u0||_xi <= OMEGA0 r <
    L/4 for every t, so tail smallness never bounds the horizon.
    """
    _require_semilinear(exponents)
    if n_star <= 0.0:
        raise ValueError("n_star must be positive")

    bound = (1.0 / (8.0 * OMEGA0 * n_star * pair_sum)) \
        ** (1.0 / (exponents.q - 1.0))
    L = SELECT_SAFETY * min(1.0, bound)
    if L < L_FLOOR:
        raise InfeasibleProblem(
            "lipschitz_budget",
            "no usable contraction constant: the Lipschitz budget "
            "2*omega0*N*(B_alpha+B_xi)*L^(q-1) <= 1/4 forces "
            f"L <= {bound:.3e}")

    r = SELECT_SAFETY * (L / (4.0 * OMEGA0))
    params = ContractionParameters(L=L, r=r, T=T_MAX)
    final = check_contraction_inequalities(params, exponents, n_star,
                                           pair_sum)
    worst = max(final.values())
    if worst > 1e-9:
        raise InfeasibleProblem(
            max(final, key=final.get),
            f"selection re-validation failed with slack {worst:.3e}")
    return params


def run_fixed_point(problem: FixedPointProblem, params: ContractionParameters,
                    u0):
    """Picard-iterate the mild-solution map inside the selected window.

    Returns the converged iteration record and the largest observed
    ratio of successive weighted distances, which estimates the
    contraction factor of the map on the ball.
    """
    exps = problem.exponents
    u0 = np.asarray(u0, dtype=float)
    alpha_norm = problem.norm(u0, exps.alpha)
    if alpha_norm > params.r * (1.0 + 1e-12):
        raise ValueError(
            f"initial value outside the contraction ball: ||u0||_alpha = "
            f"{alpha_norm:.6e} exceeds r = {params.r:.6e}")
    config = replace(PICARD_CONFIG, monitor_sigmas=(exps.alpha,),
                     weighted_sigma=exps.xi, weighted_mu=exps.mu)
    result = picard_solve(problem, u0, params.T, config)
    ratios = result.contraction_ratios
    ratio = float(ratios.max()) if ratios.size else 0.0
    if not result.converged:
        raise FixedPointDivergence(
            "Picard iteration did not settle within "
            f"{result.iterations} sweeps (largest ratio {ratio:.3f})",
            ratios)
    return result, ratio


@dataclass(frozen=True)
class DecayScaleResult:
    scale: float
    quotient: float
    bounded: bool
    blowup_time: Optional[float]


@dataclass(frozen=True)
class DecayReport:
    varpi: float
    t_end: float
    m_report: Optional[float]
    largest_passing_scale: Optional[float]
    scales: tuple


def verify_decay(problem: FixedPointProblem, varpi: float, direction,
                 scales=(1e-3, 1e-2, 1e-1)) -> DecayReport:
    """Check the weighted exponential-decay estimate over a scale sweep.

    The direction is normalized to ||direction||_alpha = 1. Each initial
    value scale*direction is evolved to T = 20/varpi and the quotient
    sup_t e^{varpi t} (||u||_alpha + t^mu ||u||_xi) / ||u0||_alpha is
    recorded.  A scale whose quotient still grows near the horizon (or
    whose run hit the blow-up guard) is reported as outside the decay
    neighborhood rather than failed; m_report aggregates the passing
    scales only.
    """
    exps = problem.exponents
    lam_min = problem.lambda_min
    if not 0.0 < varpi < lam_min:
        raise ValueError(
            f"varpi must lie in (0, {lam_min:.6g}), got {varpi}")
    t_end = 20.0 / varpi
    # the integrator is exact on the linear part; the 1/lambda_min cap
    # lets the step count grow with the horizon, so MAX_STEPS refuses a
    # tiny varpi
    dt = min(t_end / 2000.0, 1.0 / lam_min)
    if not t_end / dt <= MAX_STEPS:
        raise ValueError(
            f"varpi {varpi:g} is too small: the horizon t_end = 20/varpi = "
            f"{t_end:.3g} takes more than {MAX_STEPS:,} steps of {dt:.3g}")
    direction = np.asarray(direction, dtype=float)
    direction = direction / max(problem.norm(direction, exps.alpha), 1e-30)

    config = SolverConfig(dt=dt, t_end=t_end,
                          record_every=max(1, round(t_end / dt) // 1500),
                          monitor_sigmas=(exps.alpha, exps.xi))
    records = []
    for scale in sorted(float(s) for s in scales):
        u0 = scale * direction
        traj = run_simulation(problem, u0, config)
        base = max(problem.norm(u0, exps.alpha), 1e-30)
        weight = np.exp(varpi * traj.times) * (
            traj.norms[exps.alpha]
            + traj.times ** exps.mu * traj.norms[exps.xi]) / base
        finite = weight[np.isfinite(weight)]
        quotient = float(finite.max()) if finite.size else float("inf")
        if traj.flagged or finite.size < weight.size:
            bounded = False
        else:
            head = weight[traj.times <= 0.6 * t_end]
            tail = weight[traj.times > 0.6 * t_end]
            grew = tail.size > 0 and tail.max() > 1.02 * max(
                head.max(), 1e-30)
            bounded = not grew
        records.append(DecayScaleResult(
            scale=scale, quotient=quotient, bounded=bounded,
            blowup_time=traj.blowup_time))

    passing = [rec for rec in records if rec.bounded]
    m_report = max((rec.quotient for rec in passing), default=None)
    largest = max((rec.scale for rec in passing), default=None)
    return DecayReport(varpi=varpi, t_end=t_end, m_report=m_report,
                       largest_passing_scale=largest, scales=tuple(records))


def random_problem(dim: int, rng, epsilon: Optional[float] = None
                   ) -> FixedPointProblem:
    """Random symmetric negative-definite problem with admissible
    semilinear exponents.

    Exponents are drawn so the critical identity holds exactly with
    q in roughly [1.8, 3.5]; rates live in [0.6, 6] to keep the ladder
    norms of the random data well scaled.
    """
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    # at most six dense float64 (dim, dim) matrices live at once: the
    # normal draw, its QR factors, the generator, its symmetrized copy
    # and its eigenvectors
    require_storage(6 * dim ** 2 * 8, f"dim {dim}: the lab's matrices")
    rates = np.sort(rng.uniform(0.6, 6.0, size=dim))
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    generator = -(basis * rates) @ basis.T  # symmetrized by FixedPointProblem

    gamma = rng.uniform(0.0, 0.25)
    alpha = rng.uniform(gamma + 0.2, 0.75)
    q_lo = max(1.8, (1.0 + gamma - alpha) / (0.98 - alpha) + 0.01)
    q = rng.uniform(q_lo, max(3.5, q_lo + 0.5))
    xi = alpha + (1.0 + gamma - alpha) / q
    exps = validate_exponents(gamma, alpha, xi, q)

    if epsilon is None:
        epsilon = float(rng.uniform(0.2, 2.0))
    return FixedPointProblem(generator=generator, exponents=exps,
                             epsilon=epsilon)


def contraction_experiment(dim: int = 8, seed: int = 0) -> dict:
    """Full pipeline on one random problem, reported as plain data."""
    rng = np.random.default_rng(seed)
    problem = random_problem(dim, rng)
    exps = problem.exponents
    n_star = problem.lipschitz()
    pair_sum = contraction_pair_sum(exps)
    params = select_parameters(exps, n_star, pair_sum)
    direction = rng.standard_normal(problem.dimension)
    direction /= max(problem.norm(direction, exps.alpha), 1e-30)
    u0 = 0.9 * params.r * direction
    result, ratio = run_fixed_point(problem, params, u0)
    slacks = check_contraction_inequalities(
        params, exps, n_star, pair_sum, tail_sup(problem, u0, params.T))
    return {
        "dim": dim,
        "seed": seed,
        "exponents": exps.report(),
        "spectrum": {"lambda_min": problem.lambda_min,
                     "lambda_max": problem.lambda_max},
        "constants": {"omega0": OMEGA0, "lipschitz_n": n_star},
        "parameters": asdict(params),
        "inequalities": {name: {"slack": float(s), "satisfied": bool(s <= 0.0)}
                         for name, s in slacks.items()},
        "contraction_ratio": ratio,
        "iterations": result.iterations,
        "converged": bool(result.converged),
        "final_alpha_norm": problem.norm(result.final_state, exps.alpha),
    }


def decay_experiment(dim: int = 6, seed: int = 0,
                     varpi: Optional[float] = None,
                     epsilon: float = 0.5) -> dict:
    """Decay sweep on one random semilinear problem, as plain data."""
    rng = np.random.default_rng(seed)
    problem = random_problem(dim, rng, epsilon=epsilon)
    if varpi is None:
        varpi = 0.5 * problem.lambda_min
    direction = rng.standard_normal(problem.dimension)
    report = verify_decay(problem, varpi, direction, scales=DECAY_SCALES)
    return {"dim": dim, "seed": seed, "omega0": OMEGA0,
            **asdict(report)}
