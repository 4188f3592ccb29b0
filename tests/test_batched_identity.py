"""Batched and reduced code paths against the loops and layouts they
replace.

The reference functions below are those loops, kept as they were: the
Picard sweep evaluates f and the norms one vector at a time and rebuilds
exp, phi1 and phi2 of h_j lam on every segment. The fast code must
reproduce them bit for bit on the matrix lab, on the heat models and on
the strip's block stack at K = 32, and to 1e-12 relative on the strip at
K = 192.
Parameter selection once bisected the horizon on its own copy of the
contraction inequalities; `select_parameters` bisects the slack table
of `check_contraction_inequalities` and must land on the same (L, r, T).

`FullLayoutCloud` is the strip model on the full spectrum n = -nx/2 ..
nx/2-1 in fft order, with the n < 0 blocks mirrored from the n > 0 ones
by conjugation and the five-FFT nonlinearity. The half-spectrum model
must march, iterate and snapshot as it does, to 1e-12 relative.
"""

import importlib
import inspect
import math
import pkgutil
from types import SimpleNamespace

import numpy as np
import pytest

import mildflow
from mildflow import cli
from mildflow.chebyshev import cumulative_matrix, diff_matrix
from mildflow.cloud import CloudCoefficients, CloudModel, mode_stack
from mildflow.config import parse_config
from mildflow.exponents import BetaConstants, validate_exponents
from mildflow.heat import (PeriodicGrid, PeriodicHeatModel,
                           QuasilinearHeatModel, SemilinearHeatModel)
from mildflow.lab import (ContractionParameters, FixedPointProblem,
                          InfeasibleProblem, _binding,
                          check_contraction_inequalities,
                          estimate_semigroup_constants, random_problem,
                          select_parameters, tail_profile)
from mildflow.propagators import Propagator, phi
from mildflow.solver import (SolverConfig, graded_mesh, picard_solve,
                             run_simulation)
from mildflow.strip import (_sine_projection, dirichlet_mode_field, open_strip,
                            periodic_strip, random_dirichlet_field)
from oracles import decompose, read_snapshot, sampled_lipschitz

SEMI = validate_exponents(0.1, 0.5, 0.8, 2.0)


# Reference loops ------------------------------------------------------------

def reference_norm(problem, vector, theta):
    """Ladder norm of one vector: eigen coefficients by a matvec, then
    numpy's 2-norm."""
    coeff = problem.propagator.vectors.T @ np.asarray(vector, dtype=float)
    return float(np.linalg.norm(problem.spectrum ** theta * coeff))


def reference_f(problem, u):
    exps = problem.exponents
    strength = reference_norm(problem, u, exps.xi) ** (exps.q - 1.0)
    return problem.epsilon * strength * u


def closed_form_lipschitz(problem):
    """epsilon lambda_min^(gamma-xi) max(1, q/2), lambda_min from eigvalsh."""
    exps = problem.exponents
    lam_min = -np.linalg.eigvalsh(problem.generator).max()
    return (problem.epsilon * lam_min ** (exps.gamma - exps.xi)
            * max(1.0, exps.q / 2.0))


def reference_levels(config):
    """The distance keywords of reference_picard that picard_solve reads
    from config."""
    return dict(mu=config.weighted_mu, sigma_sup=config.monitor_sigmas[0],
                sigma_weighted=config.weighted_sigma)


def reference_picard(u0, t_end, config, propagator, nonlinearity, norm_fn,
                     mu=0.0, sigma_sup=0.0, sigma_weighted=None):
    """Picard iteration with the factors rebuilt on every segment of every
    sweep; returns (states, distances, iterations, converged)."""
    tau = graded_mesh(t_end, config.picard_segments, 2.0)
    h = np.diff(tau)
    lam = propagator.lam
    want_real = not np.iscomplexobj(np.asarray(u0))
    u0_hat = propagator.to_eigen(np.asarray(u0))

    def reconstruct(coeffs):
        out = propagator.from_eigen(coeffs)
        return out.real if want_real and np.iscomplexobj(out) else out

    def distance(states_a, states_b):
        d_sup = 0.0
        d_weight = 0.0
        for t_k, a, b in zip(tau, states_a, states_b):
            diff = a - b
            d_sup = max(d_sup, norm_fn(diff, sigma_sup))
            if sigma_weighted is not None and t_k > 0.0:
                d_weight = max(d_weight,
                               t_k ** mu * norm_fn(diff, sigma_weighted))
        return d_sup + d_weight

    states = [reconstruct(np.exp(t_k * lam) * u0_hat) for t_k in tau]
    distances = []
    converged = False
    iterations = 0
    scale = max(norm_fn(np.asarray(u0), sigma_sup), 1e-30)
    for iterations in range(1, config.picard_max_iter + 1):
        f_hat = [propagator.to_eigen(nonlinearity(s)) for s in states]
        new_states = [states[0]]
        running = np.zeros(u0_hat.shape, dtype=complex)
        for j in range(len(h)):
            zj = h[j] * lam
            g = h[j] * (phi(zj, 1) * f_hat[j]
                        + phi(zj, 2) * (f_hat[j + 1] - f_hat[j]))
            running = np.exp(zj) * running + g
            new_states.append(
                reconstruct(np.exp(tau[j + 1] * lam) * u0_hat + running))
        dist = distance(new_states, states)
        distances.append(dist)
        states = new_states
        if dist < config.picard_tol * scale:
            converged = True
            break
    return states, np.asarray(distances), iterations, converged


def reference_select(constants, exps, n_star, beta_consts, m_profile=None):
    """Selection bisecting on its own `blocking` predicate, which restates
    the inequalities. Returns (L, r, T, hi, binding): hi is the top of the
    last bisection bracket and binding what blocks there, both None when
    T = 0.99. Raises InfeasibleProblem naming the binding inequality."""
    w0 = constants.omega0
    pair_sum = beta_consts.contraction_pair_sum
    bound = (1.0 / (4.0 * 2.0 * w0 * n_star * pair_sum)) \
        ** (1.0 / (exps.q - 1.0))
    L = 0.9 * min(1.0, bound)
    if L < 1e-8:
        raise InfeasibleProblem("lipschitz_budget", "L below its floor")
    r = 0.9 * min(L / (4.0 * w0), 0.999)
    profile = m_profile if m_profile is not None else (lambda _t: 0.0)

    def blocking(t_end):
        if profile(t_end) > L / 4.0:
            return "tail_smallness"
        return None

    if blocking(0.99) is None:
        return L, r, 0.99, None, None
    binding = blocking(1e-12)
    if binding is not None:
        raise InfeasibleProblem(binding, "no window above the floor")
    lo, hi = 1e-12, 0.99
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        if blocking(mid) is None:
            lo = mid
        else:
            hi = mid
    return L, r, float(lo), float(hi), blocking(hi)


# Matrix lab: bit for bit ----------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2, 7, 32])
def test_lipschitz_and_picard_match_reference_loops(dim):
    problem = random_problem(dim, np.random.default_rng(dim))
    n_star = problem.lipschitz()
    assert n_star == pytest.approx(closed_form_lipschitz(problem), rel=1e-12)
    assert sampled_lipschitz(problem, np.random.default_rng(5)) \
        <= n_star * (1.0 + 1e-9)

    exps = problem.exponents
    direction = np.random.default_rng(6).standard_normal(dim)
    u0 = 0.05 * direction / problem.norm(direction, exps.alpha)
    config = SolverConfig(picard_segments=96, picard_tol=1e-10,
                          picard_max_iter=60,
                          monitor_sigmas=(exps.alpha,),
                          weighted_sigma=exps.xi, weighted_mu=exps.mu)
    result = picard_solve(problem, u0, 0.5, config)
    states, distances, iterations, converged = reference_picard(
        u0, 0.5, config, problem.propagator,
        lambda u: reference_f(problem, u),
        lambda v, theta: reference_norm(problem, v, theta),
        **reference_levels(config))
    assert (result.iterations, result.converged) == (iterations, converged)
    assert iterations >= 3
    assert np.array_equal(result.distances, distances)
    assert len(result.states) == len(states)
    assert all(np.array_equal(a, b) for a, b in zip(result.states, states))


def selections_against_reference(dim, seed):
    """Both selections of `contraction_experiment`, and one on the tail of
    unit-norm data, against their references.

    Each selection must equal its reference in (L, r, T), or raise
    InfeasibleProblem with the same binding name. The slack table must
    not block at T, and must block at the top hi of a bisection bracket
    with the reference's binding name. Returns how many selections
    bisected."""
    rng = np.random.default_rng(seed)
    problem = random_problem(dim, rng)
    exps = problem.exponents
    constants = estimate_semigroup_constants(problem)
    n_star = problem.lipschitz()
    beta = BetaConstants.from_exponents(exps)
    bisected = 0

    def compare(**kwargs):
        nonlocal bisected
        args = (constants, exps, n_star, beta)
        try:
            L, r, T, hi, binding = reference_select(*args, **kwargs)
        except InfeasibleProblem as expected:
            with pytest.raises(InfeasibleProblem) as got:
                select_parameters(*args, **kwargs)
            assert got.value.binding == expected.binding
            return None
        params = select_parameters(*args, **kwargs)
        assert (params.L, params.r, params.T) == (L, r, T)

        def table(t_end):
            return check_contraction_inequalities(
                ContractionParameters(L=L, r=r, T=t_end), *args,
                kwargs.get("m_profile"))
        assert _binding(table(T)) is None
        if hi is not None:
            bisected += 1
            assert _binding(table(hi)) == binding
        return params

    first = compare()
    if first is not None:
        direction = rng.standard_normal(dim)
        direction /= max(problem.norm(direction, exps.alpha), 1e-30)
        compare(m_profile=tail_profile(problem, 0.9 * first.r * direction))
        # a unit-norm datum's tail exceeds L/4 at T = 0.99
        compare(m_profile=tail_profile(problem, direction))
    return bisected


def test_selection_matches_reference_bisection():
    bisected = sum(selections_against_reference(dim, seed)
                   for dim in range(1, 41) for seed in range(4))
    assert bisected > 0


def test_lipschitz_closed_form_holds_off_the_unit_ball():
    # the bound holds on the whole space, so it holds on balls of every
    # radius; on a radius-1e-14 ball the nearly coincident pairs have
    # denominators near 1e-32 and the oracle skips them, at 1e-30 all
    problem = FixedPointProblem(np.diag([-1.0, -2.0, -3.5]), SEMI)
    n_star = problem.lipschitz()
    assert n_star == closed_form_lipschitz(problem)
    for radius in (1e-30, 1e-14, 1.0, 1e3):
        sampled = sampled_lipschitz(problem, np.random.default_rng(0), radius)
        assert sampled <= n_star * (1.0 + 1e-9)
        assert (sampled == 0.0) == (radius == 1e-30)


def test_stacked_norm_matches_per_vector_norm():
    problem = random_problem(9, np.random.default_rng(4))
    rows = np.random.default_rng(8).standard_normal((2, 40, 9))
    for theta in (0.0, problem.exponents.gamma, problem.exponents.xi, 1.0):
        stacked = problem.norm(rows, theta)
        assert stacked.shape == (2, 40)
        assert stacked.tolist() == [[reference_norm(problem, row, theta)
                                     for row in block] for block in rows]
        assert isinstance(problem.norm(rows[0, 0], theta), float)


def test_norm_is_independent_of_memory_layout():
    # Picard's states are the real parts of a complex stack: strided
    problem = random_problem(14, np.random.default_rng(0))
    z = np.random.default_rng(1).standard_normal((97, 14)) * (1.0 + 1j)
    z += np.random.default_rng(2).standard_normal((97, 14))
    for theta in (0.0, problem.exponents.xi, 1.0):
        strided = problem.norm(z.real, theta)
        assert strided.tolist() == problem.norm(
            np.ascontiguousarray(z.real), theta).tolist()
        assert [problem.norm(row, theta) for row in z.real] == [
            problem.norm(row.copy(), theta) for row in z.real]


# Strip block stack: to 1e-12 -------------------------------------------------

def test_picard_on_strip_stack_matches_reference_sweep():
    geometry = periodic_strip(16, 12)
    model = CloudModel(CloudCoefficients(nu=1.0, eta=0.0, beta=1.0), geometry)
    u0 = model.state_from_field(dirichlet_mode_field(geometry, n=1, m=1))
    u0 = u0 * (0.3 / model.norm(u0, 1.0))
    config = SolverConfig(dt=1e-4, t_end=0.1, picard_segments=192,
                          picard_tol=1e-12, picard_max_iter=80)
    result = picard_solve(model, u0, 0.1, config)
    states, distances, iterations, converged = reference_picard(
        u0, 0.1, config, model.propagator, model.nonlinearity, model.norm)
    assert (result.iterations, result.converged) == (iterations, True)
    scale = model.norm(u0, 0.0)
    for a, b in zip(result.states, states):
        assert model.norm(a - b, 0.0) <= 1e-12 * scale
    # a distance is a difference of iterates, so its rounding is measured
    # against the size of the data, not against the distance
    assert np.allclose(result.distances, distances, rtol=1e-12,
                       atol=1e-12 * scale)


# Strip half spectrum against the full layout: to 1e-12 ---------------------

class FullLayoutCloud:
    """The strip model on the full (nx, ny-2) spectrum in fft order."""

    def __init__(self, coeffs, geometry):
        nx = geometry.nx
        self.geometry = geometry
        self.mode_numbers = np.rint(np.fft.fftfreq(nx) * nx).astype(int)
        blocks = mode_stack(range(nx // 2 + 1), coeffs, geometry)
        lam, vectors, vectors_inv, _, defective = decompose(blocks)
        assert not defective.any()
        order, negative = np.abs(self.mode_numbers), self.mode_numbers < 0
        stacks = [lam[order], vectors[order], vectors_inv[order]]
        for stack in stacks:
            stack[negative] = stack[negative].conj()
        self.propagator = Propagator(*stacks)
        self.k = self.mode_numbers * math.pi / geometry.half_length

    def full(self, state):
        out = np.zeros((self.geometry.nx, self.geometry.ny), dtype=complex)
        out[:, 1:-1] = state
        return out

    def grid(self, coeffs):
        return np.fft.ifft(coeffs * self.geometry.nx, axis=0).real

    def nonlinearity(self, state):
        ny = self.geometry.ny
        u = self.full(state)
        k = self.k.copy()
        k[self.geometry.nx // 2] = 0.0
        ux = u * (1j * k)[:, None]
        uy = u @ diff_matrix(ny).T
        tux = ux @ cumulative_matrix(ny).T
        prod = self.grid(uy) * self.grid(tux) - self.grid(u) * self.grid(ux)
        f = np.fft.fft(prod, axis=0) / self.geometry.nx
        f[np.abs(self.mode_numbers) > self.geometry.dealias_cut] = 0.0
        return f[:, 1:-1]

    def norms(self, state, sigmas):
        # the sine projection in y is shared; the layout under test is in x
        analysis, m = _sine_projection(self.geometry.ny)
        snm = self.full(state) @ analysis
        lam = self.k[:, None] ** 2 + (math.pi * m[None, :]) ** 2
        scale = 2.0 * self.geometry.half_length
        return {s: math.sqrt(scale * float(np.sum((1.0 + lam) ** s
                                                   * np.abs(snm) ** 2)))
                for s in sigmas}

    def norm(self, state, sigma):
        return self.norms(state, (sigma,))[sigma]

    def from_half(self, half):
        """The full-layout state of a half-spectrum one."""
        nx = self.geometry.nx
        return np.fft.fft(np.fft.irfft(half, n=nx, axis=0), axis=0)

    def to_half(self, full):
        """Rows n = 0..nx/2 of a full-layout state. The full layout marches
        the Nyquist row with the conjugate block (its fft index holds
        n = -nx/2), so that row is conjugated; its real part, the only
        part that reaches the grid, is the same either way."""
        half = full[: self.geometry.nx // 2 + 1].copy()
        half[-1] = half[-1].conj()
        return half


STRIPS = [periodic_strip(16, 12), open_strip(10, 9, half_length=3.0)]


def _strip_pair(geometry, seed=3, amplitude=0.5):
    coeffs = CloudCoefficients(nu=0.8, eta=0.5, beta=1.5)
    model, reference = CloudModel(coeffs, geometry), FullLayoutCloud(coeffs, geometry)
    u0 = model.state_from_field(
        random_dirichlet_field(geometry, np.random.default_rng(seed)))
    u0 = u0 * (amplitude / model.norm(u0, 1.0))
    return model, reference, u0, reference.from_half(u0)


def _assert_close(got, want, rtol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("integrator", ["exp_euler", "etdrk2"])
@pytest.mark.parametrize("geometry", STRIPS, ids=["periodic16x12", "open10x9"])
def test_half_spectrum_march_matches_full_layout(geometry, integrator,
                                                 record_every):
    model, reference, u0, u0_full = _strip_pair(geometry)
    assert u0.shape == (geometry.nx // 2 + 1, geometry.ny - 2)
    _assert_close(reference.to_half(u0_full), u0)
    config = SolverConfig(dt=2e-3, t_end=0.1, integrator=integrator,
                          record_every=record_every,
                          monitor_sigmas=(0.0, 1.0, 1.5), weighted_sigma=1.5,
                          weighted_mu=0.25)
    got = run_simulation(model, u0, config)
    want = run_simulation(reference, u0_full, config)
    assert not got.flagged and not want.flagged
    assert np.array_equal(got.times, want.times)
    for sigma in config.monitor_sigmas:
        _assert_close(got.norms[sigma], want.norms[sigma])
    _assert_close(got.weighted, want.weighted)
    _assert_close(got.f_norms, want.f_norms)
    # the nonlinearity moved the state: f is not negligible
    assert got.f_norms[0] > 1e-2 * got.norms[0.0][0]
    _assert_close(got.final_state, reference.to_half(want.final_state))


def test_half_spectrum_picard_matches_full_layout():
    model, reference, u0, u0_full = _strip_pair(periodic_strip(16, 12),
                                                amplitude=0.3)
    config = SolverConfig(picard_segments=64, picard_tol=1e-12,
                          picard_max_iter=80, weighted_sigma=1.5,
                          weighted_mu=0.25)
    got = picard_solve(model, u0, 0.1, config)
    # the full layout's callables take one state, so the per-node oracle
    # iterates them
    want = SimpleNamespace(**dict(zip(
        ("states", "distances", "iterations", "converged"),
        reference_picard(u0_full, 0.1, config, reference.propagator,
                         reference.nonlinearity, reference.norm,
                         **reference_levels(config)))))
    assert (got.iterations, got.converged) == (want.iterations, True)
    for a, b in zip(got.states, want.states):
        _assert_close(a, reference.to_half(b))
    scale = model.norm(u0, 0.0)
    assert np.allclose(got.distances, want.distances, rtol=1e-12,
                       atol=1e-12 * scale)


def test_picard_reads_its_weighted_level_from_the_config():
    # the iterates do not depend on the distance, so each sweep's distance
    # gains the t^mu weighted term at level 1.5 and nothing else
    model, _, u0, _ = _strip_pair(periodic_strip(16, 12), amplitude=0.3)
    plain, weighted = (picard_solve(model, u0, 0.1, SolverConfig(
        picard_segments=32, picard_tol=1e-12, picard_max_iter=40,
        weighted_sigma=sigma, weighted_mu=0.25)).distances
        for sigma in (None, 1.5))
    sweeps = min(plain.size, weighted.size)
    assert sweeps >= 3
    assert np.all(weighted[:sweeps] > plain[:sweeps])


# Picard's stack contract ----------------------------------------------------

def _counted(fn, shapes):
    """fn, recording the shape of the states of each call."""
    def counted(states, *args):
        shapes.append(np.shape(states))
        return fn(states, *args)
    return counted


def _picard_case(kind):
    """(model, u0, distance levels of the SolverConfig) of a lab problem,
    the 16x12 strip, the sine model or the periodic line."""
    if kind == "lab":
        problem = random_problem(7, np.random.default_rng(7))
        exps = problem.exponents
        direction = np.random.default_rng(6).standard_normal(7)
        u0 = 0.05 * direction / problem.norm(direction, exps.alpha)
        return problem, u0, dict(monitor_sigmas=(exps.alpha,),
                                 weighted_sigma=exps.xi, weighted_mu=exps.mu)
    if kind == "heat-semilinear":
        model = SemilinearHeatModel(32, kappa=6.0)
        recipe = model.recipe
        u0 = model.state_from_function(lambda x: 0.5 * np.sin(np.pi * x))
        return model, u0, dict(monitor_sigmas=(recipe.s_c,),
                               weighted_sigma=recipe.s, weighted_mu=recipe.mu)
    if kind == "heat-periodic":
        model = PeriodicHeatModel(PeriodicGrid(8.0, 64), kappa=5.0)
        u0 = model.state_from_values(np.exp(-model.grid.nodes ** 2 / 2))
        return model, u0, dict(weighted_sigma=1.0, weighted_mu=0.25)
    model, _, u0, _ = _strip_pair(periodic_strip(16, 12), amplitude=0.3)
    return model, u0, dict(weighted_sigma=1.5, weighted_mu=0.25)


@pytest.mark.parametrize("kind", ["heat-semilinear", "heat-periodic",
                                  "cloud"])
def test_picard_on_pde_models_matches_reference_loop(kind):
    # real states and spectrum, complex states on a real spectrum, and
    # complex states on a complex block spectrum: each dtype route of
    # the recursion, bit for bit
    model, u0, levels = _picard_case(kind)
    config = SolverConfig(picard_segments=32, picard_tol=1e-12,
                          picard_max_iter=40, **levels)
    result = picard_solve(model, u0, 0.1, config)
    states, distances, iterations, converged = reference_picard(
        u0, 0.1, config, model.propagator, model.nonlinearity, model.norm,
        **reference_levels(config))
    assert (result.iterations, result.converged) == (iterations, True)
    assert iterations >= 4
    assert np.array_equal(result.distances, distances)
    assert len(result.states) == len(states)
    assert all(np.array_equal(a, b) for a, b in zip(result.states, states))


@pytest.mark.parametrize("kind", ["lab", "cloud", "heat-semilinear",
                                  "heat-periodic"])
def test_picard_sweep_calls_f_and_norms_once_over_the_node_stack(kind):
    model, u0, levels = _picard_case(kind)
    config = SolverConfig(picard_segments=32, picard_tol=1e-12,
                          picard_max_iter=40, **levels)
    f_shapes, norm_shapes = [], []
    counted = SimpleNamespace(
        propagator=model.propagator,
        nonlinearity=_counted(model.nonlinearity, f_shapes),
        norm=_counted(model.norm, norm_shapes))
    result = picard_solve(counted, u0, 0.1, config)
    assert result.converged and result.iterations >= 3
    assert np.all(np.isfinite(result.states))
    nodes = config.picard_segments + 1
    assert f_shapes == [(nodes,) + u0.shape] * result.iterations
    # the scale of u0, then at most the sup and the weighted term per sweep
    assert norm_shapes[0] == u0.shape
    assert len(norm_shapes) <= 1 + 2 * result.iterations
    assert result.states.shape == (nodes,) + u0.shape


def _package_model_classes():
    """Every class defined in the package with a nonlinearity and a norm."""
    found = set()
    for info in pkgutil.iter_modules(mildflow.__path__):
        module = importlib.import_module(f"mildflow.{info.name}")
        found.update(cls for _, cls in inspect.getmembers(module, inspect.isclass)
                     if cls.__module__ == module.__name__
                     and hasattr(cls, "nonlinearity") and hasattr(cls, "norm"))
    return found


def _stack_cases():
    """(model, (2, 3, ...) stack of states, norm levels) for each model
    kind of the package: strip, lab, sine, cosine, periodic of both kinds."""
    rng = np.random.default_rng(8)
    geometry = periodic_strip(16, 12)
    cloud, _, _, _ = _strip_pair(geometry)
    strip_states = np.stack([cloud.state_from_field(random_dirichlet_field(
        geometry, np.random.default_rng(seed))) for seed in range(6)])
    problem = random_problem(9, np.random.default_rng(4))
    sine, cosine = SemilinearHeatModel(32), QuasilinearHeatModel(17)
    line = PeriodicGrid(8.0, 64)
    cases = [(cloud, strip_states, (0.0, 1.0, 1.5)),
             (problem, rng.standard_normal((6, 9)), (0.0, 0.5, 1.0)),
             (sine, rng.standard_normal((6, 31)), (0.0, 1.0, 1.5)),
             (cosine, 0.3 * rng.standard_normal((6, 17)), (0.0, 1.0))]
    for kind in ("semilinear", "quasilinear"):
        model = PeriodicHeatModel(line, kind)
        cases.append((model, model.state_from_values(
            0.5 * rng.standard_normal((6, 64))), (0.0, 1.0)))
    return [(model, states.reshape((2, 3) + states.shape[1:]), sigmas)
            for model, states, sigmas in cases]


def test_stacked_callables_match_single_states():
    cases = _stack_cases()
    assert {type(model) for model, _, _ in cases} == _package_model_classes()
    for model, stack, sigmas in cases:
        rows = [state for block in stack for state in block]
        f_stack = model.nonlinearity(stack).reshape((6,) + stack.shape[2:])
        for k, state in enumerate(rows):
            assert np.array_equal(f_stack[k], model.nonlinearity(state))
        for sigma in sigmas:
            norms = model.norm(stack, sigma)
            assert norms.shape == (2, 3)
            single = [model.norm(state, sigma) for state in rows]
            assert all(isinstance(value, float) for value in single)
            assert np.array_equal(norms.ravel(), single)
        if hasattr(model, "norms"):  # every level from one transform
            stacked = model.norms(stack, sigmas)
            for k, state in enumerate(rows):
                for sigma, value in model.norms(state, sigmas).items():
                    assert isinstance(value, float)
                    assert np.array_equal(stacked[sigma].reshape(6)[k], value)


@pytest.mark.parametrize("extra", [[], ["--set", "grid.periodic=false",
                                        "--set", "grid.lx=6"]])
def test_snapshot_grid_values_match_full_layout(tmp_path, extra):
    out = tmp_path / "run"
    argv = ["simulate", "--init", "random", "--seed", "4", "--amplitude", "0.5",
            "--set", "grid.nx=16", "--set", "grid.ny=12", *extra,
            "--t-end", "0.02", "--dt", "0.002", "--snapshot-every", "3",
            "--out", str(out)]
    assert cli.main(argv) == 0
    config = parse_config(None, [f"run.out={out}", "grid.nx=16", "grid.ny=12",
                                 "init.kind=random", "run.seed=4",
                                 "init.amplitude=0.5", "solver.t_end=0.02",
                                 "solver.dt=0.002", "solver.snapshot_every=3",
                                 *extra[1::2]])
    model, u0, *_ = cli._build_model_and_state(config)
    reference = FullLayoutCloud(model.coeffs, model.geometry)
    want = run_simulation(reference, reference.from_half(u0),
                          cli._solver_config(config, snapshot_every=3))
    files = sorted((out / "snapshots").iterdir())
    assert [p.name for p in files] == [f"step_{k:08d}.bin" for k in (0, 3, 6, 9)]
    assert len(want.snapshots) == len(files)
    for path, (_, state) in zip(files, want.snapshots):
        values, _, _ = read_snapshot(str(path))
        _assert_close(values, reference.grid(reference.full(state)))
