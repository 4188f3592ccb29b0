"""Strip operator blocks: assembly, spectral bounds, semigroup action,
and the advection-feedback nonlinearity against a closed form."""

import math

import numpy as np
import pytest
from scipy.linalg import eigvals, expm

from mildflow import cloud
from mildflow.cloud import (
    CloudCoefficients,
    CloudModel,
    analytic_bound_nonperiodic,
    mode_bounds,
    mode_matrix,
    mode_spectra,
    mode_stack,
    nonlinearity_cloud,
    periodic_stability_margin,
    spectral_bound_numeric,
)
from mildflow.strip import (
    field_from_function,
    from_grid,
    open_strip,
    periodic_strip,
    to_grid,
)
from mildflow.propagators import dense_phis
from oracles import decompose, phi_action_dense

GEO = periodic_strip(nx=32, ny=32)


def test_coefficients_reject_nonpositive_diffusivity():
    with pytest.raises(ValueError, match="nu"):
        CloudCoefficients(nu=0.0)


def test_analytic_bound_closed_forms():
    assert analytic_bound_nonperiodic(CloudCoefficients(1, 0, 0)) == \
        pytest.approx(-math.pi ** 2, abs=1e-14)
    assert analytic_bound_nonperiodic(CloudCoefficients(1, 5, 1)) == \
        pytest.approx(-1.7280117474995649, abs=1e-13)
    assert analytic_bound_nonperiodic(CloudCoefficients(1, 0, 2 * math.pi)) == \
        pytest.approx(math.pi ** 2, abs=1e-13)


def test_analytic_bound_even_in_beta():
    a = analytic_bound_nonperiodic(CloudCoefficients(0.7, 1.2, 3.0))
    b = analytic_bound_nonperiodic(CloudCoefficients(0.7, 1.2, -3.0))
    assert a == b


def test_pure_diffusion_spectrum():
    # beta = 0 decouples: top eigenvalue is eta - nu pi^2 from mode 0
    geo = periodic_strip(nx=16, ny=48)
    for nu, eta in [(1.0, 0.0), (0.25, 3.0), (2.5, -1.0)]:
        got = spectral_bound_numeric(CloudCoefficients(nu, eta, 0.0), geo, n_max=3)
        assert got == pytest.approx(eta - nu * math.pi ** 2, abs=1e-6)


def test_mode_one_diffusion_shift():
    top = np.max(np.linalg.eigvals(
        mode_matrix(1, CloudCoefficients(1, 0, 0), periodic_strip(nx=16, ny=48))).real)
    assert top == pytest.approx(-math.pi ** 2 - 1.0, abs=1e-6)


def test_dirichlet_laplacian_eigenvalue_ladder():
    lam = np.linalg.eigvals(mode_matrix(0, CloudCoefficients(1, 0, 0),
                                        periodic_strip(nx=16, ny=48)))
    lam = np.sort(lam.real)[::-1]
    want = -(np.arange(1, 6) * math.pi) ** 2
    assert np.max(np.abs(lam[:5] - want)) < 1e-5


def test_negative_mode_is_conjugate():
    coeffs = CloudCoefficients(1.0, 0.5, 2.0)
    plus = mode_matrix(3, coeffs, GEO)
    minus = mode_matrix(-3, coeffs, GEO)
    assert np.max(np.abs(minus - plus.conj())) == 0.0
    lam_plus, lam_minus = decompose(plus)[0], decompose(minus)[0]
    defect = np.max(np.abs(np.sort_complex(lam_minus.conj())
                           - np.sort_complex(lam_plus)))
    assert defect < 1e-10


@pytest.mark.parametrize("geo", [periodic_strip(nx=8, ny=12),
                                 open_strip(nx=10, ny=9, half_length=3.0)])
def test_model_stacks_match_per_mode_decompose(geo):
    # one stacked decomposition of the stored modes n = 0..nx/2; the
    # stack holds mode 0's real block cast to complex
    coeffs = CloudCoefficients(0.7, 1.5, -2.5)
    model = CloudModel(coeffs, geo)
    prop = model.propagator
    for idx, n in enumerate(range(geo.nx // 2 + 1)):
        lam, vecs, vecs_inv, _, defective = decompose(
            mode_matrix(int(n), coeffs, geo).astype(complex))
        for got, want in ((prop.lam, lam), (prop.vectors, vecs),
                          (prop.vectors_inv, vecs_inv)):
            assert got[idx].tobytes() == want.tobytes()
        assert not defective
    assert not prop.defective


def test_semigroup_property_and_time_zero():
    prop = CloudModel(CloudCoefficients(1.0, 0.0, 1.5), GEO).propagator
    rng = np.random.default_rng(11)
    shape = (GEO.nx // 2 + 1, GEO.ny - 2)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    two_leg = prop.propagate(0.2, prop.propagate(0.3, v))
    assert np.max(np.abs(two_leg - prop.propagate(0.5, v))) < 1e-9
    assert np.max(np.abs(prop.propagate(0.0, v) - v)) < 1e-12


@pytest.mark.parametrize("beta", [1.0, 30.0, 100.0])
def test_model_step_factors_match_expm_per_block(beta):
    # the eigen route of the strip propagator against scaling-and-squaring
    coeffs = CloudCoefficients(1.0, 0.0, beta)
    geo = periodic_strip(nx=8, ny=48)
    model = CloudModel(coeffs, geo)
    dt = 1e-3
    factors = model.propagator.step_factors(dt)
    eye = np.eye(geo.ny - 2)
    for idx, n in enumerate(range(geo.nx // 2 + 1)):
        block = dt * mode_matrix(int(n), coeffs, geo)
        wants = (expm(block), phi_action_dense(block, eye, 1),
                 phi_action_dense(block, eye, 2))
        for factor, want in zip(factors, wants):
            assert np.linalg.norm(factor[idx] - want) <= \
                1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("dt", [1e-3, 1e-2])
def test_dense_phis_match_expm_on_strip_mode_blocks(dt):
    # the defective-block fallback on complex drift blocks, beta = 100
    coeffs = CloudCoefficients(1.0, 0.0, 100.0)
    geo = periodic_strip(nx=8, ny=48)
    eye = np.eye(geo.ny - 2)
    for n in range(geo.nx // 2 + 1):
        block = dt * mode_matrix(n, coeffs, geo)
        wants = (expm(block), phi_action_dense(block, eye, 1),
                 phi_action_dense(block, eye, 2))
        for got, want in zip(dense_phis(block), wants):
            assert got.dtype == block.dtype
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_numeric_bound_below_analytic_bound():
    rng = np.random.default_rng(21)
    geo = open_strip(nx=32, ny=32, half_length=8.0 * math.pi)
    for _ in range(10):
        coeffs = CloudCoefficients(nu=rng.uniform(0.2, 2.0),
                                   eta=rng.uniform(-2.0, 2.0),
                                   beta=rng.uniform(-3.0, 3.0))
        numeric = spectral_bound_numeric(coeffs, geo, n_max=geo.nx // 2)
        assert numeric <= analytic_bound_nonperiodic(coeffs) + 1e-6


def test_periodic_condition_implies_negative_bound():
    rng = np.random.default_rng(22)
    checked = 0
    while checked < 5:
        coeffs = CloudCoefficients(nu=rng.uniform(0.3, 1.5),
                                   eta=rng.uniform(-1.0, 2.0),
                                   beta=rng.uniform(-3.0, 3.0))
        if not periodic_stability_margin(coeffs) > 0.0:
            continue
        checked += 1
        assert spectral_bound_numeric(coeffs, GEO, n_max=GEO.nx // 2) < 0.0


def test_periodic_condition_margin_sign():
    assert periodic_stability_margin(CloudCoefficients(1, 0, 1)) > 0.0
    strong = periodic_stability_margin(CloudCoefficients(0.1, 0, 10.0))
    assert strong < 0.0


CRITERION_STRIPS = (open_strip(128, 48, half_length=4.0 * math.pi),
                    periodic_strip(64, 48))


def _random_coefficients(rng, beta_max=2.0):
    return CloudCoefficients(nu=rng.uniform(0.5, 2.0), eta=rng.uniform(-1.0, 1.0),
                             beta=rng.uniform(-beta_max, beta_max))


def mode_spectra_loop(coeffs, geo, n_max=None):
    """Per-mode (n, max real part, imaginary part at that maximum), one
    eigvals call per block: the full loop both strip-spectrum routines
    must reproduce."""
    if n_max is None:
        n_max = geo.nx // 2
    records = []
    for n in range(n_max + 1):
        lam = eigvals(mode_matrix(n, coeffs, geo))
        z = lam[np.argmax(lam.real)]
        records.append((n, float(z.real), float(z.imag)))
    return records


def _assert_bounds_hold(coeffs, geo):
    tops = np.array([rec[1] for rec in mode_spectra_loop(coeffs, geo)])
    bounds = mode_bounds(coeffs, geo, geo.nx // 2)
    assert np.all(bounds >= tops - 1e-11)


@pytest.mark.parametrize("geo", CRITERION_STRIPS)
def test_mode_bounds_hold_on_criterion_strips(geo):
    rng = np.random.default_rng(31)
    for _ in range(20):
        _assert_bounds_hold(_random_coefficients(rng), geo)


@pytest.mark.parametrize("ny", [8, 12, 64])
def test_mode_bounds_hold_across_ny(ny):
    rng = np.random.default_rng(ny)
    for geo in (periodic_strip(16, ny), open_strip(16, ny, half_length=3.0)):
        for beta in (0.0, 10.0):
            _assert_bounds_hold(CloudCoefficients(1.3, 0.4, beta), geo)
        for _ in range(3):
            _assert_bounds_hold(_random_coefficients(rng, beta_max=10.0), geo)


def test_range_certificate_values():
    top, second, h = cloud.range_certificate(48)
    assert top == pytest.approx(-math.pi ** 2, abs=1e-9)
    assert second == pytest.approx(-4.0 * math.pi ** 2, abs=1e-8)
    assert 0.3 < h < 0.35


@pytest.mark.parametrize("geo", [open_strip(64, 24, half_length=4.0 * math.pi),
                                 periodic_strip(32, 24)])
def test_two_level_bound_is_never_looser(geo):
    # against the single-level bound eta + nu (Lambda1 - k^2) + |beta k| h
    # and lambda_max of [[a, e], [e, c]], each mode's 2x2 matrix
    top, second, h = cloud.range_certificate(geo.ny)
    k = np.arange(geo.nx // 2 + 1) * math.pi / geo.half_length
    for beta in (0.0, 1.7, 100.0, -100.0):
        coeffs = CloudCoefficients(0.8, 0.3, beta)
        bounds = mode_bounds(coeffs, geo, geo.nx // 2)
        a = coeffs.eta + coeffs.nu * (top - k * k)
        e = abs(beta) * k * h
        c = coeffs.eta + coeffs.nu * (second - k * k) + e
        single = a + e
        pair = np.array([np.linalg.eigvalsh([[an, en], [en, cn]])[-1]
                         for an, en, cn in zip(a, e, c)])
        assert np.all(bounds <= single)
        assert bounds == pytest.approx(np.minimum(single, pair), rel=1e-12, abs=1e-12)
        if abs(beta) == 100.0:
            assert np.any((pair > single) & (bounds == single))
        if beta == 1.7:
            assert np.any(bounds < single - 1e-6)
        _assert_bounds_hold(coeffs, geo)


@pytest.mark.parametrize("geo", [open_strip(64, 24, half_length=4.0 * math.pi),
                                 periodic_strip(32, 24)])
@pytest.mark.parametrize("beta", [0.0, 100.0, -100.0, 1.7])
def test_pruned_bound_equals_full_loop(geo, beta):
    coeffs = CloudCoefficients(0.8, 0.3, beta)
    for n_max in (None, 0, 6, geo.nx):
        want = max(rec[1] for rec in mode_spectra_loop(coeffs, geo, n_max))
        got = spectral_bound_numeric(coeffs, geo, n_max)
        assert got.hex() == want.hex()


@pytest.fixture
def eigvals_calls(monkeypatch):
    """Record every block `cloud` hands to eigvals."""
    calls = []
    eigvals = cloud.eigvals
    monkeypatch.setattr(cloud, "eigvals", lambda a: calls.append(a) or eigvals(a))
    return calls


@pytest.mark.parametrize("beta", [0.0, -2.5])
def test_mode_zero_takes_the_real_eigensolver(monkeypatch, eigvals_calls, beta):
    # mode 0 has no drift: its block is real, every other block complex;
    # without a certificate the bound visits the modes in order
    geo, coeffs = open_strip(10, 9, half_length=3.0), CloudCoefficients(0.7, 1.5, beta)
    monkeypatch.setattr(cloud, "range_certificate", lambda ny: None)
    spectral_bound_numeric(coeffs, geo)
    assert [a.dtype for a in eigvals_calls] == \
        [np.float64] + [np.complex128] * (geo.nx // 2)
    for n, block in enumerate(eigvals_calls):
        assert block.tobytes() == mode_matrix(n, coeffs, geo).tobytes()
    # the stack of mode 0 alone is complex, as the propagator and the
    # CLI table read it
    stack = mode_stack(range(1), coeffs, geo)
    assert stack.dtype == np.complex128 and stack.shape == (1, 7, 7)
    assert stack.tobytes() == mode_matrix(0, coeffs, geo).astype(complex).tobytes()


def test_missing_certificate_takes_full_loop(monkeypatch, eigvals_calls):
    geo, coeffs = CRITERION_STRIPS[0], CloudCoefficients(1.1, 0.2, -1.4)
    want = spectral_bound_numeric(coeffs, geo)
    eigvals_calls.clear()
    monkeypatch.setattr(cloud, "range_certificate", lambda ny: None)
    assert spectral_bound_numeric(coeffs, geo).hex() == want.hex()
    assert len(eigvals_calls) == geo.nx // 2 + 1


def test_benchmark_strip_decomposes_mode_zero_alone(eigvals_calls):
    geo = CRITERION_STRIPS[0]
    rng = np.random.default_rng(3)
    for _ in range(20):
        coeffs = _random_coefficients(rng)
        eigvals_calls.clear()
        got = spectral_bound_numeric(coeffs, geo)
        assert len(eigvals_calls) == 1
        block = eigvals_calls[0]
        assert block.dtype == np.float64
        assert block.tobytes() == mode_matrix(0, coeffs, geo).tobytes()
        want = max(rec[1] for rec in mode_spectra_loop(coeffs, geo))
        assert got.hex() == want.hex()


@pytest.mark.parametrize("coeffs, key", [
    (CloudCoefficients(1.0, 0.0, 1e308), "cloud.beta"),
    (CloudCoefficients(1e307, 0.0, 1.0), "cloud.nu"),
])
def test_overflowing_coefficients_are_named(coeffs, key):
    # a block of n <= 4 and a mode bound overflow; the bound check runs
    # first, so no NaN reaches the visit order
    geo = periodic_strip(8, 48)
    with pytest.raises(ValueError, match=key):
        mode_stack(range(5), coeffs, geo)
    with pytest.raises(ValueError, match=key):
        mode_bounds(coeffs, geo, geo.nx // 2)
    with pytest.raises(ValueError, match=key):
        spectral_bound_numeric(coeffs, geo)


def test_overflowing_wavenumber_names_grid_lx():
    # k_1 = pi / 5e-301 is finite but k_1^2 overflows: the strip length,
    # not a coefficient, is the key to change
    geo = open_strip(8, 8, half_length=5e-301)
    for build in (lambda: mode_stack(range(2), CloudCoefficients(), geo),
                  lambda: mode_bounds(CloudCoefficients(), geo, 4)):
        with pytest.raises(ValueError, match="grid.lx") as info:
            build()
        assert "cloud." not in str(info.value)


@pytest.mark.parametrize("name", ["nu", "eta", "beta"])
def test_coefficients_reject_nonfinite(name):
    with pytest.raises(ValueError, match=f"cloud.{name}"):
        CloudCoefficients(**{name: math.inf})


def test_mode_spectra_records():
    coeffs = CloudCoefficients(1, 0, 1)
    top, condition, defective = mode_spectra(coeffs, GEO, n_max=4)
    assert top.shape == condition.shape == defective.shape == (5,)
    # mode 0 has no drift term: purely real spectrum
    assert top[0].imag == pytest.approx(0.0, abs=1e-9)
    assert top[0].real == pytest.approx(-math.pi ** 2, abs=1e-6)
    want = [complex(re, im) for _, re, im in mode_spectra_loop(coeffs, GEO, 4)]
    assert np.allclose(top, want, rtol=1e-10, atol=1e-10)
    assert np.all(condition >= 1.0) and not defective.any()


def test_nonlinearity_closed_form():
    # u = sin x sin pi y gives
    #   u_y T(u_x) - u u_x = sin x cos x (cos pi y - 1)
    geo = periodic_strip(nx=64, ny=48)
    u = field_from_function(geo, lambda x, y: np.sin(x) * np.sin(np.pi * y))
    f = nonlinearity_cloud(u, geo)
    ref = field_from_function(
        geo, lambda x, y: np.sin(x) * np.cos(x) * (np.cos(np.pi * y) - 1.0))
    assert np.max(np.abs(to_grid(f, geo) - to_grid(ref, geo))) < 1e-8


def test_nonlinearity_quadratic_homogeneity():
    geo = periodic_strip(nx=32, ny=32)
    u = field_from_function(
        geo, lambda x, y: np.sin(2 * x) * np.sin(np.pi * y) ** 2)
    f1 = to_grid(nonlinearity_cloud(u, geo), geo)
    u2 = field_from_function(
        geo, lambda x, y: 3.0 * np.sin(2 * x) * np.sin(np.pi * y) ** 2)
    f9 = to_grid(nonlinearity_cloud(u2, geo), geo)
    assert np.max(np.abs(f9 - 9.0 * f1)) < 1e-9 * max(1.0, np.max(np.abs(f9)))


def test_nonlinearity_vanishes_on_x_independent_profiles():
    # both terms carry an x-derivative factor
    geo = periodic_strip(nx=32, ny=32)
    u = field_from_function(geo, lambda x, y: np.sin(np.pi * y) + 0.0 * x)
    assert np.max(np.abs(to_grid(nonlinearity_cloud(u, geo), geo))) < 1e-12


def test_model_state_round_trip_and_norms():
    geo = periodic_strip(nx=32, ny=32)
    model = CloudModel(CloudCoefficients(1, 0, 1), geo)
    u = field_from_function(geo, lambda x, y: np.sin(x) * np.sin(np.pi * y))
    state = model.state_from_field(u)
    assert state.shape == (geo.nx // 2 + 1, geo.ny - 2)
    back = model.field_from_state(state)
    assert np.max(np.abs(to_grid(back, geo) - to_grid(u, geo))) < 1e-12
    # |u|_{H^1}^2 = pi + pi^3/2 for sin x sin pi y on the 2 pi strip
    want = math.sqrt(math.pi + math.pi ** 3 / 2.0)
    assert model.norm(state, 1.0) == pytest.approx(want, rel=1e-10)


def test_state_from_field_takes_a_stack_of_fields():
    geo = periodic_strip(nx=16, ny=12)
    model = CloudModel(CloudCoefficients(1, 0, 1), geo)
    values = np.random.default_rng(15).standard_normal((3, geo.nx, geo.ny))
    states = model.state_from_field(from_grid(values, geo))
    assert states.shape == (3, geo.nx // 2 + 1, geo.ny - 2)
    for state, one in zip(states, values):
        assert np.array_equal(state, model.state_from_field(from_grid(one, geo)))


def test_a_norm_level_does_not_depend_on_the_levels_asked_with_it():
    # each level takes its own (1, M) product, so norms(x, S)[s] is
    # norm(x, s) bit for bit for every set S of levels
    geo = periodic_strip()
    model = CloudModel(CloudCoefficients(1, 0, 1), geo)
    rng = np.random.default_rng(3)
    shape = (geo.nx // 2 + 1, geo.ny - 2)
    level_sets = [(0.0, 1.0), (1.0, 1.5), (0.0, 1.0, 1.5), (1.5, 0.0, 2.0)]
    for _ in range(20):
        state = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for sigmas in level_sets:
            for sigma, value in model.norms(state, sigmas).items():
                assert value == model.norm(state, sigma)


def test_model_linear_mode_evolution_matches_eigenvalue():
    geo = periodic_strip(nx=32, ny=32)
    model = CloudModel(CloudCoefficients(1, 0, 0), geo)
    u = field_from_function(geo, lambda x, y: np.sin(x) * np.sin(np.pi * y))
    state = model.state_from_field(u)
    t = 0.05
    out = model.propagator.propagate(t, state)
    decay = math.exp(-(math.pi ** 2 + 1.0) * t)
    assert np.max(np.abs(out - decay * state)) < 1e-8 * np.max(np.abs(state))
