"""Strip spaces: transforms, derivatives, the cumulative-integral operator,
and multiplier norms against quadrature oracles."""

import math

import numpy as np
import pytest

from mildflow.cloud import CloudCoefficients, CloudModel
from mildflow.strip import (
    StripGeometry,
    apply_T,
    dealias_x,
    derivative_x,
    dirichlet_mode_field,
    field_from_function,
    from_grid,
    l2_norm,
    open_strip,
    periodic_strip,
    random_dirichlet_field,
    sobolev_norm_set,
    to_grid,
)
from oracles import (
    derivative_y,
    h1_norm_quadrature,
    rough_dirichlet_field,
    sobolev_norm,
)

GEOM = periodic_strip(nx=32, ny=24)


def test_geometry_validation():
    with pytest.raises(ValueError):
        StripGeometry(periodic_x=True, half_length=math.pi, nx=10, ny=4)
    with pytest.raises(ValueError):
        StripGeometry(periodic_x=True, half_length=1.0, nx=16, ny=16)
    with pytest.raises(ValueError):
        StripGeometry(periodic_x=False, half_length=8 * math.pi, nx=15, ny=16)


def test_round_trip_identity():
    rng = np.random.default_rng(1)
    values = rng.standard_normal((GEOM.nx, GEOM.ny))
    back = to_grid(from_grid(values, GEOM), GEOM)
    assert np.max(np.abs(back - values)) <= 1e-12


def test_constant_in_x_profile():
    f = field_from_function(GEOM, lambda x, y: np.sin(math.pi * y) + 0.0 * x)
    grid = to_grid(f, GEOM)
    expected = np.sin(math.pi * GEOM.y_nodes())
    assert np.max(np.abs(grid - expected[None, :])) <= 1e-12


def test_derivative_x_constant_is_zero():
    f = field_from_function(GEOM, lambda x, y: 1.0 + 0.0 * x + 0.0 * y)
    assert np.max(np.abs(to_grid(derivative_x(f, GEOM), GEOM))) <= 1e-12


def test_derivative_x_single_mode_exact():
    f = field_from_function(GEOM, lambda x, y: np.sin(x) + 0.0 * y)
    got = to_grid(derivative_x(f, GEOM), GEOM)
    expected = np.cos(GEOM.x_nodes())[:, None] * np.ones(GEOM.ny)
    assert np.max(np.abs(got - expected)) <= 1e-12


def test_derivative_y_sine():
    geom = periodic_strip(nx=16, ny=32)
    f = field_from_function(geom, lambda x, y: np.sin(math.pi * y) + 0.0 * x)
    got = to_grid(derivative_y(f), geom)
    expected = math.pi * np.cos(math.pi * geom.y_nodes())[None, :]
    assert np.max(np.abs(got - expected)) <= 1e-8


def test_apply_T_constant():
    f = field_from_function(GEOM, lambda x, y: np.ones_like(x + y))
    got = to_grid(apply_T(f), GEOM)
    expected = GEOM.y_nodes()[None, :]
    assert np.max(np.abs(got - expected)) <= 1e-12
    # Lemma-style norm check on the single profile: ||y||^2 = 1/3 over y.
    tw = apply_T(f)
    ratio = (l2_norm(tw, GEOM) / l2_norm(f, GEOM)) ** 2
    assert ratio == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_apply_T_sine_profile():
    f = field_from_function(GEOM, lambda x, y: np.sin(math.pi * y) + 0.0 * x)
    got = to_grid(apply_T(f), GEOM)
    y = GEOM.y_nodes()
    expected = ((1.0 - np.cos(math.pi * y)) / math.pi)[None, :]
    assert np.max(np.abs(got - expected)) <= 1e-10
    # output does not vanish at y = 1
    assert abs(to_grid(apply_T(f), GEOM)[0, -1] - 2.0 / math.pi) <= 1e-10


def test_apply_T_linear():
    rng = np.random.default_rng(2)
    a = from_grid(rng.standard_normal((GEOM.nx, GEOM.ny)), GEOM)
    b = from_grid(rng.standard_normal((GEOM.nx, GEOM.ny)), GEOM)
    lhs = apply_T(2.0 * a - 3.0 * b)
    rhs = 2.0 * apply_T(a) - 3.0 * apply_T(b)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_fundamental_theorem_of_calculus_smooth():
    f = random_dirichlet_field(periodic_strip(nx=16, ny=32),
                               np.random.default_rng(3))
    back = derivative_y(apply_T(f))
    assert np.max(np.abs(back - f)) <= 1e-8


def test_T_operator_norm_bound_random():
    rng = np.random.default_rng(4)
    for _ in range(100):
        values = rng.standard_normal((GEOM.nx, GEOM.ny))
        w = from_grid(values, GEOM)
        assert l2_norm(apply_T(w), GEOM) <= l2_norm(w, GEOM) + 1e-10


def test_sobolev_norm_single_mode():
    f = field_from_function(GEOM, lambda x, y: np.sin(math.pi * y) + 0.0 * x)
    n0 = sobolev_norm(f, GEOM, 0.0)
    assert n0 == pytest.approx(math.sqrt(GEOM.half_length), rel=1e-12)
    n1 = sobolev_norm(f, GEOM, 1.0)
    assert n1 / n0 == pytest.approx(math.sqrt(1.0 + math.pi ** 2), rel=1e-12)


def test_sobolev_norm_sigma_range():
    f = np.zeros((GEOM.nx // 2 + 1, GEOM.ny), dtype=complex)
    with pytest.raises(ValueError):
        sobolev_norm(f, GEOM, 2.5)


def test_sobolev_zero_order_matches_quadrature_on_sine_span():
    rng = np.random.default_rng(5)
    for _ in range(5):
        f = random_dirichlet_field(GEOM, rng)
        assert sobolev_norm(f, GEOM, 0.0) == pytest.approx(l2_norm(f, GEOM), rel=1e-10)


def test_h1_multiplier_vs_quadrature_within_5_percent():
    rng = np.random.default_rng(6)
    geom = periodic_strip(nx=32, ny=32)
    for _ in range(5):
        f = random_dirichlet_field(geom, rng)
        mult = sobolev_norm(f, geom, 1.0)
        quadr = h1_norm_quadrature(f, geom)
        assert abs(mult - quadr) / quadr <= 0.05


def test_norms_monotone_in_sigma():
    rng = np.random.default_rng(7)
    f = random_dirichlet_field(GEOM, rng)
    sigmas = [0.0, 0.5, 1.0, 1.5, 2.0]
    norms = sobolev_norm_set(f[..., 1:-1], sigmas, GEOM)
    for lo, hi in zip(sigmas, sigmas[1:]):
        assert norms[lo] <= norms[hi] * (1.0 + 1e-12)


def test_half_spectrum_layout_and_stacks():
    rng = np.random.default_rng(8)
    values = rng.standard_normal((3, GEOM.nx, GEOM.ny))
    stack = from_grid(values, GEOM)
    assert stack.shape == (3, GEOM.nx // 2 + 1, GEOM.ny)
    for one, field_values in zip(stack, values):
        assert np.array_equal(one, from_grid(field_values, GEOM))
    full = np.fft.fft(values, axis=-2) / GEOM.nx
    assert np.max(np.abs(stack - full[:, : GEOM.nx // 2 + 1])) <= 1e-15
    assert np.max(np.abs(to_grid(stack, GEOM) - values)) <= 1e-12


def test_nyquist_row_counts_once_and_has_no_x_derivative():
    # (-1)^j sin(pi y): the Nyquist mode alone, ||.||^2 = 2 Lx * 1/2
    nyquist = GEOM.nx // 2
    f = field_from_function(
        GEOM, lambda x, y: np.cos(nyquist * x) * np.sin(math.pi * y))
    assert np.max(np.abs(f[:nyquist])) <= 1e-15
    assert GEOM.parseval_weights().tolist() == [1.0] + [2.0] * (nyquist - 1) + [1.0]
    assert l2_norm(f, GEOM) == pytest.approx(math.sqrt(GEOM.half_length), rel=1e-12)
    assert sobolev_norm(f, GEOM, 1.0) == pytest.approx(
        math.sqrt((1.0 + nyquist ** 2 + math.pi ** 2) * GEOM.half_length), rel=1e-10)
    assert np.max(np.abs(derivative_x(f, GEOM))) == 0.0
    # the imaginary part of the Nyquist row does not reach the grid
    shifted = (1.0 + 1e3j) * f
    assert np.max(np.abs(to_grid(shifted, GEOM) - to_grid(f, GEOM))) <= 1e-12


STACK_MAPS = {
    "to_grid": lambda c: to_grid(c, GEOM),
    "derivative_x": lambda c: derivative_x(c, GEOM),
    "dealias_x": lambda c: dealias_x(c, GEOM),
    "apply_T": apply_T,
    "field_from_state": lambda c: CloudModel(
        CloudCoefficients(), GEOM).field_from_state(c[..., 1:-1]),
}


@pytest.mark.parametrize("name", sorted(STACK_MAPS))
def test_field_maps_take_a_stack_row_by_row(name):
    rng = np.random.default_rng(14)
    stack = from_grid(rng.standard_normal((3, GEOM.nx, GEOM.ny)), GEOM)
    out = STACK_MAPS[name](stack)
    assert out.shape[0] == 3
    for row, one in zip(out, stack):
        assert np.array_equal(row, STACK_MAPS[name](one))
    # grid data enter through from_grid, which checks their shape
    with pytest.raises(ValueError, match=r"grid shape \(3, 32, 23\) does not "
                       r"match geometry \(32, 24\)"):
        from_grid(np.zeros((3, GEOM.nx, GEOM.ny - 1)), GEOM)


def test_parseval_weights_match_grid_sum():
    # the quadrature L2 norm is the x-trapezoid sum of the y-quadrature
    # of every grid row, Nyquist mode included
    from mildflow.strip import _l2_quadrature

    rng = np.random.default_rng(12)
    values = rng.standard_normal((GEOM.nx, GEOM.ny))
    evalmat, w = _l2_quadrature(GEOM.ny)
    grid_sum = 2.0 * GEOM.half_length / GEOM.nx * np.sum((values @ evalmat.T) ** 2 @ w)
    assert l2_norm(from_grid(values, GEOM), GEOM) ** 2 == pytest.approx(grid_sum, rel=1e-12)


def test_dealias_zeroes_rows_above_cut():
    rng = np.random.default_rng(13)
    f = from_grid(rng.standard_normal((GEOM.nx, GEOM.ny)), GEOM)
    out = dealias_x(f, GEOM)
    cut = GEOM.dealias_cut
    assert np.all(out[cut + 1:] == 0.0)
    assert np.array_equal(out[: cut + 1], f[: cut + 1])


def test_dirichlet_mode_field_norm():
    geom = periodic_strip(nx=32, ny=24)
    f = dirichlet_mode_field(geom, n=1, m=1)
    # cos(x) sin(pi y): ||.||^2 = 2Lx * (1/2) * (1/2)
    assert l2_norm(f, geom) == pytest.approx(math.sqrt(geom.half_length / 2.0), rel=1e-12)
    lam = 1.0 + math.pi ** 2
    expected = math.sqrt((1.0 + lam)) * l2_norm(f, geom)
    assert sobolev_norm(f, geom, 1.0) == pytest.approx(expected, rel=1e-10)


def test_rough_field_finite_target_norm():
    geom = periodic_strip(nx=64, ny=48)
    rng = np.random.default_rng(10)
    f = rough_dirichlet_field(geom, rng, sigma=1.0)
    n1 = sobolev_norm(f, geom, 1.0)
    n15 = sobolev_norm(f, geom, 1.5)
    assert math.isfinite(n1) and n1 > 0.0
    # rougher than H^1.5: the higher norm is markedly larger
    assert n15 / n1 > 3.0
    assert np.max(np.abs(f[:, [0, -1]])) <= 1e-12


def test_open_strip_wavenumbers():
    geom = open_strip(nx=32, ny=16, half_length=8.0 * math.pi)
    k = geom.wavenumbers()
    assert k[1] == pytest.approx(1.0 / 8.0)
    assert geom.dealias_cut == 10
