"""Strip circulation model: linear operator, spectral bounds, nonlinearity.

The scalar field u lives on a horizontal strip with Dirichlet walls.
Its generator couples diffusion, a zeroth-order source, and a drift fed
by the vertical integral of the x-derivative:

    A u = nu Laplace(u) + eta u - beta T(du/dx),   (T w)(y) = int_0^y w

Fourier modes in x decouple, so A splits into one dense block per mode
acting on interior wall-normal collocation values:

    A_n = nu (D_yy - k_n^2 I) + eta I - i beta k_n F

with F the interior block of the cumulative-integration matrix. The
blocks for -n are complex conjugates of those for +n, so a real field
needs only n = 0..nx/2 (the strip's half-spectrum layout). Mode 0 has
k_0 = 0 and so no drift: its block is real. The numeric spectral bound
decomposes only the blocks that a numerical-range bound, computed once
per ny, cannot rule out.

The nonlinearity is quadratic advection with integral feedback:

    f(u) = (du/dy) T(du/dx) - u du/dx
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.linalg import eigvals

from .chebyshev import cumulative_matrix, diff_matrix
from .propagators import Propagator, eigen_blocks, require_storage
from .strip import (
    StripGeometry,
    dealias_x,
    derivative_x,
    from_grid,
    sobolev_norm_set,
    to_grid,
)


@dataclass(frozen=True)
class CloudCoefficients:
    """Diffusivity nu, linear gain eta, integral-drift strength beta."""

    nu: float = 1.0
    eta: float = 0.0
    beta: float = 1.0

    def __post_init__(self):
        if not self.nu > 0.0:
            raise ValueError(f"diffusivity nu must be positive, got {self.nu}")
        for name in ("nu", "eta", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"cloud.{name}: must be finite, "
                                 f"got {getattr(self, name)}")


@lru_cache(maxsize=32)
def _interior_blocks(ny: int):
    """Interior blocks D2 of d^2/dy^2 and F of the cumulative integral."""
    d = diff_matrix(ny)
    d2 = (d @ d)[1:-1, 1:-1]
    f_block = cumulative_matrix(ny)[1:-1, 1:-1]
    return d2, f_block


@lru_cache(maxsize=32)
def _vertical_operators(ny: int) -> np.ndarray:
    """[D^T | C^T]: coefficient rows times it give d/dy and T side by side.
    Complex, as the coefficients are, so no matmul casts it."""
    return np.hstack([diff_matrix(ny).T, cumulative_matrix(ny).T]).astype(complex)


def _require_finite(values, diffusion, k2, what: str) -> None:
    """Name the key whose product with the grid overflowed: grid.lx when
    the squared wavenumbers k2 do, else the coefficient."""
    if not np.isfinite(values).all():
        if not np.isfinite(k2).all():
            key, cause = "grid.lx", "the strip is too short"
        else:
            key = "cloud.beta" if np.isfinite(diffusion).all() else "cloud.nu"
            cause = "the coefficient is too large"
        raise ValueError(f"{key}: {what} overflows on this grid; {cause}")


def mode_matrix(n: int, coeffs: CloudCoefficients,
                geometry: StripGeometry) -> np.ndarray:
    """Dense interior operator block for the signed Fourier mode n:
    real for n = 0, which has no drift, so `eigvals` takes the real
    route; complex otherwise.

    A block that overflows raises ValueError naming the coefficient, or
    grid.lx when k_n^2 itself overflows."""
    d2, f_block = _interior_blocks(geometry.ny)
    k = n * math.pi / geometry.half_length
    m = geometry.ny - 2
    eye = np.eye(m)
    with np.errstate(over="ignore", invalid="ignore"):
        k2 = k * k
        mat = coeffs.nu * (d2 - k2 * eye) + coeffs.eta * eye
        block = mat if n == 0 else \
            mat.astype(complex) - 1j * coeffs.beta * k * f_block
    _require_finite(block, mat, k2, f"the block of mode {n}")
    return block


def mode_stack(modes, coeffs: CloudCoefficients,
               geometry: StripGeometry) -> np.ndarray:
    """The blocks of the signed Fourier modes in `modes` as one
    (len(modes), ny-2, ny-2) complex stack, mode 0 included."""
    return np.stack([mode_matrix(n, coeffs, geometry)
                     for n in modes]).astype(complex, copy=False)


# Largest condition of the D2 eigenbasis (2-norm, as `eigen_blocks`
# reports it) the mode certificate trusts; 2.1 at ny = 48, 3.3 at ny = 256.
CERTIFICATE_CONDITION_LIMIT = 1e4


@lru_cache(maxsize=32)
def range_certificate(ny: int):
    """(max Lambda, h) of the numerical-range mode bound, or None.

    With D2 = S Lambda S^-1, Lambda real, each block A_n is similar to
    M_n = nu (Lambda - k_n^2) + eta - i beta k_n G, G = S^-1 F S real.
    Re spec(M_n) lies in the numerical range of M_n, and the Hermitian
    part of -i G has a spectrum symmetric about 0 with radius
    h = ||(G - G^T)/2||_2, so

        max Re spec(A_n) <= eta + nu (max Lambda - k_n^2) + |beta k_n| h.

    None when D2 has complex eigenvalues or S is ill-conditioned.
    """
    d2, f_block = _interior_blocks(ny)
    try:
        lam, s, condition, _, _ = eigen_blocks(d2)
        if np.iscomplexobj(lam) or not condition <= CERTIFICATE_CONDITION_LIMIT:
            return None
        g = np.linalg.inv(s) @ f_block @ s
    except np.linalg.LinAlgError:
        return None
    # a real skew matrix is normal: its 2-norm is its spectral radius
    h = np.max(np.abs(eigvals(0.5 * (g - g.T))))
    return float(np.max(lam)), float(h)


def mode_bounds(coeffs: CloudCoefficients, geometry: StripGeometry,
                n_max: int):
    """Upper bounds of max Re spec(A_n) for n = 0..n_max from
    `range_certificate`, or None without a certificate."""
    certificate = range_certificate(geometry.ny)
    if certificate is None:
        return None
    top, h = certificate
    k = np.arange(n_max + 1) * math.pi / geometry.half_length
    with np.errstate(over="ignore", invalid="ignore"):
        k2 = k * k
        diffusion = coeffs.eta + coeffs.nu * (top - k2)
        bounds = diffusion + abs(coeffs.beta) * k * h
    _require_finite(bounds, diffusion, k2, "the mode bound")
    return bounds


def spectral_bound_numeric(coeffs: CloudCoefficients, geometry: StripGeometry,
                           n_max: int | None = None) -> float:
    """max Re spec(A_n) over modes 0..n_max (negative modes are mirrors).

    The value is that of a full loop of `eigvals` over the modes, but
    `eigvals` runs only on the modes that the numerical-range certificate
    max Re spec(A_n) <= eta + nu (max Lambda - k_n^2) + |beta k_n| h
    (`range_certificate`, `mode_bounds`) cannot rule out. Modes are
    visited in order of decreasing bound, and the visit stops once the
    next bound lies below the largest real part found so far. A relative
    slack of 1e-8 covers roundoff in the bounds; it decides only which
    modes are visited. Without a certificate every bound is infinite, so
    every mode is visited in order.
    """
    if n_max is None:
        n_max = geometry.nx // 2
    bounds = mode_bounds(coeffs, geometry, n_max)
    if bounds is None:
        bounds = np.full(n_max + 1, np.inf)
    found = {}
    best = -np.inf
    for n in np.argsort(-bounds, kind="stable"):
        if bounds[n] + 1e-8 * (1.0 + abs(bounds[n])) < best:
            break
        found[n] = float(np.max(eigvals(mode_matrix(int(n), coeffs, geometry)).real))
        best = max(best, found[n])
    # the maximum in mode order, as the full loop takes it (0.0 vs -0.0)
    return max((found[n] for n in sorted(found)), default=-np.inf)


def mode_spectra(coeffs: CloudCoefficients, geometry: StripGeometry,
                 n_max: int):
    """(top, condition, defective) of the mode blocks n = 0..n_max: the
    eigenvalue of largest real part, the eigenvector condition and the
    defective flag of each block, from one stacked `eigen_blocks` call
    (eig and cond; no block is inverted)."""
    lam, _, condition, defective, _ = eigen_blocks(
        mode_stack(range(n_max + 1), coeffs, geometry))
    idx = np.argmax(lam.real, axis=-1)
    top = np.take_along_axis(lam, idx[:, None], axis=-1)[:, 0]
    return top, condition, defective


def analytic_bound_nonperiodic(coeffs: CloudCoefficients) -> float:
    """Closed-form upper bound for the spectral bound, valid for every mode
    set; sharp enough to give decay for weak drift."""
    nu, eta, beta = coeffs.nu, coeffs.eta, coeffs.beta
    return (eta + abs(beta) * math.pi / 2.0
            + max(abs(beta) / (2.0 * nu), math.pi) * (abs(beta) / 2.0 - math.pi * nu))


def periodic_stability_margin(coeffs: CloudCoefficients) -> float:
    """pi^2 nu - eta - beta^2/(16 nu): on the 2 pi periodic strip the
    spectrum stays in the open left half plane when it is positive."""
    try:
        drift = coeffs.beta ** 2 / (16.0 * coeffs.nu)
    except OverflowError:
        raise ValueError(f"cloud.beta: beta^2 overflows, got {coeffs.beta}") \
            from None
    return math.pi ** 2 * coeffs.nu - coeffs.eta - drift


def nonlinearity_cloud(u: np.ndarray, geometry: StripGeometry) -> np.ndarray:
    """f(u) = u_y T(u_x) - u u_x, pseudospectral with 2/3 dealiasing in x.

    u is the coefficient array of a field or of a stack of fields. One
    matmul gives u_y and T u (T commutes with d/dx), one stacked to_grid
    takes u, u_x, u_y and T u_x to the grid, one from_grid the product.
    """
    ny = u.shape[-1]
    vertical = u @ _vertical_operators(ny)
    uy, tu = vertical[..., :ny], vertical[..., ny:]
    ux, tux = derivative_x(np.stack([u, tu]), geometry)
    grid = to_grid(np.stack([u, ux, uy, tux]), geometry)
    return dealias_x(from_grid(grid[2] * grid[3] - grid[0] * grid[1], geometry),
                     geometry)


class CloudModel:
    """State space and operator bundle for time integration.

    The state is the (nx/2+1, ny-2) array of interior collocation values
    of the modes n = 0..nx/2. Modes above the dealias cutoff still decay
    under the linear flow but receive no nonlinear feedback.
    """

    def __init__(self, coeffs: CloudCoefficients, geometry: StripGeometry):
        # eigenvectors, inverses and three step factors per mode, complex
        modes, m = geometry.nx // 2 + 1, geometry.ny - 2
        require_storage(5 * modes * m * m * 16, "grid.nx, grid.ny: the mode stacks")
        self.coeffs = coeffs
        self.geometry = geometry

    @cached_property
    def propagator(self) -> Propagator:
        """Built on first use: a run refused before it steps builds none."""
        return Propagator.from_matrix(mode_stack(
            range(self.geometry.nx // 2 + 1), self.coeffs, self.geometry))

    def field_from_state(self, state: np.ndarray) -> np.ndarray:
        full = np.zeros(state.shape[:-1] + (self.geometry.ny,), dtype=complex)
        full[..., 1:-1] = state
        return full

    def state_from_field(self, u: np.ndarray) -> np.ndarray:
        return u[..., 1:-1].copy()

    def nonlinearity(self, state: np.ndarray) -> np.ndarray:
        f = nonlinearity_cloud(self.field_from_state(state), self.geometry)
        return f[..., 1:-1]

    def norm(self, state: np.ndarray, sigma: float):
        return self.norms(state, (sigma,))[sigma]

    def norms(self, state: np.ndarray, sigmas) -> dict:
        """Norms at every sigma from one sine projection (arrays for a stack)."""
        return sobolev_norm_set(state, sigmas, self.geometry)
