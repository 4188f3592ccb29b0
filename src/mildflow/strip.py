"""Discrete function spaces on the strip [-Lx, Lx) x (0, 1).

Fourier modes in the periodic horizontal direction, Chebyshev-Gauss-
Lobatto collocation in the wall-bounded vertical direction. The periodic
strip fixes Lx = pi; the horizontally unbounded strip is approximated by
a long periodic box (default Lx = 8 pi) with compactly supported data,
and that truncation is a documented approximation, not an equality.

Fields are stored as complex Fourier coefficients per collocation row,
fft mode ordering, with conjugate symmetry expressing realness. Sobolev
norms of order sigma use (1 + lambda)^sigma spectral multipliers in the
Fourier x sine eigenbasis of the Dirichlet Laplacian; the plain L2 norm
is instead evaluated by Gauss-Legendre quadrature exact at the
collocation degree, so operator-norm inequalities can be checked at the
1e-10 level on fields (like cumulative integrals) that leave the sine
span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chebyshev import (
    cumulative_matrix,
    diff_matrix,
    gauss_legendre_unit,
    lobatto_nodes,
    quadrature_eval_matrix,
)

DEFAULT_HALF_LENGTH_OPEN = 8.0 * math.pi


@dataclass(frozen=True)
class StripGeometry:
    periodic_x: bool
    half_length: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 8 or self.nx % 2:
            raise ValueError(f"nx must be even and >= 8, got {self.nx}")
        if self.ny < 8:
            raise ValueError(f"ny must be >= 8, got {self.ny}")
        if self.half_length <= 0:
            raise ValueError("half_length must be positive")
        if self.periodic_x and abs(self.half_length - math.pi) > 1e-12:
            raise ValueError("periodic strip requires half_length = pi")

    @property
    def dealias_cut(self) -> int:
        """Largest |n| kept by the 2/3 rule."""
        return self.nx // 3

    def wavenumbers(self) -> np.ndarray:
        n = np.fft.fftfreq(self.nx, d=1.0 / self.nx)
        return n * math.pi / self.half_length

    def y_nodes(self) -> np.ndarray:
        return lobatto_nodes(self.ny)

    def x_nodes(self) -> np.ndarray:
        return -self.half_length + 2.0 * self.half_length * np.arange(self.nx) / self.nx


def periodic_strip(nx: int = 64, ny: int = 48) -> StripGeometry:
    return StripGeometry(periodic_x=True, half_length=math.pi, nx=nx, ny=ny)


def open_strip(nx: int = 128, ny: int = 48,
               half_length: float = DEFAULT_HALF_LENGTH_OPEN) -> StripGeometry:
    """Truncated periodic surrogate for the horizontally unbounded strip."""
    return StripGeometry(periodic_x=False, half_length=half_length, nx=nx, ny=ny)


@dataclass
class SpectralField:
    geometry: StripGeometry
    coeffs: np.ndarray  # complex, shape (nx, ny)

    def __post_init__(self):
        expected = (self.geometry.nx, self.geometry.ny)
        if self.coeffs.shape != expected:
            raise ValueError(
                f"coefficient shape {self.coeffs.shape} does not match geometry {expected}"
            )
        self.coeffs = np.ascontiguousarray(self.coeffs, dtype=complex)

    def copy(self) -> "SpectralField":
        return SpectralField(self.geometry, self.coeffs.copy())


def zero_field(geometry: StripGeometry) -> SpectralField:
    return SpectralField(geometry, np.zeros((geometry.nx, geometry.ny), dtype=complex))


def from_grid(values: np.ndarray, geometry: StripGeometry) -> SpectralField:
    values = np.asarray(values, dtype=float)
    if values.shape != (geometry.nx, geometry.ny):
        raise ValueError(
            f"grid shape {values.shape} does not match geometry "
            f"({geometry.nx}, {geometry.ny})"
        )
    coeffs = np.fft.fft(values, axis=0) / geometry.nx
    return SpectralField(geometry, coeffs)


def to_grid(field: SpectralField) -> np.ndarray:
    values = np.fft.ifft(field.coeffs * field.geometry.nx, axis=0)
    return values.real


def field_from_function(geometry: StripGeometry, fn) -> SpectralField:
    x = geometry.x_nodes()[:, None]
    y = geometry.y_nodes()[None, :]
    return from_grid(np.broadcast_to(fn(x, y), (geometry.nx, geometry.ny)).copy(),
                     geometry)


def conjugate_symmetry_defect(field: SpectralField) -> float:
    """Max |coeffs[-n] - conj(coeffs[n])|; zero for real-valued fields."""
    c = field.coeffs
    mirrored = np.conj(np.roll(c[::-1], 1, axis=0))
    return float(np.max(np.abs(c - mirrored)))


def project_dirichlet(field: SpectralField) -> SpectralField:
    out = field.coeffs.copy()
    out[:, 0] = 0.0
    out[:, -1] = 0.0
    return SpectralField(field.geometry, out)


def boundary_defect(field: SpectralField) -> float:
    c = field.coeffs
    return float(max(np.max(np.abs(c[:, 0])), np.max(np.abs(c[:, -1]))))


def dealias_x(field: SpectralField) -> SpectralField:
    cut = field.geometry.dealias_cut
    n = np.abs(np.fft.fftfreq(field.geometry.nx, d=1.0 / field.geometry.nx))
    out = field.coeffs.copy()
    out[n > cut, :] = 0.0
    return SpectralField(field.geometry, out)


def derivative_x(field: SpectralField) -> SpectralField:
    geom = field.geometry
    k = geom.wavenumbers().copy()
    # Nyquist mode has no well-defined odd derivative on a real grid.
    k[geom.nx // 2] = 0.0
    return SpectralField(geom, field.coeffs * (1j * k)[:, None])


def derivative_y(field: SpectralField) -> SpectralField:
    d = diff_matrix(field.geometry.ny)
    return SpectralField(field.geometry, field.coeffs @ d.T)


def apply_T(field: SpectralField) -> SpectralField:
    """Cumulative vertical integral (Tw)(x, y) = integral_0^y w(x, s) ds.

    The output is generally nonzero at y = 1; no Dirichlet projection is
    applied.
    """
    cum = cumulative_matrix(field.geometry.ny)
    return SpectralField(field.geometry, field.coeffs @ cum.T)


# ---------------------------------------------------------------------------
# Norms


def _quad_point_count(ny: int, n_sine: int) -> int:
    return int(np.ceil(0.4 * math.pi * n_sine)) + ny


@lru_cache(maxsize=32)
def _l2_quadrature(ny: int):
    nq = ny + 2
    _, w = gauss_legendre_unit(nq)
    return quadrature_eval_matrix(ny, nq), w


@lru_cache(maxsize=32)
def _sine_projection(ny: int):
    """Matrix taking nodal values to coefficients in sqrt(2) sin(m pi y).

    Rows m = 1 .. 2*ny; Gauss-Legendre exact at working precision for the
    collocation polynomials.
    """
    n_sine = 2 * ny
    nq = _quad_point_count(ny, n_sine)
    yq, w = gauss_legendre_unit(nq)
    evalmat = quadrature_eval_matrix(ny, nq)
    m = np.arange(1, n_sine + 1)
    sines = np.sin(np.pi * np.outer(m, yq))
    proj = math.sqrt(2.0) * (sines * w) @ evalmat
    return proj, m


def l2_norm(field: SpectralField) -> float:
    """Quadrature L2(Omega) norm, exact for the collocation representation."""
    evalmat, w = _l2_quadrature(field.geometry.ny)
    vals = field.coeffs @ evalmat.T
    per_mode = (np.abs(vals) ** 2) @ w
    return math.sqrt(2.0 * field.geometry.half_length * float(per_mode.sum()))


def sobolev_norm(field: SpectralField, sigma: float) -> float:
    """Multiplier norm: sum over modes of (1 + k^2 + (m pi)^2)^sigma |c|^2."""
    return sobolev_norm_set(field, (sigma,))[sigma]


def sobolev_norm_set(field: SpectralField, sigmas) -> dict:
    """All requested orders from a single sine projection."""
    for sigma in sigmas:
        if not (0.0 <= sigma <= 2.0):
            raise ValueError(f"sigma must lie in [0, 2], got {sigma}")
    geom = field.geometry
    proj, m = _sine_projection(geom.ny)
    snm = field.coeffs @ proj.T
    k = geom.wavenumbers()
    lam = k[:, None] ** 2 + (math.pi * m[None, :]) ** 2
    weight2 = np.abs(snm) ** 2
    scale = 2.0 * geom.half_length
    out = {}
    for sigma in sigmas:
        total = float((((1.0 + lam) ** sigma) * weight2).sum())
        out[sigma] = math.sqrt(scale * total)
    return out


def h1_norm_quadrature(field: SpectralField) -> float:
    """sqrt(||u||^2 + ||grad u||^2) by quadrature; oracle for the multiplier norm."""
    ux = derivative_x(field)
    uy = derivative_y(field)
    return math.sqrt(l2_norm(field) ** 2 + l2_norm(ux) ** 2 + l2_norm(uy) ** 2)


# ---------------------------------------------------------------------------
# Field constructors for tests and initial data


def dirichlet_mode_field(geometry: StripGeometry, n: int, m: int,
                         amplitude: float = 1.0) -> SpectralField:
    """cos(n pi x / Lx) * sin(m pi y) style product mode (real)."""
    kx = n * math.pi / geometry.half_length

    def fn(x, y):
        return amplitude * np.cos(kx * x) * np.sin(m * math.pi * y)

    return field_from_function(geometry, fn)


def random_dirichlet_field(geometry: StripGeometry, rng,
                           n_modes_x: int = 6, n_modes_y: int = 6,
                           decay: float = 1.5) -> SpectralField:
    """Random smooth field from a finite sine expansion (Dirichlet exact)."""
    x = geometry.x_nodes()[:, None]
    y = geometry.y_nodes()[None, :]
    vals = np.zeros((geometry.nx, geometry.ny))
    kx_base = math.pi / geometry.half_length
    for n in range(n_modes_x + 1):
        for m in range(1, n_modes_y + 1):
            amp = (1.0 + n + m) ** (-decay)
            a, b = rng.standard_normal(2)
            vals += amp * (a * np.cos(n * kx_base * x) + b * np.sin(n * kx_base * x)) \
                * np.sin(m * math.pi * y)
    return from_grid(vals, geometry)


def rough_dirichlet_field(geometry: StripGeometry, rng, sigma: float,
                          margin: float = 0.02) -> SpectralField:
    """Random field with eigen-coefficients decaying just fast enough for H^sigma.

    |c| ~ lambda^{-(sigma + n/2 + margin)/2} in eigenvalue magnitude (n = 2
    space dimensions), so the H^sigma norm converges while any higher
    order diverges as resolution grows.
    """
    cut = geometry.dealias_cut
    k = geometry.wavenumbers()
    n_abs = np.abs(np.fft.fftfreq(geometry.nx, d=1.0 / geometry.nx))
    m = np.arange(1, geometry.ny - 1)
    lam = k[:, None] ** 2 + (math.pi * m[None, :]) ** 2
    decay_exp = 0.5 * (sigma + 1.0 + margin)
    amp = lam ** (-decay_exp)
    amp[n_abs > cut, :] = 0.0
    half = geometry.nx // 2
    phases = np.exp(2j * math.pi * rng.random((half + 1, m.size)))
    signs = rng.choice([-1.0, 1.0], size=(half + 1, m.size))
    c_half = amp[: half + 1] * signs * phases
    c_half[0] = c_half[0].real  # n = 0 row must be real
    coeffs_sine = np.zeros((geometry.nx, m.size), dtype=complex)
    coeffs_sine[: half + 1] = c_half
    coeffs_sine[half + 1:] = np.conj(c_half[1:half][::-1])
    # back to nodal values in y: u = sum_m c sqrt(2) sin(m pi y)
    y = geometry.y_nodes()
    sines = math.sqrt(2.0) * np.sin(math.pi * np.outer(m, y))
    return SpectralField(geometry, coeffs_sine @ sines)
