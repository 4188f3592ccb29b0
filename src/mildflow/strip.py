"""Discrete function spaces on the strip [-Lx, Lx) x (0, 1).

Fourier modes in the periodic horizontal direction, Chebyshev-Gauss-
Lobatto collocation in the wall-bounded vertical direction. The periodic
strip fixes Lx = pi; the horizontally unbounded strip is approximated by
a long periodic box, whose half-length its caller chooses, with compactly
supported data, and that truncation is a documented approximation, not
an equality.

Fields are real, so only their Fourier modes n = 0..nx/2 are stored
(rfft layout), one row per mode and one column per collocation node;
sums over all modes count each row by its `parseval_weights`. Sobolev
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
    gauss_legendre_unit,
    lobatto_nodes,
    quadrature_eval_matrix,
)

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
        """k_n = n pi / Lx of the stored modes n = 0..nx/2."""
        return np.arange(self.nx // 2 + 1) * math.pi / self.half_length

    def parseval_weights(self) -> np.ndarray:
        """How often each stored mode counts in a sum over all modes: once
        for n = 0 and the Nyquist mode n = nx/2, twice (n and -n) else."""
        w = np.full(self.nx // 2 + 1, 2.0)
        w[0] = w[-1] = 1.0
        return w

    def y_nodes(self) -> np.ndarray:
        return lobatto_nodes(self.ny)

    def x_nodes(self) -> np.ndarray:
        return -self.half_length + 2.0 * self.half_length * np.arange(self.nx) / self.nx


def periodic_strip(nx: int = 64, ny: int = 48) -> StripGeometry:
    return StripGeometry(periodic_x=True, half_length=math.pi, nx=nx, ny=ny)


def open_strip(nx: int, ny: int, half_length: float) -> StripGeometry:
    """Truncated periodic surrogate for the horizontally unbounded strip."""
    return StripGeometry(periodic_x=False, half_length=half_length, nx=nx, ny=ny)


@dataclass
class SpectralField:
    geometry: StripGeometry
    coeffs: np.ndarray  # complex, shape (..., nx/2+1, ny): a field or a stack

    def __post_init__(self):
        expected = (self.geometry.nx // 2 + 1, self.geometry.ny)
        if self.coeffs.shape[-2:] != expected:
            raise ValueError(
                f"coefficient shape {self.coeffs.shape} does not match geometry {expected}"
            )
        self.coeffs = np.ascontiguousarray(self.coeffs, dtype=complex)


def from_grid(values: np.ndarray, geometry: StripGeometry) -> SpectralField:
    """Half-spectrum coefficients of grid values of shape (..., nx, ny)."""
    values = np.asarray(values, dtype=float)
    if values.shape[-2:] != (geometry.nx, geometry.ny):
        raise ValueError(
            f"grid shape {values.shape} does not match geometry "
            f"({geometry.nx}, {geometry.ny})"
        )
    coeffs = np.fft.rfft(values, axis=-2, norm="forward")
    return SpectralField(geometry, coeffs)


def to_grid(field: SpectralField) -> np.ndarray:
    """Grid values (..., nx, ny); the imaginary parts of the n = 0 and
    Nyquist rows do not reach the grid."""
    return np.fft.irfft(field.coeffs, n=field.geometry.nx, axis=-2,
                        norm="forward")


def field_from_function(geometry: StripGeometry, fn) -> SpectralField:
    x = geometry.x_nodes()[:, None]
    y = geometry.y_nodes()[None, :]
    return from_grid(np.broadcast_to(fn(x, y), (geometry.nx, geometry.ny)).copy(),
                     geometry)


def dealias_x(field: SpectralField) -> SpectralField:
    out = field.coeffs.copy()
    out[..., field.geometry.dealias_cut + 1:, :] = 0.0
    return SpectralField(field.geometry, out)


def derivative_x(field: SpectralField) -> SpectralField:
    geom = field.geometry
    k = geom.wavenumbers()
    # Nyquist mode has no well-defined odd derivative on a real grid.
    k[-1] = 0.0
    return SpectralField(geom, field.coeffs * (1j * k)[:, None])


def apply_T(field: SpectralField) -> SpectralField:
    """Cumulative vertical integral (Tw)(x, y) = integral_0^y w(x, s) ds.

    The output is generally nonzero at y = 1; no Dirichlet projection is
    applied.
    """
    cum = cumulative_matrix(field.geometry.ny)
    return SpectralField(field.geometry, field.coeffs @ cum.T)


# ---------------------------------------------------------------------------
# Norms


@lru_cache(maxsize=32)
def _l2_quadrature(ny: int):
    nq = ny + 2
    _, w = gauss_legendre_unit(nq)
    return quadrature_eval_matrix(ny, nq), w


@lru_cache(maxsize=32)
def _sine_projection(ny: int):
    """Matrix (ny, 2*ny) taking nodal rows to coefficients in
    sqrt(2) sin(m pi y), m = 1 .. 2*ny, and m.

    Gauss-Legendre exact at working precision for the collocation
    polynomials; its interior rows are a contiguous slice.
    """
    n_sine = 2 * ny
    nq = int(np.ceil(0.4 * math.pi * n_sine)) + ny
    yq, w = gauss_legendre_unit(nq)
    evalmat = quadrature_eval_matrix(ny, nq)
    m = np.arange(1, n_sine + 1)
    sines = np.sin(np.pi * np.outer(m, yq))
    proj = math.sqrt(2.0) * (sines * w) @ evalmat
    return np.ascontiguousarray(proj.T), m


@lru_cache(maxsize=64)
def _norm_multipliers(geometry: StripGeometry, sigmas: tuple) -> np.ndarray:
    """Rows w_n (1 + k_n^2 + (m pi)^2)^sigma, one per sigma, over the
    flattened (n, m) grid; w_n the Parseval weights."""
    _, m = _sine_projection(geometry.ny)
    lam = geometry.wavenumbers()[:, None] ** 2 + (math.pi * m[None, :]) ** 2
    w = geometry.parseval_weights()[:, None]
    return np.stack([(w * (1.0 + lam) ** sigma).ravel() for sigma in sigmas])


def l2_norm(field: SpectralField) -> float:
    """Quadrature L2(Omega) norm, exact for the collocation representation."""
    evalmat, w = _l2_quadrature(field.geometry.ny)
    vals = field.coeffs @ evalmat.T
    per_mode = field.geometry.parseval_weights() @ (np.abs(vals) ** 2)
    return math.sqrt(2.0 * field.geometry.half_length * float(per_mode @ w))


def sobolev_norm_set(field, sigmas, geometry: StripGeometry | None = None) -> dict:
    """All requested orders from a single sine projection.

    `field` is a SpectralField or, given its `geometry`, the (nx/2+1, ny-2)
    interior columns of a field that vanishes on the walls; a stack of
    either (leading axes) gets an array of norms per order.
    """
    for sigma in sigmas:
        if not (0.0 <= sigma <= 2.0):
            raise ValueError(f"sigma must lie in [0, 2], got {sigma}")
    if geometry is None:
        geometry, coeffs, rows = field.geometry, field.coeffs, slice(None)
    else:
        coeffs, rows = field, slice(1, -1)
    sigmas = tuple(sigmas)
    multipliers = _norm_multipliers(geometry, sigmas)
    analysis, _ = _sine_projection(geometry.ny)
    snm = coeffs @ analysis[rows]
    power = (snm.real ** 2 + snm.imag ** 2).reshape(snm.shape[:-2] + (-1, 1))
    totals = np.sqrt(2.0 * geometry.half_length * (multipliers @ power)[..., 0])
    per_sigma = totals.tolist() if totals.ndim == 1 else np.moveaxis(totals, -1, 0)
    return dict(zip(sigmas, per_sigma))


# ---------------------------------------------------------------------------
# Field constructors for initial data


def dirichlet_mode_field(geometry: StripGeometry, n: int, m: int) -> SpectralField:
    """cos(n pi x / Lx) * sin(m pi y) style product mode (real)."""
    kx = n * math.pi / geometry.half_length

    def fn(x, y):
        return np.cos(kx * x) * np.sin(m * math.pi * y)

    return field_from_function(geometry, fn)


def random_dirichlet_field(geometry: StripGeometry, rng) -> SpectralField:
    """Random smooth field from a finite sine expansion (Dirichlet exact):
    modes n <= 6 in x and m <= 6 in y, amplitude (1 + n + m)^-1.5."""
    x = geometry.x_nodes()[:, None]
    y = geometry.y_nodes()[None, :]
    vals = np.zeros((geometry.nx, geometry.ny))
    kx_base = math.pi / geometry.half_length
    for n in range(7):
        for m in range(1, 7):
            amp = (1.0 + n + m) ** -1.5
            a, b = rng.standard_normal(2)
            vals += amp * (a * np.cos(n * kx_base * x) + b * np.sin(n * kx_base * x)) \
                * np.sin(m * math.pi * y)
    return from_grid(vals, geometry)

