"""Semigroup and phi-function actions for exponential integrators.

Three propagator flavors cover every model here: diagonal (sine/Fourier
bases where the generator is a multiplier), dense (one matrix, used by
the interval models and the matrix lab), and a per-Fourier-mode stack of
dense blocks (the strip operator). Dense generators are eigendecomposed
once; if the eigenvector basis is too ill-conditioned the propagator
falls back to scaling-and-squaring exponentials with augmented-matrix
phi actions, trading speed for robustness on defective matrices.
Every flavor also builds the step factors e^{hA}, phi1(hA), phi2(hA) of
one fixed step h (multipliers, one matrix or a block tensor), which
apply_block_factor applies; the most recent h is cached.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

EIG_CONDITION_LIMIT = 1e8
_EXP_OVERFLOW = 700.0


class InstabilityError(RuntimeError):
    """exp(t A) overflowed: positive spectral part too large for horizon."""


def _guard_exponent(z) -> None:
    zmax = float(np.max(z.real)) if np.size(z) else 0.0
    if zmax > _EXP_OVERFLOW:
        raise InstabilityError(
            f"semigroup exponent reaches {zmax:.3g}; unstable spectrum at this step"
        )


def phi1(z: np.ndarray) -> np.ndarray:
    """(e^z - 1)/z with the series branch near the removable singularity."""
    z = np.asarray(z, dtype=complex)
    _guard_exponent(z)
    small = np.abs(z) < 0.25
    zs = np.where(small, 1.0, z)
    out = (np.exp(zs) - 1.0) / zs
    acc = np.zeros_like(z)
    for k in range(16, -1, -1):  # Horner for sum_k z^k / (k+1)!
        acc = acc * z + 1.0 / math.factorial(k + 1)
    return np.where(small, acc, out)


def phi2(z: np.ndarray) -> np.ndarray:
    """(e^z - 1 - z)/z^2 with the series branch near zero."""
    z = np.asarray(z, dtype=complex)
    _guard_exponent(z)
    small = np.abs(z) < 0.25
    zs = np.where(small, 1.0, z)
    out = (np.exp(zs) - 1.0 - zs) / zs ** 2
    acc = np.zeros_like(z)
    for k in range(16, -1, -1):  # Horner for sum_k z^k / (k+2)!
        acc = acc * z + 1.0 / math.factorial(k + 2)
    return np.where(small, acc, out)


def phi_action_dense(matrix: np.ndarray, vectors: np.ndarray, order: int) -> np.ndarray:
    """phi_order(matrix) @ vectors by the augmented-exponential identity.

    Robust for defective matrices; order 1 and 2 only.
    """
    n = matrix.shape[0]
    vecs = np.atleast_2d(vectors.T).T  # (n, k)
    k = vecs.shape[1]
    if order == 1:
        aug = np.zeros((n + k, n + k), dtype=np.promote_types(matrix.dtype, vecs.dtype))
        aug[:n, :n] = matrix
        aug[:n, n:] = vecs
        return expm(aug)[:n, n:].reshape(vectors.shape)
    if order == 2:
        aug = np.zeros((n + 2 * k, n + 2 * k),
                       dtype=np.promote_types(matrix.dtype, vecs.dtype))
        aug[:n, :n] = matrix
        aug[:n, n:n + k] = vecs
        aug[n:n + k, n + k:] = np.eye(k)
        return expm(aug)[:n, n + k:].reshape(vectors.shape)
    raise ValueError(f"phi order {order} not supported")


def _defective_factor(a: np.ndarray, order: int) -> np.ndarray:
    """phi_order(a) as a matrix (phi_0 = exp) without eigenvectors."""
    return expm(a) if order == 0 else phi_action_dense(a, np.eye(a.shape[0]), order)


class _StepFactors:
    """Per-dt (E, P1, P2) = (e^{hA}, phi1(hA), phi2(hA)) for fixed-step
    marching; only the most recent dt is cached."""

    _cache = None

    def step_factors(self, dt: float):
        dt = float(dt)
        if self._cache is None or self._cache[0] != dt:
            _guard_exponent(dt * self.lam)
            self._cache = (dt, tuple(self._factor(dt, fn, order) for order, fn
                                     in enumerate((np.exp, phi1, phi2))))
        return self._cache[1]


class DiagonalPropagator(_StepFactors):
    """Generator is a multiplier lam on the coefficient array."""

    def __init__(self, lam: np.ndarray):
        self.lam = np.asarray(lam)
        self.defective = False

    def propagate(self, t: float, state: np.ndarray) -> np.ndarray:
        _guard_exponent(np.asarray(t * self.lam, dtype=complex))
        return np.exp(t * self.lam) * state

    def phi1_action(self, t: float, state: np.ndarray) -> np.ndarray:
        out = phi1(t * self.lam) * state
        return out if np.iscomplexobj(state) or np.iscomplexobj(self.lam) else out.real

    def phi2_action(self, t: float, state: np.ndarray) -> np.ndarray:
        out = phi2(t * self.lam) * state
        return out if np.iscomplexobj(state) or np.iscomplexobj(self.lam) else out.real

    def to_eigen(self, state: np.ndarray) -> np.ndarray:
        return np.asarray(state)

    def from_eigen(self, coeffs: np.ndarray) -> np.ndarray:
        return np.asarray(coeffs)

    def spectral_abscissa(self) -> float:
        return float(np.max(self.lam.real)) if np.size(self.lam) else -np.inf

    def _factor(self, dt, scalar_fn, order):
        out = scalar_fn(dt * self.lam)
        return out if np.iscomplexobj(self.lam) else out.real


class DensePropagator(_StepFactors):
    """Single dense generator with cached eigendecomposition.

    Real symmetric matrices take the orthogonal eigh route; general
    matrices the nonsymmetric eig route with a conditioning guard.
    """

    def __init__(self, matrix: np.ndarray, condition_limit: float = EIG_CONDITION_LIMIT):
        self.matrix = np.asarray(matrix)
        n = self.matrix.shape[0]
        if self.matrix.shape != (n, n):
            raise ValueError("generator must be square")
        self.symmetric = (
            not np.iscomplexobj(self.matrix)
            and np.allclose(self.matrix, self.matrix.T, rtol=0.0, atol=1e-13)
        )
        if self.symmetric:
            lam, vecs = np.linalg.eigh(self.matrix)
            self.lam = lam
            self.vectors = vecs
            self.vectors_inv = vecs.T
            self.condition = 1.0
            self.defective = False
        else:
            lam, vecs = np.linalg.eig(self.matrix)
            self.condition = float(np.linalg.cond(vecs))
            self.defective = not np.isfinite(self.condition) or \
                self.condition > condition_limit
            self.lam = lam
            self.vectors = vecs
            self.vectors_inv = None if self.defective else np.linalg.inv(vecs)

    def _maybe_real(self, out, state):
        if not np.iscomplexobj(self.matrix) and not np.iscomplexobj(state):
            return out.real
        return out

    def propagate(self, t: float, state: np.ndarray) -> np.ndarray:
        if self.defective:
            return self._maybe_real(self.expm_matrix(t) @ state, state)
        _guard_exponent(t * self.lam)
        coeff = self.vectors_inv @ state
        out = self.vectors @ (np.exp(t * self.lam) * coeff)
        return self._maybe_real(out, state)

    def phi1_action(self, t: float, state: np.ndarray) -> np.ndarray:
        if self.defective:
            return self._maybe_real(phi_action_dense(t * self.matrix, state, 1), state)
        coeff = self.vectors_inv @ state
        out = self.vectors @ (phi1(t * self.lam) * coeff)
        return self._maybe_real(out, state)

    def phi2_action(self, t: float, state: np.ndarray) -> np.ndarray:
        if self.defective:
            return self._maybe_real(phi_action_dense(t * self.matrix, state, 2), state)
        coeff = self.vectors_inv @ state
        out = self.vectors @ (phi2(t * self.lam) * coeff)
        return self._maybe_real(out, state)

    def to_eigen(self, state: np.ndarray) -> np.ndarray:
        if self.defective:
            raise ValueError("eigen coordinates unavailable: generator is defective")
        return self.vectors_inv @ state

    def from_eigen(self, coeffs: np.ndarray) -> np.ndarray:
        if self.defective:
            raise ValueError("eigen coordinates unavailable: generator is defective")
        return self.vectors @ coeffs

    def expm_matrix(self, t: float) -> np.ndarray:
        if not self.defective:
            _guard_exponent(t * self.lam)
        return self._factor(t, np.exp, 0)

    def _factor(self, dt, scalar_fn, order):
        if self.defective:
            return _defective_factor(dt * self.matrix, order)
        out = (self.vectors * scalar_fn(dt * self.lam)) @ self.vectors_inv
        return out.real if not np.iscomplexobj(self.matrix) else out

    def operator_norm(self, t: float) -> float:
        return float(np.linalg.norm(self.expm_matrix(t), 2))

    def spectral_abscissa(self) -> float:
        return float(np.max(self.lam.real))


class ModeStackPropagator(_StepFactors):
    """Independent dense blocks, one per Fourier mode.

    lam: (modes, m); vectors/inverse: (modes, m, m). Blocks flagged as
    defective fall back to per-block scaling-and-squaring; the stacked
    generator matrices are kept only for them.
    """

    def __init__(self, lam, vectors, vectors_inv, matrices, defective_mask):
        self.lam = lam
        self.vectors = vectors
        self.vectors_inv = vectors_inv
        self.defective_mask = np.asarray(defective_mask, dtype=bool)
        self.any_defective = bool(self.defective_mask.any())
        self.matrices = matrices if self.any_defective else None

    def _apply_eigen(self, multipliers: np.ndarray, state: np.ndarray) -> np.ndarray:
        coeff = np.einsum("nij,nj->ni", self.vectors_inv, state)
        return np.einsum("nij,nj->ni", self.vectors, multipliers * coeff)

    def _apply(self, t: float, state: np.ndarray, scalar_fn, order: int) -> np.ndarray:
        _guard_exponent(t * self.lam)
        out = self._apply_eigen(scalar_fn(t * self.lam), state)
        for idx in np.nonzero(self.defective_mask)[0]:
            out[idx] = _defective_factor(t * self.matrices[idx], order) @ state[idx]
        return out

    def propagate(self, t: float, state: np.ndarray) -> np.ndarray:
        return self._apply(t, state, np.exp, 0)

    def phi1_action(self, t: float, state: np.ndarray) -> np.ndarray:
        return self._apply(t, state, phi1, 1)

    def phi2_action(self, t: float, state: np.ndarray) -> np.ndarray:
        return self._apply(t, state, phi2, 2)

    def to_eigen(self, state: np.ndarray) -> np.ndarray:
        if self.any_defective:
            raise ValueError("eigen coordinates unavailable: defective mode block")
        return np.einsum("nij,nj->ni", self.vectors_inv, state)

    def from_eigen(self, coeffs: np.ndarray) -> np.ndarray:
        if self.any_defective:
            raise ValueError("eigen coordinates unavailable: defective mode block")
        return np.einsum("nij,nj->ni", self.vectors, coeffs)

    def spectral_abscissa(self) -> float:
        return float(np.max(self.lam.real))

    def _factor(self, dt, scalar_fn, order):
        mult = scalar_fn(dt * self.lam)
        tensor = np.empty_like(self.vectors)
        for idx in range(len(tensor)):  # block by block: no stack-sized temporary
            np.matmul(self.vectors[idx] * mult[idx], self.vectors_inv[idx],
                      out=tensor[idx])
        for idx in np.nonzero(self.defective_mask)[0]:
            tensor[idx] = _defective_factor(dt * self.matrices[idx], order)
        return tensor


def apply_block_factor(factor: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Apply a step factor: elementwise when it has the state's ndim
    (multipliers), else a batched matvec ((m, m) x (m,) or
    (modes, m, m) x (modes, m))."""
    if factor.ndim == state.ndim:
        return factor * state
    return np.matmul(factor, state[..., None])[..., 0]
