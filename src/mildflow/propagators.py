"""Semigroup and phi-function actions for exponential integrators.

One Propagator covers every model here. Its generator is a stack of
blocks V_i diag(lam_i) V_i^-1: one block for the interval models and
the matrix lab, one dense block per Fourier mode of the strip. Without
eigenvectors the generator is the multiplier lam (sine and Fourier
bases). Propagator.from_matrix is the one route from a dense generator
(one block or a stack) to a propagator: eigen_blocks() eigendecomposes
it, and a block whose eigenvector basis is too ill-conditioned is marked
defective. A defective block falls back to one expm of an augmented
matrix, whose top block row holds e^a, phi1(a) and phi2(a) together,
trading speed for robustness; scipy, a runtime dependency for that expm,
is imported on the first fallback. The exponents of the march and of
Picard go through one function, phi(z, order), whose orders 0, 1 and 2
are e^z, phi1 and phi2 under one overflow guard; a real argument stays
real, so a real generator acts on a real state in real arithmetic. A
propagator also builds the step factors e^{hA}, phi1(hA), phi2(hA) of one
fixed h (multipliers or block matrices) and applies them to a state or a
stack of states; the last h is cached.
"""

from __future__ import annotations

import math

import numpy as np

EIG_CONDITION_LIMIT = 1e8
_EXP_OVERFLOW = 700.0
# Largest storage a run may ask for; require_storage refuses a bigger
# grid, lab dimension or mode stack where it would be allocated.
MAX_PROPAGATOR_BYTES = 1 << 30
# Horner coefficients 1/(k + order)!, k = 16 .. 0, of phi's series branch
_SERIES = {order: [1.0 / math.factorial(k + order) for k in range(16, -1, -1)]
           for order in (1, 2)}


def require_storage(nbytes: int, what: str) -> None:
    """Refuse an allocation of nbytes above MAX_PROPAGATOR_BYTES; `what`
    names the key or flag that sets the size, then the arrays."""
    if nbytes > MAX_PROPAGATOR_BYTES:
        gib = nbytes / 2 ** 30 if nbytes < 2 ** 1000 else math.inf
        raise ValueError(f"{what} would take about {gib:.3g} GiB, more than "
                         f"the {MAX_PROPAGATOR_BYTES / 2 ** 30:g} GiB storage limit")


class InstabilityError(RuntimeError):
    """exp(t A) overflowed: positive spectral part too large for horizon."""


def phi(z, order: int) -> np.ndarray:
    """phi_order(z) for order 0, 1, 2: e^z, (e^z - 1)/z and
    (e^z - 1 - z)/z^2, refused above Re z = 700. Orders 1 and 2 sum the
    series z^k / (k + order)! where |z| < 0.25. A real z stays real and
    gets the real part of the complex result bit for bit: e^z of the
    complex exp, and a product with 1/z as numpy's complex division."""
    z = np.asarray(z)
    zmax = float(z.real.max()) if z.size else 0.0
    if zmax > _EXP_OVERFLOW:
        raise InstabilityError(
            f"semigroup exponent reaches {zmax:.3g}; unstable spectrum at this step"
        )
    if order == 0:
        return np.exp(z)
    real = not np.iscomplexobj(z)
    small = np.abs(z) < 0.25
    zs = np.where(small, 1.0, z)
    num = (np.exp(zs + 0j).real if real else np.exp(zs)) - 1.0
    num, den = (num, zs) if order == 1 else (num - zs, zs ** 2)
    out = np.asarray(num * (1.0 / den) if real else num / den)
    z = z[small]
    acc = np.zeros_like(zs, shape=z.shape)
    for coefficient in _SERIES[order]:
        acc = acc * z + coefficient
    out[small] = acc
    return out


def expm(a: np.ndarray) -> np.ndarray:
    """scipy's expm of a; scipy is imported on the first call."""
    from scipy.linalg import expm as scipy_expm
    return scipy_expm(a)


def _dense_phis(a: np.ndarray):
    """(e^a, phi1(a), phi2(a)) of one dense block without eigenvectors:
    the top block row of one expm of [[a, I, 0], [0, 0, I], [0, 0, 0]]
    (Al-Mohy & Higham 2011, Thm 2.1)."""
    m = a.shape[-1]
    aug = np.zeros((3 * m, 3 * m), dtype=np.promote_types(a.dtype, float))
    aug[:m, :m] = a
    aug[:m, m:2 * m] = aug[m:2 * m, 2 * m:] = np.eye(m)
    top = expm(aug)[:m]
    return top[:, :m], top[:, m:2 * m], top[:, 2 * m:]


def eigen_blocks(matrix: np.ndarray):
    """Eigen data (lam, vectors, condition, defective, orthogonal) of one
    (m, m) block, or of each block of a (..., m, m) stack.

    Exactly real-symmetric input takes the orthogonal eigh route
    (condition 1, inverse V^T); other input the nonsymmetric eig route with
    a conditioning guard. A defective block gets identity placeholders for
    its vectors, since its actions fall back to `_dense_phis`. For a
    stack, eig and cond each run once over all blocks, condition and
    defective are per-block arrays (0-d arrays for one block), and eigh
    is taken only when every block is real-symmetric.
    A real stack gets complex eigen data in every block when any block
    has complex eigenvalues (numpy's eig decides over the whole stack).
    """
    matrix = np.asarray(matrix)
    if matrix.ndim < 2 or matrix.shape[-2] != matrix.shape[-1]:
        raise ValueError("generator must be square")
    batch = matrix.shape[:-2]
    orthogonal = not np.iscomplexobj(matrix) and \
        np.array_equal(matrix, matrix.swapaxes(-1, -2))
    if orthogonal:
        lam, vecs = np.linalg.eigh(matrix)
        condition, defective = np.ones(batch), np.zeros(batch, bool)
    else:
        lam, vecs = np.linalg.eig(matrix)
        condition = np.linalg.cond(vecs)
        defective = ~(condition <= EIG_CONDITION_LIMIT)  # nan and inf too
        vecs[defective] = np.eye(matrix.shape[-1])
    return lam, vecs, condition, defective, orthogonal


class Propagator:
    """e^{tA}, phi1(tA) and phi2(tA) of one generator, as actions or step factors.

    lam has shape (..., m). With vectors and vectors_inv of shape
    (..., m, m), block i of the generator is vectors[i] diag(lam[i])
    vectors_inv[i] and acts on state[i]; without them the generator is
    the multiplier lam. Blocks flagged in `defective` fall back to
    `_dense_phis`: one augmented expm of the block per action or per set
    of step factors. The blocks come from `matrices` (shape (..., m, m)),
    which is kept only when some block is defective. The generator is
    real when its matrices are real or, without matrices, when its eigen
    data are real; outputs are real when the generator and the state are
    real.
    """

    def __init__(self, lam, vectors=None, vectors_inv=None, defective=False,
                 matrices=None):
        self.lam = np.asarray(lam)
        self.vectors = vectors
        self.vectors_inv = vectors_inv
        self._defective_blocks = [tuple(idx) for idx in np.argwhere(np.broadcast_to(
            defective, self.lam.shape[:-1]))] if np.any(defective) else []
        self.defective = bool(self._defective_blocks)
        self.real = not np.iscomplexobj(matrices) if matrices is not None else \
            not any(np.iscomplexobj(a) for a in (lam, vectors, vectors_inv))
        self.matrices = matrices if self.defective else None
        self._cache = None

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "Propagator":
        """Propagator of one dense (m, m) generator or a (..., m, m) stack,
        eigendecomposed once by `eigen_blocks`; the inverse eigenvectors
        are V^T on the orthogonal route."""
        lam, vecs, _, defective, orthogonal = eigen_blocks(matrix)
        vecs_inv = vecs.swapaxes(-1, -2) if orthogonal else np.linalg.inv(vecs)
        return cls(lam, vecs, vecs_inv, defective, np.asarray(matrix))

    def _apply(self, t: float, state: np.ndarray, order: int) -> np.ndarray:
        mult = phi(t * self.lam, order)
        if self.vectors is None:
            out = mult * state
        else:
            out = _matvec(self.vectors, mult * _matvec(self.vectors_inv, state))
        for idx in self._defective_blocks:
            out[idx] = _dense_phis(t * self.matrices[idx])[order] @ state[idx]
        return out.real if self.real and not np.iscomplexobj(state) else out

    def propagate(self, t: float, state: np.ndarray) -> np.ndarray:
        return self._apply(t, state, 0)

    def phi1_action(self, t: float, state: np.ndarray) -> np.ndarray:
        return self._apply(t, state, 1)

    def phi2_action(self, t: float, state: np.ndarray) -> np.ndarray:
        return self._apply(t, state, 2)

    def _transform(self, basis, state: np.ndarray) -> np.ndarray:
        if self.defective:
            raise ValueError("eigen coordinates unavailable: defective generator block")
        state = np.asarray(state)
        return state if basis is None else _matvec(basis, state)

    def to_eigen(self, state: np.ndarray) -> np.ndarray:
        return self._transform(self.vectors_inv, state)

    def from_eigen(self, coeffs: np.ndarray) -> np.ndarray:
        return self._transform(self.vectors, coeffs)

    def step_factors(self, dt: float):
        """(E, P1, P2) = (e^{hA}, phi1(hA), phi2(hA)) for fixed-step
        marching with h = dt; only the most recent dt is cached."""
        dt = float(dt)
        if self._cache is None or self._cache[0] != dt:
            dense = [_dense_phis(dt * self.matrices[idx])
                     for idx in self._defective_blocks]
            self._cache = (dt, tuple(self._factor(dt, order, [d[order] for d in dense])
                                     for order in range(3)))
        return self._cache[1]

    def apply_factor(self, factor: np.ndarray, state: np.ndarray) -> np.ndarray:
        """Apply one of step_factors' factors to a state or a stack of
        states: a multiplier without vectors, else a block matvec."""
        return factor * state if self.vectors is None else _matvec(factor, state)

    def _factor(self, dt, order, dense):
        mult = phi(dt * self.lam, order)
        if self.vectors is None:
            out = mult
        else:
            out = np.empty(self.vectors.shape, np.result_type(self.vectors, mult))
            for idx in np.ndindex(self.lam.shape[:-1]):  # no stack-sized temporary
                np.matmul(self.vectors[idx] * mult[idx], self.vectors_inv[idx],
                          out=out[idx])
        for idx, block in zip(self._defective_blocks, dense):
            out[idx] = block
        return out.real if self.real else out


def _matvec(matrix: np.ndarray, state: np.ndarray) -> np.ndarray:
    """matrix @ state block by block: one (m, m) block or a (modes, m, m)
    stack, acting on a state or a stack of states with leading axes."""
    return np.matmul(matrix, state[..., None])[..., 0]

