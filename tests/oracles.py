"""Reference routines and artifact readers that only the tests need.

The oracles recompute what the package computes by a second route
(quadrature instead of multipliers, one Propagator action at a time
instead of cached step factors, sampled sups under the lab's closed-form
constants), and the readers parse the artifacts the package writes, so
tests can check them value by value.
"""

import math

import numpy as np
from scipy.linalg import expm

from mildflow.chebyshev import diff_matrix
from mildflow.heat import scaling_amplitude
from mildflow.io import SNAPSHOT_HEADER
from mildflow.propagators import Propagator, eigen_blocks
from mildflow.strip import (
    SpectralField,
    StripGeometry,
    derivative_x,
    l2_norm,
    sobolev_norm_set,
)

# ---------------------------------------------------------------- strip


def derivative_y(field: SpectralField) -> SpectralField:
    d = diff_matrix(field.geometry.ny)
    return SpectralField(field.geometry, field.coeffs @ d.T)


def sobolev_norm(field: SpectralField, sigma: float) -> float:
    """Multiplier norm: sum over modes of (1 + k^2 + (m pi)^2)^sigma |c|^2."""
    return sobolev_norm_set(field.coeffs[..., 1:-1], (sigma,),
                            field.geometry)[sigma]


def h1_norm_quadrature(field: SpectralField) -> float:
    """sqrt(||u||^2 + ||grad u||^2) by quadrature; oracle for the multiplier norm."""
    ux = derivative_x(field)
    uy = derivative_y(field)
    return math.sqrt(l2_norm(field) ** 2 + l2_norm(ux) ** 2 + l2_norm(uy) ** 2)


def rough_dirichlet_field(geometry: StripGeometry, rng, sigma: float,
                          margin: float = 0.02) -> SpectralField:
    """Random field with eigen-coefficients decaying just fast enough for H^sigma.

    |c| ~ lambda^{-(sigma + n/2 + margin)/2} in eigenvalue magnitude (n = 2
    space dimensions), so the H^sigma norm converges while any higher
    order diverges as resolution grows.
    """
    m = np.arange(1, geometry.ny - 1)
    lam = geometry.wavenumbers()[:, None] ** 2 + (math.pi * m[None, :]) ** 2
    decay_exp = 0.5 * (sigma + 1.0 + margin)
    amp = lam ** (-decay_exp)
    amp[geometry.dealias_cut + 1:, :] = 0.0
    phases = np.exp(2j * math.pi * rng.random(amp.shape))
    signs = rng.choice([-1.0, 1.0], size=amp.shape)
    coeffs_sine = amp * signs * phases
    coeffs_sine[0] = coeffs_sine[0].real  # n = 0 row must be real
    # back to nodal values in y: u = sum_m c sqrt(2) sin(m pi y)
    y = geometry.y_nodes()
    sines = math.sqrt(2.0) * np.sin(math.pi * np.outer(m, y))
    return SpectralField(geometry, coeffs_sine @ sines)


# ---------------------------------------------------------- propagators


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


def phi1_closed_form(z: np.ndarray) -> np.ndarray:
    """(e^z - 1)/z by its own body: the series branch below |z| = 0.25,
    the quotient above, and no overflow guard."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 0.25
    zs = np.where(small, 1.0, z)
    out = (np.exp(zs) - 1.0) / zs
    acc = np.zeros_like(z)
    for k in range(16, -1, -1):  # Horner for sum_k z^k / (k+1)!
        acc = acc * z + 1.0 / math.factorial(k + 1)
    return np.where(small, acc, out)


def phi2_closed_form(z: np.ndarray) -> np.ndarray:
    """(e^z - 1 - z)/z^2 in the same two branches."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 0.25
    zs = np.where(small, 1.0, z)
    out = (np.exp(zs) - 1.0 - zs) / zs ** 2
    acc = np.zeros_like(z)
    for k in range(16, -1, -1):  # Horner for sum_k z^k / (k+2)!
        acc = acc * z + 1.0 / math.factorial(k + 2)
    return np.where(small, acc, out)


def decompose(matrix: np.ndarray):
    """(lam, vectors, vectors_inv, condition, defective) of one block or a
    stack: the eigen data of `Propagator.from_matrix` with the condition
    and defective flags of `eigen_blocks`."""
    _, _, condition, defective, _ = eigen_blocks(matrix)
    prop = Propagator.from_matrix(matrix)
    return prop.lam, prop.vectors, prop.vectors_inv, condition, defective


# --------------------------------------------------------------- solver


def step_exponential(state, dt, propagator, nonlinearity,
                     method: str = "etdrk2"):
    """One exponential-integrator step; returns (new_state, f(state)).

    exp_euler:  u+ = e^{h A} u + h phi1(h A) f(u)
    etdrk2:     a  = e^{h A} u + h phi1(h A) f(u)
                u+ = a + h phi2(h A) (f(a) - f(u))

    Built on the public Propagator actions only, so it shares no code
    with the stepper of `run_simulation`.
    """
    if method not in ("exp_euler", "etdrk2"):
        raise ValueError(f"unknown integrator {method!r}")
    f0 = nonlinearity(state)
    stage = propagator.propagate(dt, state) + dt * propagator.phi1_action(dt, f0)
    if method == "exp_euler":
        return stage, f0
    return stage + dt * propagator.phi2_action(dt, nonlinearity(stage) - f0), f0


# ------------------------------------------------------------------- lab


def sampled_lipschitz(problem, rng, radius: float = 1.0,
                      samples: int = 400) -> float:
    """Largest ||f(w)-f(v)||_gamma / ((||w||_xi^(q-1) + ||v||_xi^(q-1))
    ||w-v||_xi) over random pairs of a `FixedPointProblem`.

    Each point is a normal direction scaled to xi-norm `radius` times a
    factor in [0.05, 1); every third v is w plus 1e-4 `radius` times a
    normal vector instead, to probe the local regime. Pairs whose
    denominator falls below 1e-30 are skipped, and 0 is returned when all
    are. A lower bound of the closed-form `FixedPointProblem.lipschitz`.
    """
    exps, m = problem.exponents, problem.dimension

    def ball_points():
        x = rng.standard_normal((samples, m))
        length = radius * rng.uniform(0.05, 1.0, samples)
        return x * (length / np.maximum(problem.norm(x, exps.xi), 1e-30))[:, None]

    w, v = ball_points(), ball_points()
    near = np.arange(samples) % 3 == 0
    v[near] = w[near] + 1e-4 * radius * rng.standard_normal((near.sum(), m))
    p = exps.q - 1.0
    denom = ((problem.norm(w, exps.xi) ** p + problem.norm(v, exps.xi) ** p)
             * problem.norm(w - v, exps.xi))
    f = problem.nonlinearity
    ratio = problem.norm(f(w) - f(v), exps.gamma) / denom
    return float(np.max(ratio[denom >= 1e-30], initial=0.0))


def sampled_semigroup_sup(problem, theta: float, vartheta: float,
                          points: int = 600) -> float:
    """t^delta ||(-A)^theta e^{tA} (-A)^-vartheta||_2, delta = theta -
    vartheta, maximized over a log time grid from 1e-6/lambda_max to
    50/lambda_min: for a self-adjoint generator, the largest (t rate)^delta
    e^(-t rate) over the spectrum. The t -> 0 limit 1 of delta = 0 is
    included. A lower bound of omega0."""
    delta = theta - vartheta
    times = np.geomspace(1e-6 / problem.lambda_max, 50.0 / problem.lambda_min,
                         points)
    x = times[:, None] * problem.spectrum[None, :]
    sup = float((x ** delta * np.exp(-x)).max())
    return max(sup, 1.0) if delta == 0.0 else sup


def tail_profile(problem, u0):
    """Running sup of t^mu ||e^{tA} u0||_xi, the lab's former selection
    profile: a running-max table on a fixed log grid over [1e-12, 1],
    looked up by `searchsorted`, and the direct value at t_end."""
    exps = problem.exponents
    rates = problem.spectrum
    hat = problem.propagator.to_eigen(np.asarray(u0, dtype=float))
    ts = np.geomspace(1e-12, 1.0, 1200)
    modes = (rates[None, :] ** exps.xi * np.exp(-ts[:, None] * rates[None, :])
             * hat[None, :])
    values = ts ** exps.mu * np.sqrt((modes ** 2).sum(axis=1))
    running = np.maximum.accumulate(values)

    def profile(t_end: float) -> float:
        direct = t_end ** exps.mu * np.sqrt(
            ((rates ** exps.xi * np.exp(-t_end * rates) * hat) ** 2).sum())
        idx = np.searchsorted(ts, t_end, side="right") - 1
        return float(max(direct, running[idx] if idx >= 0 else 0.0))

    return profile


# ------------------------------------------------------------------ heat


def scaling_transform_one_piece(values, grid, lam_scale: float,
                                model_kind: str, kappa: float) -> np.ndarray:
    """`heat.scaling_transform` on data inside the box, with its complex
    n x (n/2+1) basis built in one piece: the same products in the same
    order, in storage quadratic in n. The support guards are left out."""
    coeffs = np.fft.rfft(np.asarray(values, dtype=float)) / grid.n
    coeffs = coeffs * np.exp(1j * grid.wavenumbers * grid.half_width)
    stretched = math.sqrt(lam_scale) * grid.nodes
    basis = np.exp(np.multiply.outer(stretched, 1j * grid.wavenumbers))
    resampled = (basis @ (grid.parseval_weights * coeffs)).real
    resampled[np.abs(stretched) > grid.half_width] = 0.0
    return scaling_amplitude(lam_scale, model_kind, kappa) * resampled


# ------------------------------------------------------------------- io


def read_csv(path: str):
    """Header list and float columns of a CSV written by write_csv."""
    with open(path, "r", encoding="utf-8") as handle:
        rows = [line.strip() for line in handle if line.strip()]
    header = rows[0].split(",")
    data = np.array([[float(cell) for cell in row.split(",")]
                     for row in rows[1:]], dtype=float)
    if data.size == 0:
        data = np.zeros((0, len(header)))
    return header, [data[:, j] for j in range(len(header))]


def read_snapshot(path: str):
    """Inverse of write_snapshot: (values, lx, flags)."""
    with open(path, "rb") as handle:
        blob = handle.read()
    nx, ny, lx, flags = SNAPSHOT_HEADER.unpack_from(blob, 0)
    expected = SNAPSHOT_HEADER.size + 8 * nx * ny
    if len(blob) != expected:
        raise ValueError(
            f"snapshot {path} is {len(blob)} bytes, expected {expected}")
    payload = np.frombuffer(blob, dtype="<f8", offset=SNAPSHOT_HEADER.size)
    return payload.reshape(nx, ny).copy(), lx, flags
