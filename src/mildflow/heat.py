"""Interval heat models and the free-space scaling surrogate.

Three concrete models exercise the abstract solver on a line:

* semilinear Dirichlet on (0,1): u_t = u_xx + |u|^{kappa-1} u in a sine
  basis, the workhorse for blow-up versus small-data decay runs;
* quasilinear Neumann on (0,1): u_t = (a(u) u_x)_x + |u_x|^kappa in a
  cosine collocation basis, its generator assembled as -H^T diag(a) H
  from the nodal derivative H: exactly symmetric, and conserving mass
  exactly when the forcing is off;
* periodic box of width 16 pi standing in for free space, where the
  parabolic scaling u -> lambda^rho u(lambda t, sqrt(lambda) x) can be
  tested against two independent solver runs.

The top cosine mode of the Neumann model vanishes at every interior
collocation node, so the assembled operator carries it inertly; all
dynamics live in the resolved modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .exponents import (CriticalRecipe, ExponentError, quasilinear_recipe,
                        semilinear_recipe)
from .propagators import Propagator, _matvec, require_storage
from .solver import SolverConfig, run_simulation


def nonlinearity_semilinear(values: np.ndarray, kappa: float) -> np.ndarray:
    """Pointwise |u|^{kappa-1} u; odd in u exactly."""
    values = np.asarray(values)
    return np.abs(values) ** (kappa - 1.0) * values


def nonlinearity_gradient(grad_values: np.ndarray, kappa: float) -> np.ndarray:
    """Pointwise |grad u|^kappa from sampled gradient values."""
    return np.abs(np.asarray(grad_values)) ** kappa


# a0 at or below this value is refused: a(u) >= a0 for both kinds, so a
# larger a0 keeps every quasilinear generator elliptic
DIFFUSIVITY_FLOOR = 1e-8


@dataclass(frozen=True)
class DiffusivitySpec:
    """Descriptor for a(u) >= a0 > DIFFUSIVITY_FLOOR.

    kinds: "constant" -> a0; "one_plus_square" -> a0 + u^2.
    """

    kind: str = "one_plus_square"
    a0: float = 1.0

    def __post_init__(self):
        if self.kind not in ("constant", "one_plus_square"):
            raise ValueError(f"unknown diffusivity kind {self.kind!r}")
        if not self.a0 > DIFFUSIVITY_FLOOR:
            raise ValueError(
                f"heat.a0: diffusivity scale a0 must exceed the positivity "
                f"floor {DIFFUSIVITY_FLOOR}, got {self.a0}")

    def evaluate(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u)
        if self.kind == "constant":
            return np.full_like(u, self.a0, dtype=float)
        return self.a0 + u ** 2


def _sobolev_weights(wavenumbers: np.ndarray, scale=1.0):
    """sigma -> (1 + k^2)^sigma * scale over the wavenumbers k, cached per sigma."""
    base = 1.0 + wavenumbers ** 2
    return lru_cache(maxsize=None)(lambda sigma: base ** sigma * scale)


def _weighted_norm(weights: np.ndarray, state: np.ndarray, volume=1.0):
    """sqrt(volume * sum_k weights_k |state_k|^2) over the last axis: a
    float for one state, an array for a stack."""
    out = np.sqrt(volume * np.sum(weights * np.abs(state) ** 2, axis=-1))
    return float(out) if out.ndim == 0 else out


# the default heat.p of each interval model; the quasilinear window
# p > 2n misses the semilinear 2, so that kind takes 2.5 (n = 1)
HEAT_P = {"semilinear": 2.0, "quasilinear": 2.5}


class IntervalModel:
    """Nodal synthesis and analysis, the 2/3 projection of f and the
    Sobolev norm of an interval model, each on a state or a stack of
    states; a subclass sets nodes, synth (from coefficients to nodes),
    its inverse analyze, dealias_keep and _norm_weights."""

    def state_from_function(self, fn) -> np.ndarray:
        return self.analyze @ fn(self.nodes)

    def nodal_values(self, state: np.ndarray) -> np.ndarray:
        return _matvec(self.synth, state)

    def _project(self, f_nodal: np.ndarray) -> np.ndarray:
        """Coefficients of nodal f values, modes from dealias_keep on zeroed."""
        f_hat = _matvec(self.analyze, f_nodal)
        f_hat[..., self.dealias_keep:] = 0.0
        return f_hat

    def norm(self, state: np.ndarray, sigma: float):
        return _weighted_norm(self._norm_weights(sigma), state)


class SemilinearHeatModel(IntervalModel):
    """u_t = u_xx + |u|^{kappa-1} u on (0,1), Dirichlet, sine basis.

    The state is the vector of sine coefficients c with
    u(x) = sum_m c_m sqrt(2) sin(m pi x); the basis is orthonormal in
    L2(0,1), so Sobolev norms are plain weighted sums.
    """

    def __init__(self, intervals: int = 64, kappa: float = 6.0,
                 p: float = HEAT_P["semilinear"]):
        if intervals < 8:
            raise ValueError("need at least 8 intervals")
        # sine synthesis and analysis matrices, float64
        require_storage(2 * intervals ** 2 * 8, "heat.intervals: the sine basis")
        self.kappa = kappa
        self.recipe: CriticalRecipe = semilinear_recipe(1, p, kappa)
        m = np.arange(1, intervals)
        self.nodes = m / intervals
        self.synth = math.sqrt(2.0) * np.sin(np.pi * np.outer(self.nodes, m))
        # sine orthogonality gives synth.T @ synth = intervals * identity
        self.analyze = self.synth.T / intervals
        self.lam = -(m * math.pi) ** 2
        self.propagator = Propagator(self.lam)
        self.dealias_keep = 2 * (intervals - 1) // 3
        self._norm_weights = _sobolev_weights(m * math.pi)

    def nonlinearity(self, state: np.ndarray) -> np.ndarray:
        return self._project(
            nonlinearity_semilinear(self.nodal_values(state), self.kappa))


class QuasilinearHeatModel(IntervalModel):
    """u_t = (a(u) u_x)_x + |u_x|^kappa on (0,1), Neumann, cosine basis.

    Divergence-form assembly: H maps cosine coefficients to u_x at the
    interior nodes and A(u) = -w H^T diag(a(u)) H, w = 2/(points-1) the
    sine quadrature weight. A(u) is symmetric to the last bit, so frozen
    steps take the orthogonal eigh route; its first row and column are
    zero, so the mean of u is conserved exactly while forcing is off.
    """

    def __init__(self, points: int = 65, kappa: float = 4.0,
                 p: float = HEAT_P["quasilinear"], tau: float = 0.27,
                 diffusivity: DiffusivitySpec = DiffusivitySpec()):
        if points < 9:
            raise ValueError("need at least 9 collocation points")
        # basis, derivative, generator and eigenvector matrices, float64
        require_storage(6 * points ** 2 * 8, "heat.points: the collocation matrices")
        self.points = points
        self.kappa = kappa
        self.diffusivity = diffusivity
        self.recipe: CriticalRecipe = quasilinear_recipe(1, p, kappa, tau)
        self.nodes = np.arange(points) / (points - 1)
        modes = np.arange(points)
        self.synth = np.cos(np.pi * np.outer(self.nodes, modes))
        self.analyze = np.linalg.inv(self.synth)
        # derivative of the top cosine mode vanishes on this grid
        sine_modes = np.arange(1, points - 1)
        sin_synth = np.sin(np.pi * np.outer(self.nodes[1:-1], sine_modes))
        c2s = np.zeros((points - 2, points))
        c2s[np.arange(points - 2), np.arange(1, points - 1)] = -(sine_modes * math.pi)
        self._deriv_nodal = sin_synth @ c2s
        self._quad_weight = 2.0 / (points - 1)
        self.dealias_keep = 2 * points // 3
        self._norm_weights = _sobolev_weights(modes * math.pi,
                                              np.where(modes == 0, 1.0, 0.5))

    def operator_matrix(self, state: np.ndarray) -> np.ndarray:
        """Assemble A(u) = d/dx a(u) d/dx = -G^T G, G = sqrt(w a(u)) H."""
        a_vals = self.diffusivity.evaluate(self.nodal_values(state)[1:-1])
        if not np.all(np.isfinite(a_vals)):
            raise FloatingPointError("diffusivity a(u) is not finite: state overflowed")
        root = np.sqrt(self._quad_weight * a_vals)[:, None] * self._deriv_nodal
        return -(root.T @ root)

    def nonlinearity(self, state: np.ndarray) -> np.ndarray:
        grad_full = np.zeros(state.shape[:-1] + (self.points,))
        grad_full[..., 1:-1] = _matvec(self._deriv_nodal, state)
        return self._project(nonlinearity_gradient(grad_full, self.kappa))


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform periodic grid on [-half_width, half_width)."""

    half_width: float = 8.0 * math.pi
    n: int = 256

    def __post_init__(self):
        if self.n % 2 or self.n < 16:
            raise ValueError("grid size must be even and at least 16")
        if not self.half_width > 0.0:
            raise ValueError("half_width must be positive")
        # nodes, values, wavenumbers, weights and states: ~8 float64 n-arrays
        require_storage(64 * self.n, "grid.n: the line's arrays")

    @cached_property
    def nodes(self) -> np.ndarray:
        return -self.half_width + 2.0 * self.half_width * np.arange(self.n) / self.n

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        return np.arange(self.n // 2 + 1) * math.pi / self.half_width

    @cached_property
    def parseval_weights(self) -> np.ndarray:
        w = np.full(self.n // 2 + 1, 2.0)
        w[0] = 1.0
        w[-1] = 1.0
        return w


# kappa floor of the periodic model, both kinds; for the semilinear kind
# it is the recipe floor 1 + 2/n at n = 1
PERIODIC_KAPPA_FLOOR = 3.0


class PeriodicHeatModel:
    """Free-space surrogate on the periodic box.

    kind "semilinear": u_t = a0 u_xx + |u|^{kappa-1} u
    kind "quasilinear": u_t = a0 u_xx + |u_x|^kappa   (constant a only;
        the scaling argument needs constant diffusivity anyway)

    State: rfft coefficients / n.
    """

    def __init__(self, grid: PeriodicGrid, kind: str = "semilinear",
                 kappa: float = 5.0, diffusion: float = 1.0,
                 nonlinear: bool = True):
        if kind not in ("semilinear", "quasilinear"):
            raise ValueError(f"unknown model kind {kind!r}")
        if not kappa > PERIODIC_KAPPA_FLOOR:
            raise ExponentError([
                f"kappa must exceed {PERIODIC_KAPPA_FLOOR:g}, got {kappa}"])
        if not diffusion > 0.0:
            raise ValueError("diffusion must be positive")
        with np.errstate(over="ignore"):
            k2 = grid.wavenumbers ** 2
            self.lam = -diffusion * k2
        if not np.isfinite(self.lam).all():
            key = "heat.diffusion" if np.isfinite(k2).all() else "grid.half_width"
            raise ValueError(f"{key}: the generator overflows on this grid")
        self.grid = grid
        self.kind = kind
        self.kappa = kappa
        self.nonlinear = nonlinear
        self.propagator = Propagator(self.lam)
        k_index = np.arange(grid.n // 2 + 1)
        self.dealias_mask = (k_index <= grid.n // 3).astype(float)
        self._norm_weights = _sobolev_weights(grid.wavenumbers,
                                              grid.parseval_weights)
        self._volume = 2.0 * grid.half_width

    def state_from_values(self, values: np.ndarray) -> np.ndarray:
        return np.fft.rfft(values) / self.grid.n

    def values(self, state: np.ndarray) -> np.ndarray:
        return np.fft.irfft(state * self.grid.n, n=self.grid.n)

    def nonlinearity(self, state: np.ndarray) -> np.ndarray:
        if not self.nonlinear:
            return np.zeros_like(state)
        if self.kind == "semilinear":
            f_nodal = nonlinearity_semilinear(self.values(state), self.kappa)
        else:
            grad = self.values(1j * self.grid.wavenumbers * state)
            f_nodal = nonlinearity_gradient(grad, self.kappa)
        return self.state_from_values(f_nodal) * self.dealias_mask

    def norm(self, state: np.ndarray, sigma: float):
        return _weighted_norm(self._norm_weights(sigma), state, self._volume)

    def homogeneous_seminorm(self, state: np.ndarray, exponent: float) -> float:
        if exponent < 0.0:
            raise ValueError("seminorm exponent must be nonnegative")
        mult = self.grid.wavenumbers ** (2.0 * exponent)  # 0^0 = 1 keeps L2
        return _weighted_norm(self.grid.parseval_weights * mult, state,
                              self._volume)


def scaling_amplitude(lam_scale: float, model_kind: str, kappa: float) -> float:
    if model_kind == "semilinear":
        return lam_scale ** (1.0 / (kappa - 1.0))
    if model_kind == "quasilinear":
        return lam_scale ** (-(kappa - 2.0) / (2.0 * (kappa - 1.0)))
    raise ValueError(f"unknown model kind {model_kind!r}")


def _edge_amplitude(values: np.ndarray) -> float:
    band = max(1, values.size // 10)
    edge = max(np.max(np.abs(values[:band])), np.max(np.abs(values[-band:])))
    return float(edge)


def scaling_transform(values: np.ndarray, grid: PeriodicGrid, lam_scale: float,
                      model_kind: str, kappa: float) -> np.ndarray:
    """Parabolic rescaling of one time slice: amplitude factor times
    spectral resampling at sqrt(lambda) x."""
    if not 0.0 < lam_scale < math.inf:  # the negated form refuses NaN too
        raise ValueError(f"lambda must be positive and finite, got {lam_scale}")
    values = np.asarray(values, dtype=float)
    peak = np.max(np.abs(values))
    if peak > 0.0 and _edge_amplitude(values) > 1e-6 * peak:
        raise ValueError("rescaled support exits box: data not concentrated "
                         "away from the periodic boundary")
    coeffs = np.fft.rfft(values) / grid.n
    # samples start at x = -L: shift to physical-plane-wave coefficients
    coeffs = coeffs * np.exp(1j * grid.wavenumbers * grid.half_width)
    stretched = math.sqrt(lam_scale) * grid.nodes
    weighted = grid.parseval_weights * coeffs
    resampled = np.concatenate([  # 256 basis rows at a time: storage linear in n
        (np.exp(np.multiply.outer(rows, 1j * grid.wavenumbers)) @ weighted).real
        for rows in np.split(stretched, range(256, grid.n, 256))])
    # points stretched past the box see the periodic ghost copy; the
    # free-space field is zero there (support guard above)
    resampled[np.abs(stretched) > grid.half_width] = 0.0
    out = scaling_amplitude(lam_scale, model_kind, kappa) * resampled
    out_peak = np.max(np.abs(out))
    if out_peak > 0.0 and _edge_amplitude(out) > 1e-6 * out_peak:
        raise ValueError("rescaled support exits box: spread data reaches "
                         "the periodic boundary")
    return out


@dataclass(frozen=True)
class ScalingReport:
    discrepancy: float
    reference_norm: float


def scaling_roundtrip_test(u0_values: np.ndarray, lam_scale: float,
                           t_final: float, dt: float, integrator: str,
                           grid: PeriodicGrid, model_kind: str = "semilinear",
                           kappa: float = 5.0, diffusion: float = 1.0,
                           nonlinear: bool = True) -> ScalingReport:
    """Two routes to the same field: evolve-then-scale against
    scale-then-evolve to time T/lambda; reports the relative L2 gap."""
    cfg_a = SolverConfig(dt=dt, t_end=t_final, integrator=integrator,
                         monitor_sigmas=(0.0,))
    products = grid.n * (grid.n // 2 + 1)  # per transform: work, not storage
    if products > 1 << 26:
        raise ValueError(f"grid.n: {products:,} resampling products exceed 2^26")
    model = PeriodicHeatModel(grid, model_kind, kappa, diffusion, nonlinear)
    # refuses data too wide to rescale before either march
    v0 = scaling_transform(u0_values, grid, lam_scale, model_kind, kappa)
    traj_a = run_simulation(model, model.state_from_values(u0_values), cfg_a)
    if traj_a.flagged:
        raise RuntimeError(f"unscaled run flagged blow-up: {traj_a.blowup_reason}")
    scaled_after = scaling_transform(model.values(traj_a.final_state), grid,
                                     lam_scale, model_kind, kappa)

    cfg_b = SolverConfig(dt=dt / lam_scale, t_end=t_final / lam_scale,
                         integrator=integrator, monitor_sigmas=(0.0,))
    traj_b = run_simulation(model, model.state_from_values(v0), cfg_b)
    if traj_b.flagged:
        raise RuntimeError(f"scaled run flagged blow-up: {traj_b.blowup_reason}")
    evolved_scaled = model.values(traj_b.final_state)

    gap = np.linalg.norm(scaled_after - evolved_scaled)
    ref = np.linalg.norm(scaled_after)
    return ScalingReport(discrepancy=float(gap / max(ref, 1e-300)),
                         reference_norm=float(ref))
