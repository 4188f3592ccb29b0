"""mildflow: spectral mild-solution simulator for critical parabolic equations.

Modules
-------
exponents    critical exponent arithmetic and Beta constants
chebyshev    Chebyshev collocation on the wall-normal interval
strip        spectral fields on the periodic / truncated strip
propagators  analytic-semigroup actions e^{tA}, phi1, phi2
cloud        strip transport-diffusion operator and spectral bounds
solver       exponential integrators, Picard iteration, decay fitting
heat         one-dimensional semilinear / quasilinear heat models
lab          matrix fixed-point laboratory: contraction and decay
config, io, cli   run configuration, atomic artifacts, command line
"""

__version__ = "0.1.0"

from .exponents import (
    BetaConstants,
    CriticalRecipe,
    ExponentError,
    ExponentSet,
    beta_constant,
    beta_function,
    quasilinear_recipe,
    semilinear_recipe,
    validate_exponents,
)
from .lab import (
    ContractionParameters,
    FixedPointDivergence,
    FixedPointProblem,
    InfeasibleProblem,
    SemigroupConstants,
    contraction_experiment,
    decay_experiment,
    estimate_semigroup_constants,
    run_fixed_point,
    select_parameters,
    verify_decay,
)
from .solver import (
    PicardResult,
    SolverConfig,
    Trajectory,
    fit_decay_rate,
    picard_solve,
    run_simulation,
)

__all__ = [
    "__version__",
    "BetaConstants",
    "ContractionParameters",
    "CriticalRecipe",
    "ExponentError",
    "ExponentSet",
    "FixedPointDivergence",
    "FixedPointProblem",
    "InfeasibleProblem",
    "PicardResult",
    "SemigroupConstants",
    "SolverConfig",
    "Trajectory",
    "beta_constant",
    "beta_function",
    "contraction_experiment",
    "decay_experiment",
    "estimate_semigroup_constants",
    "fit_decay_rate",
    "picard_solve",
    "quasilinear_recipe",
    "run_fixed_point",
    "run_simulation",
    "select_parameters",
    "semilinear_recipe",
    "validate_exponents",
    "verify_decay",
]
