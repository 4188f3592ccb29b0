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
