"""Spectra of second-order modes damped through exponential-sum memory kernels.

The package answers three questions about the mode symbol
L(z) = z**2 + a**2 - a**(2*xi) * Khat(z):

* where its roots are (interlaced real branches + one oscillatory pair),
* how confident we are (residuals, counting certificates, argument-principle
  contour counts, polynomial and time-domain oracles),
* and where the pair goes as the frequency a grows (closed-form
  asymptotics with verified remainder orders).

Quick start::

    from gpspectra import ExponentialKernel, ModePencil, solve_mode

    kernel = ExponentialKernel(coeffs=(1.0,), rates=(2.0,))
    mode = ModePencil(frequency=10.0, xi=0.5, kernel=kernel)
    result = solve_mode(mode)
    print(result.all_roots, result.certificate.zeros_inferred)

The ``gpspectra`` command line exposes the same machinery on JSON job
configs; see the README for the schema.
"""

import os as _os
import sys as _sys

if "numpy" not in _sys.modules and "OPENBLAS_NUM_THREADS" not in _os.environ:
    # The package's matrices are at most ODE_MAX x ODE_MAX, too small for
    # OpenBLAS to split across threads, but numpy's OpenBLAS starts a worker
    # per CPU when it loads, and each spins for about 0.1 s of CPU before it
    # sleeps.  That spin makes every short CLI process slower, by an amount
    # that depends on what else the machine runs.  So the BLAS loaded here
    # gets one thread; the variable is unset again once numpy has loaded.
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .asymptotics import (
    AsymptoticPrediction,
    SlopeFit,
    asymptotic_constant,
    classify_regime,
    empirical_order,
    predict_finite_sum,
    predict_power_law,
)
from .complex_pair import (
    CountCertificate,
    FixedPointPair,
    RectContour,
    count_zeros,
    fixed_point_pair,
    kantorovich_ball,
    newton_refine,
    spectrum_contour,
)
from .errors import (
    ConfigError,
    ContourError,
    DivergenceError,
    EnclosureError,
    GPSpectraError,
    InadmissibleModeError,
    MaxIterationsError,
    NonContractionError,
    NumericalError,
    PoleProximityError,
    QuadratureError,
)
from .kernels import (
    EndCorrections,
    ExponentialKernel,
    PowerLawFamily,
    angular_integral,
    continuum_laplace,
    laplace,
    laplace_asymptotic,
    laplace_deriv,
    laplace_tail,
    laplace_pass,
    materialize,
    pseudo_ladder,
    tail_bound,
)
from .oracle import (
    DecayEstimate,
    MatchResult,
    ModeSystem,
    aberth_roots,
    build_mode_system,
    match_roots,
    simulate_decay,
)
from .pencil import (
    ModePencil,
    inertia,
    stiffness,
    symbol,
    symbol_with_deriv,
    to_polynomial,
)
from .real_branches import (
    BranchRoot,
    ConvergenceRecord,
    bracket_intervals,
    branch_convergence,
    branch_roots,
    stiffness_roots,
)
from .solve import CountingCertificate, SpectrumResult, solve_mode

__version__ = "0.1.0"

__all__ = [
    "AsymptoticPrediction",
    "BranchRoot",
    "ConfigError",
    "ContourError",
    "ConvergenceRecord",
    "CountCertificate",
    "CountingCertificate",
    "DecayEstimate",
    "DivergenceError",
    "EnclosureError",
    "EndCorrections",
    "ExponentialKernel",
    "FixedPointPair",
    "GPSpectraError",
    "InadmissibleModeError",
    "MatchResult",
    "MaxIterationsError",
    "ModePencil",
    "ModeSystem",
    "NonContractionError",
    "NumericalError",
    "PoleProximityError",
    "PowerLawFamily",
    "QuadratureError",
    "RectContour",
    "SlopeFit",
    "SpectrumResult",
    "aberth_roots",
    "angular_integral",
    "asymptotic_constant",
    "bracket_intervals",
    "branch_convergence",
    "branch_roots",
    "build_mode_system",
    "classify_regime",
    "continuum_laplace",
    "count_zeros",
    "empirical_order",
    "fixed_point_pair",
    "inertia",
    "kantorovich_ball",
    "laplace",
    "laplace_asymptotic",
    "laplace_deriv",
    "laplace_tail",
    "laplace_pass",
    "match_roots",
    "materialize",
    "newton_refine",
    "predict_finite_sum",
    "predict_power_law",
    "pseudo_ladder",
    "simulate_decay",
    "solve_mode",
    "spectrum_contour",
    "stiffness",
    "stiffness_roots",
    "symbol",
    "symbol_with_deriv",
    "tail_bound",
    "to_polynomial",
]
