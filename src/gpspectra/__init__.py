"""Spectra of second-order modes damped through exponential-sum memory kernels.

The package answers three questions about the mode symbol
L(z) = z**2 + a**2 - a**(2*xi) * Khat(z):

* where its roots are (interlaced real branches + one oscillatory pair),
* how confident we are (residuals, argument-principle certificates,
  polynomial and time-domain oracles),
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
    asymptotic_constant_quadrature,
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
    newton_refine,
    solve_pair,
    spectrum_contour,
)
from .errors import (
    ConfigError,
    ContourError,
    DivergenceError,
    GPSpectraError,
    InadmissibleModeError,
    MaxIterationsError,
    NonContractionError,
    NoSignChangeError,
    NumericalError,
    PoleProximityError,
    QuadratureError,
)
from .kernels import (
    AdmissibilityReport,
    ExponentialKernel,
    PowerLawFamily,
    TailSeries,
    admissibility_report,
    angular_integral,
    continuum_laplace,
    laplace,
    laplace_asymptotic,
    laplace_deriv,
    laplace_tail,
    laplace_with_deriv,
    materialize,
    materialize_within,
    materialize_within_each,
    tail_bound,
    tail_coefficients,
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
    symbol_deriv,
    symbol_with_deriv,
    to_polynomial,
)
from .real_branches import (
    BranchRoot,
    ConvergenceRecord,
    bracket_intervals,
    branch_and_stiffness_roots,
    branch_convergence,
    branch_roots,
    stiffness_roots,
)
from .solve import SpectrumResult, solve_mode

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "AsymptoticPrediction",
    "BranchRoot",
    "ConfigError",
    "ContourError",
    "ConvergenceRecord",
    "CountCertificate",
    "DecayEstimate",
    "DivergenceError",
    "ExponentialKernel",
    "FixedPointPair",
    "GPSpectraError",
    "InadmissibleModeError",
    "MatchResult",
    "MaxIterationsError",
    "ModePencil",
    "ModeSystem",
    "NonContractionError",
    "NoSignChangeError",
    "NumericalError",
    "PoleProximityError",
    "PowerLawFamily",
    "QuadratureError",
    "RectContour",
    "SlopeFit",
    "SpectrumResult",
    "TailSeries",
    "aberth_roots",
    "admissibility_report",
    "angular_integral",
    "asymptotic_constant",
    "asymptotic_constant_quadrature",
    "bracket_intervals",
    "branch_and_stiffness_roots",
    "branch_convergence",
    "branch_roots",
    "build_mode_system",
    "classify_regime",
    "continuum_laplace",
    "count_zeros",
    "empirical_order",
    "fixed_point_pair",
    "inertia",
    "laplace",
    "laplace_asymptotic",
    "laplace_deriv",
    "laplace_tail",
    "laplace_with_deriv",
    "match_roots",
    "materialize",
    "materialize_within",
    "materialize_within_each",
    "newton_refine",
    "predict_finite_sum",
    "predict_power_law",
    "simulate_decay",
    "solve_mode",
    "solve_pair",
    "spectrum_contour",
    "stiffness",
    "stiffness_roots",
    "symbol",
    "symbol_deriv",
    "symbol_with_deriv",
    "tail_bound",
    "tail_coefficients",
    "to_polynomial",
]
