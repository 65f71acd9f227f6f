"""Exception types shared across the package.

Numerical failures (as opposed to bad inputs) derive from
:class:`NumericalError` so callers can map them to a single exit path.
"""


class GPSpectraError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(GPSpectraError):
    """A job configuration failed validation; message carries the JSON path."""


class NumericalError(GPSpectraError):
    """An algorithm failed to meet its contract (non-convergence etc.)."""


class PoleProximityError(NumericalError):
    """Evaluation point too close to a kernel pole for a trustworthy value."""


class InadmissibleModeError(NumericalError):
    """A mode's load w*sum c_k/g_k is not below 1, outside the structure theorem."""

    def __init__(self, load: float):
        self.load = load
        super().__init__(f"mode is overloaded: load w*sum c/g = {load!r} is not below 1")


class NonContractionError(NumericalError):
    """Fixed-point map stopped contracting (|g'| >= 1 observed)."""


class MaxIterationsError(NumericalError):
    """Iteration cap reached before the convergence test was met."""


class DivergenceError(NumericalError):
    """Newton refinement moved away from a root (residual grew repeatedly)."""


class QuadratureError(NumericalError):
    """Adaptive quadrature hit its subdivision depth before the tolerance."""


class ContourError(NumericalError):
    """Winding-number quadrature defect failed to shrink under refinement."""


class EnclosureError(NumericalError):
    """A root enclosure of the counting certificate could not be proven.

    ``branch`` is the 1-based real branch, or None for the oscillatory
    pair; ``bracket`` is the branch's (lo, hi) offsets from its left pole,
    or the pair's (center, radius) disc in tau = z/a - i.
    """

    def __init__(self, branch: int | None, bracket: tuple, reason: str):
        self.branch, self.bracket = branch, bracket
        where = "pair disc (center, radius)" if branch is None else f"branch {branch} bracket (lo, hi)"
        super().__init__(f"{where} = {bracket!r} not proven: {reason}")
