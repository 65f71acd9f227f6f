"""Adaptive panel quadrature for the kernel integrals.

Fixed-order Gauss-Legendre rule per panel, panels bisected until the
two-half refinement agrees with the single-panel estimate to the local
tolerance.  Integrands may be complex valued; endpoint singularities of
the form t**p with p > -1 are removed by the substitution t = s**(1/(1+p))
before any panel sees them.
"""

from __future__ import annotations

from functools import cache
from typing import Callable

import numpy as np

from .errors import QuadratureError

#: bisection depth at which a panel that still disagrees is an error
MAX_DEPTH = 48


@cache
def _rule() -> tuple[np.ndarray, np.ndarray]:
    """The 12-point Gauss-Legendre nodes and weights.

    Built on the first panel, not at import, so that only a process that
    integrates pays for importing numpy.polynomial.
    """
    from numpy.polynomial.legendre import leggauss

    return leggauss(12)


def _panel(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> complex:
    nodes, weights = _rule()
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return half * complex(np.sum(weights * f(mid + half * nodes)))


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    tol: float = 1e-10,
) -> complex:
    """Integrate ``f`` over [lo, hi] to absolute tolerance ``tol``.

    ``f`` must accept a float ndarray of sample points and return values of
    matching shape (real or complex).  Raises :class:`QuadratureError` when
    a panel still disagrees at bisection depth MAX_DEPTH.
    """
    if not hi > lo:
        raise ValueError(f"empty integration range [{lo}, {hi}]")
    total = 0.0 + 0.0j
    # stack of (lo, hi, coarse_estimate, local_tol, depth)
    stack = [(lo, hi, _panel(f, lo, hi), tol, 0)]
    while stack:
        a, b, coarse, ltol, depth = stack.pop()
        mid = 0.5 * (a + b)
        left = _panel(f, a, mid)
        right = _panel(f, mid, b)
        fine = left + right
        if abs(fine - coarse) <= ltol:
            total += fine
            continue
        if depth >= MAX_DEPTH:
            raise QuadratureError(
                f"panel [{a}, {b}] still disagrees by {abs(fine - coarse):.3e} "
                f"at depth {depth}"
            )
        stack.append((a, mid, left, 0.5 * ltol, depth + 1))
        stack.append((mid, b, right, 0.5 * ltol, depth + 1))
    return total


def integrate_power_weighted(
    f: Callable[[np.ndarray], np.ndarray],
    power: float,
    tol: float = 1e-10,
) -> complex:
    """Integrate t**power * f(t) over (0, 1] with an integrable endpoint power.

    Requires power > -1.  The substitution t = s**(1/(1+power)) turns the
    weight into a constant, so the panels only ever see the smooth factor.
    """
    if power <= -1:
        raise ValueError(f"endpoint power {power} is not integrable on (0, 1]")
    q = 1.0 / (1.0 + power)

    def smooth(s: np.ndarray) -> np.ndarray:
        return f(s**q)

    return q * integrate(smooth, 0.0, 1.0, tol=tol)
