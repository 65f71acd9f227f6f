"""Large-frequency predictions for the oscillatory pair.

Two kernel classes get closed-form leading terms for the upper root
lam(a) as the mode frequency a grows:

* finite-sum kernels (K(0) = sum c_k finite):
      lam = i*a - K(0) / (2*a**(2*(1-xi))) + smaller,
* power-law families with regularity r < 1:
      lam = i*a - C(r) * A / (beta * B**(1-r)) * a**(-(1+r-2*xi)) + smaller,
  and for r = 1 the algebraic factor gains a log:
      lam = i*a - A/(2*beta) * log(a) * a**(-2*(1-xi)) + smaller.

C(r) is the complex constant (i/2) * angular_integral(r, pi/2), here in
closed form; the tests check it against that quadrature.  The sign of
1 + r - 2*xi sorts families into three long-run regimes for the decay
rate |Re lam|: vanishing, constant, or unbounded.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernels import PowerLawFamily
from .pencil import memory_weight


@dataclass(frozen=True)
class AsymptoticPrediction:
    """Leading term plus the declared decay order of the neglected remainder.

    ``remainder_order`` is the exponent q such that the (real-part) error of
    ``value`` is O(a**-q); for finite-sum kernels the imaginary part has its
    own exponent, which degenerates to 0 (bounded, not decaying) at
    xi = 1/2.
    """

    value: complex
    remainder_order: float
    regime_tag: str
    imag_remainder_order: float | None = None


def asymptotic_constant(r: float) -> complex:
    """C(r) = (pi/2) * exp(i*pi*(1-r)/2) / sin(pi*r) for 0 < r < 1."""
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie strictly inside (0, 1)")
    return (math.pi / 2.0) * cmath.exp(1j * math.pi * (1.0 - r) / 2.0) / math.sin(
        math.pi * r
    )


def predict_finite_sum(frequency: float, xi: float, initial_value: float) -> AsymptoticPrediction:
    """Pair prediction for kernels with finite initial value K(0).

    value = i*a - K(0)/(2*a**(2*(1-xi))); the real remainder decays one
    order faster in the weight, the imaginary remainder switches behaviour
    at xi = 1/2.
    """
    if not frequency > 0:
        raise ValueError("frequency must be positive")
    if not 0.0 < xi < 1.0:
        raise ValueError("xi must lie strictly inside (0, 1)")
    if initial_value < 0:
        raise ValueError("initial value must be nonnegative")
    if xi < 0.5:
        tag = "finite_sum_xi_lt_half"
    elif xi > 0.5:
        tag = "finite_sum_xi_gt_half"
    else:
        tag = "finite_sum_xi_eq_half"
    value = complex(-0.5 * initial_value * memory_weight(frequency, xi), frequency)
    return AsymptoticPrediction(
        value=value,
        remainder_order=2.0 * (1.0 - xi),
        regime_tag=tag,
        imag_remainder_order=abs(1.0 - 2.0 * xi),
    )


def predict_power_law(frequency: float, xi: float, family: PowerLawFamily) -> AsymptoticPrediction:
    """Pair prediction for a power-law family, upper branch.

    The complex constant multiplies the full correction, so both real and
    imaginary parts of the returned value carry the leading shift; the
    conjugate branch is the mirror image.
    """
    if not frequency > 0:
        raise ValueError("frequency must be positive")
    if not 0.0 < xi < 1.0:
        raise ValueError("xi must lie strictly inside (0, 1)")
    a = float(frequency)
    r = family.regularity
    order = 2.0 * (r - xi) + 1.0 if r < 0.5 else 2.0 * (1.0 - xi)
    if r == 1.0:
        tag = "power_r_eq_one"
        corr = (family.amplitude / (2.0 * family.beta)) * math.log(a) * memory_weight(a, xi)
        value = complex(-corr, a)
    else:
        tag = "power_r_lt_half" if r < 0.5 else "power_r_in_half_one"
        front = family.amplitude / (family.beta * family.scale ** (1.0 - r))
        corr = asymptotic_constant(r) * front * a ** (-(1.0 + r - 2.0 * xi))
        value = 1j * a - corr
    return AsymptoticPrediction(
        value=value,
        remainder_order=order,
        regime_tag=tag,
        imag_remainder_order=None,
    )


def classify_regime(xi: float, r: float) -> str:
    """Long-run behaviour of the pair's decay rate |Re lam(a)|.

    Compares xi against (r+1)/2: below it the decay rate vanishes, at it
    the rate approaches the constant Re C(r)*A/(beta*B**(1-r)), above it
    the pair runs off to Re = -inf.  Kernels with r = 1 always send the
    pair to the axis (the log factor loses to any positive power).
    """
    if not 0.0 < xi < 1.0:
        raise ValueError("xi must lie strictly inside (0, 1)")
    if not 0.0 < r <= 1.0:
        raise ValueError("r must lie in (0, 1]")
    if r == 1.0:
        return "tends_to_axis"
    boundary = 0.5 * (r + 1.0)
    if xi < boundary:
        return "tends_to_axis"
    if xi == boundary:
        return "constant_offset"
    return "unbounded_decay"


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares log-log slope with a residual-based uncertainty."""

    slope: float
    half_width: float
    below_floor: bool = False


def empirical_order(points: Sequence[tuple[float, float]]) -> SlopeFit:
    """Fit log(error) = slope*log(scale) + const over a measured ladder.

    Needs at least 4 points spanning two decades in scale.  Errors must be
    nonnegative; an exact zero means the quantity fell below measurement
    noise, reported via the ``below_floor`` sentinel instead of a fit.
    """
    if len(points) < 4:
        raise ValueError("need at least 4 points for a slope fit")
    # the checks run on Python floats: numpy calls on a handful of points
    # cost more than the fit itself
    scales = [float(s) for s, _ in points]
    errors = [float(e) for _, e in points]
    if any(s <= 0 for s in scales):
        raise ValueError("scales must be positive")
    if max(scales) / min(scales) < 100.0:
        raise ValueError("scales must span at least two decades")
    if any(e < 0 for e in errors):
        raise ValueError("errors must be nonnegative")
    if any(e == 0 for e in errors):
        return SlopeFit(slope=math.nan, half_width=math.nan, below_floor=True)
    return fit_slope(np.log(np.array(scales)), np.log(np.array(errors)))


def fit_slope(x: np.ndarray, y: np.ndarray) -> SlopeFit:
    """Least-squares slope of y on x; the half width is twice its standard error."""
    x = x - x.mean()
    y = y - y.mean()
    sxx = float(x @ x)
    slope = float(x @ y) / sxx  # sxy/sxx: the least-squares slope
    resid = y - slope * x
    variance = float(resid @ resid) / (len(x) - 2)
    return SlopeFit(slope=slope, half_width=2.0 * math.sqrt(variance / sxx))
