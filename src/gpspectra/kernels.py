"""Exponential-sum relaxation kernels and their Laplace transforms.

A kernel is a finite positive sum K(t) = sum_k c_k * exp(-g_k * t) with
strictly increasing decay rates g_k.  Everything downstream works off the
transform

    Khat(z) = sum_k c_k / (z + g_k),

a Stieltjes-type function with simple poles on the negative real axis.
Power-law families c_k = A/k**alpha, g_k = B*k**beta model kernels with a
t**(r-1)-like singularity at the origin, where r = (alpha+beta-1)/beta is
the effective regularity exponent in (0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PoleProximityError
from .quadrature import integrate, integrate_power_weighted

#: relative factor applied to the largest rate when guarding pole proximity
POLE_GUARD_FACTOR = 1e-13

#: transforms are only evaluated this far (radians) from the branch ray
ARG_MARGIN = 0.1


@dataclass(frozen=True)
class ExponentialKernel:
    """Finite ladder of decaying exponentials.

    Parameters
    ----------
    coeffs : tuple of float
        Positive amplitudes c_k.
    rates : tuple of float
        Positive, strictly increasing decay rates g_k, same length as coeffs.
    """

    coeffs: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        g = np.asarray(self.rates, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("kernel needs at least one term")
        if c.shape != g.shape:
            raise ValueError(f"{c.size} coefficients vs {g.size} rates")
        if not np.all(c > 0):
            raise ValueError("coefficients must be strictly positive")
        if not np.all(g > 0):
            raise ValueError("rates must be strictly positive")
        if not np.all(np.diff(g) > 0):
            raise ValueError("rates must be strictly increasing")
        object.__setattr__(self, "coeffs", tuple(c.tolist()))
        object.__setattr__(self, "rates", tuple(g.tolist()))

    @property
    def size(self) -> int:
        return len(self.coeffs)

    @cached_property
    def _c(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=float)

    @cached_property
    def _g(self) -> np.ndarray:
        return np.asarray(self.rates, dtype=float)

    @cached_property
    def l1_norm(self) -> float:
        """Integral of K over (0, inf): sum c_k / g_k.  Also Khat(0)."""
        return math.fsum((self._c / self._g).tolist())

    @cached_property
    def initial_value(self) -> float:
        """K(0) = sum c_k (may be large for near-singular kernels)."""
        return math.fsum(self.coeffs)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Summary of the structural conditions a kernel is expected to satisfy."""

    l1_norm: float
    initial_value: float
    admissible: bool  # l1_norm < 1
    spacing_supremum: float  # max over k of g_k * (g_{k+1} - g_k); nan if size 1
    size: int


def admissibility_report(kernel: ExponentialKernel) -> AdmissibilityReport:
    """Report the total-memory norm, initial value and rate-spacing proxy.

    The spacing figure is the finite-ladder stand-in for an unbounded-gap
    condition on the full rate sequence; it is informational only and never
    asserted.
    """
    g = kernel._g
    spacing = float(np.max(g[:-1] * np.diff(g))) if kernel.size > 1 else math.nan
    s = kernel.l1_norm
    return AdmissibilityReport(
        l1_norm=s,
        initial_value=kernel.initial_value,
        admissible=bool(s < 1.0),
        spacing_supremum=spacing,
        size=kernel.size,
    )


def _guard_poles(kernel: ExponentialKernel, shifted: np.ndarray) -> None:
    guard = POLE_GUARD_FACTOR * kernel.rates[-1]
    closest = np.min(np.abs(shifted))
    if closest < guard:
        raise PoleProximityError(
            f"evaluation point within {closest:.3e} of a kernel pole "
            f"(guard {guard:.3e})"
        )


def laplace(kernel: ExponentialKernel, zeta) -> complex | np.ndarray:
    """Khat(zeta) = sum_k c_k / (zeta + g_k).

    Accepts a scalar or an ndarray of points.  Scalar evaluations on small
    ladders use exactly-rounded compensated summation; large ladders and
    array arguments fall back to pairwise summation, which is more than
    accurate enough for ladders of a few million terms.
    """
    z = np.asarray(zeta, dtype=complex)
    shifted = z[..., None] + kernel._g
    _guard_poles(kernel, shifted)
    terms = kernel._c / shifted
    if z.ndim == 0 and kernel.size <= 20000:
        return complex(
            math.fsum(terms.real.ravel()), math.fsum(terms.imag.ravel())
        )
    out = np.sum(terms, axis=-1)
    return complex(out) if z.ndim == 0 else out


def laplace_deriv(kernel: ExponentialKernel, zeta) -> complex | np.ndarray:
    """d/dz Khat(z) = -sum_k c_k / (z + g_k)**2."""
    z = np.asarray(zeta, dtype=complex)
    shifted = z[..., None] + kernel._g
    _guard_poles(kernel, shifted)
    terms = -kernel._c / shifted**2
    if z.ndim == 0 and kernel.size <= 20000:
        return complex(
            math.fsum(terms.real.ravel()), math.fsum(terms.imag.ravel())
        )
    out = np.sum(terms, axis=-1)
    return complex(out) if z.ndim == 0 else out


@dataclass(frozen=True)
class PowerLawFamily:
    """Kernel family c_k = amplitude/k**alpha, g_k = scale*k**beta.

    Constraints: amplitude, scale, beta > 0; 0 < alpha <= 1; alpha + beta > 1.
    ``count`` is the explicit truncation length used by :func:`materialize`.
    """

    amplitude: float
    scale: float
    alpha: float
    beta: float
    count: int

    def __post_init__(self):
        if not (self.amplitude > 0 and self.scale > 0):
            raise ValueError("amplitude and scale must be positive")
        if not (0 < self.alpha <= 1):
            raise ValueError("alpha must lie in (0, 1]")
        if not (self.beta > 0):
            raise ValueError("beta must be positive")
        if not (self.alpha + self.beta > 1):
            raise ValueError("alpha + beta must exceed 1")
        if not (isinstance(self.count, int) and self.count >= 1):
            raise ValueError("count must be a positive integer")

    @property
    def regularity(self) -> float:
        """r = (alpha + beta - 1)/beta in (0, 1]; exactly 1 when alpha == 1."""
        if self.alpha == 1.0:
            return 1.0
        return (self.alpha + self.beta - 1.0) / self.beta


def materialize(family: PowerLawFamily) -> ExponentialKernel:
    """Build the explicit truncated ladder for a power-law family."""
    k = np.arange(1, family.count + 1, dtype=float)
    coeffs = family.amplitude / k**family.alpha
    rates = family.scale * k**family.beta
    return ExponentialKernel(coeffs, rates)  # post-init normalises to tuples


def tail_bound(family: PowerLawFamily, count: int, moment: int = 1) -> float:
    """Integral bound on the discarded tail sum_{k>count} c_k / g_k**moment.

    moment=1 bounds the truncation error of the total-memory norm; moment=2
    bounds the curvature tail sum c_k/g_k**2, which controls how truncation
    shifts the oscillatory spectrum.  Requires alpha + moment*beta > 1.
    """
    p = family.alpha + moment * family.beta - 1.0
    if p <= 0:
        raise ValueError("tail sum diverges for this family/moment")
    return family.amplitude / (family.scale**moment * p * count**p)


#: geometric-expansion length cap in laplace_tail; at the enforced ratio
#: |zeta|/g_{count+1} <= 1/2 the 60th term is below 1e-18 relative
_TAIL_TERMS = 60


def laplace_tail(family: PowerLawFamily, zeta: complex, dps: int = 30) -> complex:
    """Transform mass the truncation at ``family.count`` discarded.

    Evaluates sum over k > count of c_k/(zeta + g_k) exactly, so that
    ``laplace(materialize(family), z) + laplace_tail(family, z)`` is the
    transform of the *infinite* ladder.  Expanding each term geometrically
    in zeta/g_k turns the sum into

        amplitude * sum_j (-zeta)**j * scale**-(j+1) * zeta_H(alpha+(j+1)*beta)

    with Hurwitz zeta values zeta_H(s) = sum_{k>count} k**-s; the series
    converges for |zeta| < g_{count+1} and we require a factor-two margin so
    thirty-odd terms reach full double precision.  This is how a finite
    machine answers questions about the infinite kernel: materialize rates
    past the window of interest and close the remainder analytically.
    """
    from mpmath import mp  # imported here: its only user, and slow to import

    zeta = complex(zeta)
    n = family.count
    first_dropped = family.scale * (n + 1) ** family.beta
    if abs(zeta) >= 0.5 * first_dropped:
        raise ValueError(
            f"|zeta| = {abs(zeta):.3e} is not below half the first dropped "
            f"rate {first_dropped:.3e}; increase the family count"
        )
    with mp.workdps(dps):
        z = mp.mpc(zeta)
        total = mp.mpc(0)
        power = mp.mpc(1)
        floor = mp.mpf(10) ** (5 - dps)
        for j in range(_TAIL_TERMS):
            s = family.alpha + family.beta * (j + 1)
            term = power / mp.mpf(family.scale) ** (j + 1) * mp.zeta(s, n + 1)
            total += term
            if abs(term) < floor * (1.0 + abs(total)):
                break
            power *= -z
        return complex(total * mp.mpf(family.amplitude))


def _check_arg(zeta: complex) -> None:
    if zeta == 0:
        raise ValueError("transform is singular at zero")
    if abs(np.angle(zeta)) >= np.pi - ARG_MARGIN:
        raise ValueError(
            f"argument {np.angle(zeta):.3f} rad is within {ARG_MARGIN} of the "
            "negative real axis where the transform has its singularities"
        )


def continuum_laplace(
    family: PowerLawFamily,
    zeta: complex,
    t_max: float | None = None,
    tol: float = 1e-10,
) -> complex:
    """Continuum companion of the ladder transform.

    Computes h(z) = integral over t in [1, t_max] of
    amplitude * dt / (t**alpha * (z + scale*t**beta)), with t_max = inf by
    default.  After the substitutions u = t**beta and s = u**(-r) this is

        (amplitude/(beta*r)) * integral_{s0}^{1} ds / (scale + z*s**(1/r)),

    s0 = t_max**(-beta*r), which the adaptive panels handle uniformly in z.
    A finite ``t_max`` matches the comparison to a truncated ladder; without
    it the discarded ladder tail dominates the difference once |z| grows
    past the reciprocal tail mass.
    """
    zeta = complex(zeta)
    _check_arg(zeta)
    r = family.regularity
    s_lo = 0.0 if t_max is None else float(t_max) ** (-family.beta * r)
    if s_lo >= 1.0:
        raise ValueError("t_max must exceed the lower integration limit 1")

    def integrand(s: np.ndarray) -> np.ndarray:
        return 1.0 / (family.scale + zeta * s ** (1.0 / r))

    value = integrate(integrand, s_lo, 1.0, tol=tol)
    return family.amplitude / (family.beta * r) * value


def angular_integral(r: float, phi: float, tol: float = 1e-10) -> complex:
    """integral over t in (0, inf) of dt / (t**r * (e^{i*phi} + t)), 0 < r < 1.

    Split at t = 1; the head carries the t**(-r) endpoint weight and the
    inverted tail carries t**(r-1), both removed by power substitution.
    Defined for |phi| < pi - ARG_MARGIN.
    """
    if not 0 < r < 1:
        raise ValueError("r must lie strictly inside (0, 1)")
    if abs(phi) >= np.pi - ARG_MARGIN:
        raise ValueError("phi too close to the branch ray at pi")
    w = complex(np.cos(phi), np.sin(phi))
    head = integrate_power_weighted(lambda t: 1.0 / (w + t), -r, tol=tol)
    tail = integrate_power_weighted(lambda v: 1.0 / (1.0 + w * v), r - 1.0, tol=tol)
    return head + tail


def laplace_asymptotic(family: PowerLawFamily, zeta: complex, tol: float = 1e-10) -> complex:
    """Leading large-|z| behaviour of the family transform.

    For regularity r < 1:
        Khat(z) ~ amplitude * scale**(r-1) / (beta * |z|**r) * angular_integral(r, arg z)
    and for r = 1 (alpha == 1):
        Khat(z) ~ (amplitude/beta) * log|z/scale + 1| / z.

    Returns the leading term only; the absolute remainder is O(1/|z|).
    """
    zeta = complex(zeta)
    _check_arg(zeta)
    r = family.regularity
    if r == 1.0:
        return (family.amplitude / family.beta) * math.log(
            abs(zeta / family.scale + 1.0)
        ) / zeta
    front = family.amplitude * family.scale ** (r - 1.0) / (family.beta * abs(zeta) ** r)
    return front * angular_integral(r, float(np.angle(zeta)), tol=tol)
