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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import NumericalError, PoleProximityError
from .quadrature import integrate, integrate_power_weighted

#: evaluations closer to a pole than this many ulps of its own rate are
#: refused: -1 + 1e-14, 45 ulps off the pole at -1, is; the closest
#: resolved root of perfbench's random_modes pool, 61 ulps off its pole,
#: is not
POLE_GUARD_ULPS = 50

#: transforms are only evaluated this far (radians) from the branch ray
ARG_MARGIN = 0.1

#: largest ladder whose transform at one point is summed exactly rounded:
#: about where the blocked pass becomes the faster one (both take about
#: 20 us at 64 terms; at 256 terms math.fsum takes three times as long)
FSUM_MAX = 64

#: ladder terms per block of the scalar pass over longer ladders: each
#: temporary is 64 KiB, under glibc's 128 KiB mmap threshold, so blocks
#: reuse heap memory and stay in cache; and OpenBLAS runs a dot product
#: on one thread up to 10000 terms, so the sums do not depend on its
#: thread count
SUM_BLOCK = 8192


def _horner(coeffs, x):
    """sum_j coeffs[j] * x**j; scalar or elementwise over an array."""
    out = 0.0
    for u in reversed(coeffs):
        out = out * x + u
    return out


@dataclass(frozen=True)
class TailSeries:
    """Transform of poles left off an explicit ladder, as a power series.

    Stands for sum_j coeffs[j] * (-z/radius)**j, the expansion of
    sum_k c_k/(z + g_k) over poles with every g_k >= 2*radius, so the series
    holds to double precision for |z| <= radius and is refused beyond it.
    Scaling by the radius keeps every coefficient within the double range.
    """

    coeffs: tuple[float, ...]
    radius: float

    def _argument(self, zeta):
        if isinstance(zeta, np.ndarray):
            outside = np.any(np.abs(zeta) > self.radius)
        else:
            outside = abs(zeta) > self.radius
        if outside:
            raise NumericalError(
                f"|z| up to {np.max(np.abs(zeta)):.6e} lies outside the far-pole "
                f"series radius {self.radius:.6e}"
            )
        return -zeta / self.radius

    @cached_property
    def _slopes(self) -> tuple[float, ...]:
        """j * coeffs[j] for j >= 1: the series of the derivative in -z/radius."""
        return tuple(j * u for j, u in enumerate(self.coeffs))[1:]

    def value(self, zeta):
        """The far poles' share of Khat(zeta)."""
        return _horner(self.coeffs, self._argument(zeta))

    def deriv(self, zeta):
        """The far poles' share of Khat'(zeta)."""
        return _horner(self._slopes, self._argument(zeta)) / -self.radius


class ExponentialKernel:
    """Finite ladder of decaying exponentials, immutable.

    Parameters
    ----------
    coeffs : sequence or array of float
        Positive amplitudes c_k.
    rates : sequence or array of float
        Positive, strictly increasing decay rates g_k, same length as coeffs.
    tail : TailSeries or None
        Poles beyond the ladder, summed as a series valid on |z| <= radius
        (see :func:`materialize_within`).  Only the transform and its
        derivative can use it; whatever needs every pole refuses such a
        kernel (:meth:`require_every_pole`).

    The ladder is held as two read-only float arrays, ``_c`` and ``_g``,
    which every evaluation uses; equality and hashing go by their bytes
    and the tail.  The ``coeffs`` and ``rates`` tuples are built on first
    use, for the Python loops that read them.
    """

    def __init__(self, coeffs, rates, tail: TailSeries | None = None):
        c = np.array(coeffs, dtype=float)
        g = np.array(rates, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("kernel needs at least one term")
        if c.shape != g.shape:
            raise ValueError(f"{c.size} coefficients vs {g.size} rates")
        if not np.all(c > 0):
            raise ValueError("coefficients must be strictly positive")
        if not np.all(g > 0):
            raise ValueError("rates must be strictly positive")
        if not np.all(g[1:] > g[:-1]):
            raise ValueError("rates must be strictly increasing")
        c.flags.writeable = g.flags.writeable = False
        self.__dict__.update(_c=c, _g=g, tail=tail)

    def head(self, size: int, tail: TailSeries | None = None) -> ExponentialKernel:
        """The first ``size`` terms, with ``tail`` as their far-pole series.

        Shares this kernel's arrays, which are already validated.
        """
        if not 1 <= size <= self.size:
            raise ValueError(f"head size {size} outside 1..{self.size}")
        out = object.__new__(ExponentialKernel)
        out.__dict__.update(_c=self._c[:size], _g=self._g[:size], tail=tail)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if not isinstance(other, ExponentialKernel):
            return NotImplemented
        return (
            self.tail == other.tail
            and self._c.tobytes() == other._c.tobytes()
            and self._g.tobytes() == other._g.tobytes()
        )

    @cached_property
    def _hash(self) -> int:
        return hash((self._c.tobytes(), self._g.tobytes(), self.tail))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"ExponentialKernel(coeffs={self._c!r}, rates={self._g!r}, tail={self.tail!r})"

    @cached_property
    def coeffs(self) -> tuple[float, ...]:
        return tuple(self._c.tolist())

    @cached_property
    def rates(self) -> tuple[float, ...]:
        return tuple(self._g.tolist())

    @property
    def size(self) -> int:
        return self._c.size

    def require_every_pole(self, purpose: str) -> None:
        """Refuse ``purpose`` when the ladder carries a far-pole series.

        Sums over the poles, pole intervals, root counts and the cleared
        polynomial all need each pole explicitly; the series only gives
        the transform near the origin.
        """
        if self.tail is not None:
            raise ValueError(
                f"{purpose} needs every pole, but this kernel sums the poles "
                f"beyond its {self.size} explicit terms as a series"
            )

    @cached_property
    def l1_norm(self) -> float:
        """Integral of K over (0, inf): sum c_k / g_k.  Also Khat(0)."""
        self.require_every_pole("the total-memory norm")
        return math.fsum((self._c / self._g).tolist())

    @cached_property
    def initial_value(self) -> float:
        """K(0) = sum c_k (may be large for near-singular kernels)."""
        self.require_every_pole("the initial value")
        return math.fsum(self._c.tolist())


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
    kernel.require_every_pole("the admissibility report")
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


def _guard_poles(distance: float, rate: float) -> None:
    """Refuse an evaluation ``distance`` from the pole at -``rate``.

    The guard counts ulps of that pole's own rate, so a root resolved
    close to a small rate is not refused for the size of the largest.
    """
    guard = POLE_GUARD_ULPS * math.ulp(rate)
    if distance < guard:
        raise PoleProximityError(
            f"evaluation point within {distance:.3e} of the kernel pole at "
            f"{-rate!r} (guard {guard:.3e})"
        )


def _guard_scalar(kernel: ExponentialKernel, z: complex) -> None:
    """:func:`_guard_poles` for every pole, at one point.

    A pole can trip the guard only if |Re z + g| < POLE_GUARD_ULPS * ulp(g),
    at most share = POLE_GUARD_ULPS * 2**-52 of g, so only the rates within
    twice that share of -Re z are checked; there is seldom more than one,
    and mostly none.
    """
    x, g = -z.real, kernel._g
    share = math.ldexp(POLE_GUARD_ULPS, -52)
    lo = bisect_left(g, x * (1.0 - 2.0 * share))
    hi = bisect_right(g, x * (1.0 + 2.0 * share), lo)
    for rate in g[lo:hi].tolist():
        _guard_poles(abs(z + rate), rate)


def _guard_array(kernel: ExponentialKernel, shifted: np.ndarray) -> None:
    """:func:`_guard_poles` for every pole, at every point of ``shifted = z[..., None] + g``."""
    distance = np.abs(shifted)
    near = distance < POLE_GUARD_ULPS * np.spacing(kernel._g)
    if near.any():
        i = np.flatnonzero(near)[0]
        _guard_poles(float(distance.flat[i]), float(kernel._g[i % kernel.size]))


def _fsum(terms: np.ndarray) -> complex:
    # fsum reads Python floats several times faster than numpy scalars
    return complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))


def _blocked_sums(kernel: ExponentialKernel, z: complex) -> tuple[complex, complex]:
    """Khat and Khat' of the explicit ladder at one point, in real arithmetic.

    With x = g + Re z, y = Im z, q = 1/(x**2 + y**2), p = x*q and v = y*q,
    each term is c/(z + g) = c*(p - i*v) and -c/(z + g)**2 =
    -c*(p - v)*(p + v) + 2i*c*p*v.  Every factor stays near 1/|z + g|, so
    nothing underflows before x**2 + y**2 overflows, and p**2 - v**2 is
    formed per term, not as a difference of two sums.  Where x**2 + y**2
    could overflow, z and the rates are first scaled by a power of two,
    which is exact.  The ladder is summed SUM_BLOCK terms at a time, and
    the block sums are added in order.
    """
    g, scale = kernel._g, 1.0
    top = max(abs(z.real), abs(z.imag), float(kernel._g[-1]))
    if top >= 2.0**511:
        scale = 2.0 ** -math.frexp(top)[1]
        g, z = g * scale, z * scale
    x0, y = z.real, z.imag
    y2 = y * y
    s_p = s_v = s_re = s_pv = 0.0
    for lo in range(0, kernel.size, SUM_BLOCK):
        c = kernel._c[lo : lo + SUM_BLOCK]
        x = g[lo : lo + SUM_BLOCK] + x0
        q = x * x
        q += y2
        np.reciprocal(q, out=q)
        p = x * q
        v = q * y
        cp = c * p
        cv = c * v
        s_p += cp.sum()
        s_v += cv.sum()
        s_re += np.dot(cp - cv, p + v)
        s_pv += np.dot(cp, v)
    return (
        complex(s_p * scale, -s_v * scale),
        complex(-s_re * scale * scale, 2.0 * s_pv * scale * scale),
    )


def laplace_with_deriv(kernel: ExponentialKernel, zeta: complex) -> tuple[complex, complex]:
    """(Khat(zeta), Khat'(zeta)) at one point, from one pass over the ladder.

    Ladders of at most FSUM_MAX (64) terms form the same terms as
    :func:`laplace` and :func:`laplace_deriv` and sum them exactly
    rounded.  Longer ladders, where exact rounding would cost several
    times the pass itself, are summed in real arithmetic, SUM_BLOCK terms
    at a time, without complex temporaries (:func:`_blocked_sums`), and
    the scalar :func:`laplace` and :func:`laplace_deriv` return the two
    halves of that pass; so at any one point both values equal theirs bit
    for bit.  The far-pole series adds its share to both, and the pole
    guard is that of :func:`laplace`.
    """
    z = complex(zeta)
    _guard_scalar(kernel, z)
    if kernel.size <= FSUM_MAX:
        shifted = z + kernel._g
        out = _fsum(kernel._c / shifted)
        dout = _fsum(-kernel._c / shifted**2)
    else:
        out, dout = _blocked_sums(kernel, z)
    if kernel.tail is not None:
        out = out + kernel.tail.value(z)
        dout = dout + kernel.tail.deriv(z)
    return out, dout


def _transform(kernel: ExponentialKernel, zeta, deriv: bool) -> complex | np.ndarray:
    z = np.asarray(zeta, dtype=complex)
    if z.ndim == 0 and kernel.size > FSUM_MAX:
        return laplace_with_deriv(kernel, complex(z))[deriv]
    shifted = z[..., None] + kernel._g
    if z.ndim == 0:
        _guard_scalar(kernel, complex(z))
    else:
        _guard_array(kernel, shifted)
    terms = -kernel._c / shifted**2 if deriv else kernel._c / shifted
    out = _fsum(terms) if z.ndim == 0 else np.sum(terms, axis=-1)
    if kernel.tail is not None:
        at = complex(z) if z.ndim == 0 else z
        out = out + (kernel.tail.deriv(at) if deriv else kernel.tail.value(at))
    return complex(out) if z.ndim == 0 else out


def laplace(kernel: ExponentialKernel, zeta) -> complex | np.ndarray:
    """Khat(zeta) = sum_k c_k / (zeta + g_k).

    Accepts a scalar or an ndarray of points.  A scalar on a ladder of at
    most FSUM_MAX (64) terms is summed exactly rounded (``math.fsum``); a
    scalar on a longer ladder takes the blocked real-arithmetic pass of
    :func:`laplace_with_deriv`, within about 1e-14 of the sum of the
    terms' moduli; an array of points is summed pairwise along the
    ladder.  Either way the error stays near machine precision for
    ladders of a few million terms.  An evaluation closer to a pole than
    POLE_GUARD_ULPS ulps of that pole's rate raises
    :class:`PoleProximityError`.  A kernel's far-pole series adds its
    share; beyond its radius it raises :class:`NumericalError` rather
    than extrapolate.
    """
    return _transform(kernel, zeta, deriv=False)


def laplace_deriv(kernel: ExponentialKernel, zeta) -> complex | np.ndarray:
    """d/dz Khat(z) = -sum_k c_k / (z + g_k)**2, far-pole series included.

    Summed as :func:`laplace` sums.
    """
    return _transform(kernel, zeta, deriv=True)


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


def materialize(family: PowerLawFamily, tail: TailSeries | None = None) -> ExponentialKernel:
    """Build the explicit truncated ladder for a power-law family.

    ``tail`` is attached as the kernel's far-pole series (see
    :func:`materialize_within`).
    """
    k = np.arange(1, family.count + 1, dtype=float)
    coeffs = family.amplitude / k**family.alpha
    rates = family.scale * k**family.beta
    return ExponentialKernel(coeffs, rates, tail)


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


#: terms of every tail series: with |z| at most half the first dropped rate,
#: term j is below 2**-j of the first, so the 60th is below 1e-18 relative
_TAIL_TERMS = 60

#: B_2i/(2i)! for i = 1..12: the weights of the Euler-Maclaurin corrections
#: closing each power sum
_EM_WEIGHTS = np.array([
    1 / 12,
    -1 / 720,
    1 / 30240,
    -1 / 1209600,
    1 / 47900160,
    -691 / 1307674368000,
    1 / 74724249600,
    -3617 / 10670622842880000,
    43867 / 5109094217170944000,
    -174611 / 802857662698291200000,
    854513 / 155112100433309859840000,
    -236364091 / 1693824136731743669452800000,
])
_EM_TERMS = _EM_WEIGHTS.size


def _power_sums(family: PowerLawFamily, lo: int, hi: float, radius: float) -> np.ndarray:
    """sum over lo <= k < hi of F_j(k), for j < _TAIL_TERMS.

    F_j(x) = x**-(alpha+beta) * (radius/g(x))**j with g(x) = scale*x**beta.
    ``hi`` may be ``math.inf``; every g_k of the range must be at least
    2*radius.  Below M = max(lo, 2*(s +
    2*_EM_TERMS)), s = alpha + _TAIL_TERMS*beta the largest exponent, the
    terms are summed directly.  [M, hi) is closed by Euler-Maclaurin: the
    integral of F_j and _EM_TERMS corrections at each end, each below
    (1/(4 pi))**2 of the one before.  F_j is always formed as written,
    never as (radius/scale)**j * x**-s_j, so nothing over- or underflows.
    The exponents less one, s_j - 1 = alpha + beta - 1 + j*beta, are
    formed without cancellation, and the integral over a finite range as
    M*F_j(M) * (1 - (M/hi)**(s_j - 1)) / (s_j - 1) through expm1 and
    log1p: so neither a range of a few poles nor alpha + beta near 1
    loses digits.
    """
    a, b, j = family.alpha, family.beta, np.arange(_TAIL_TERMS)
    s1 = math.fsum([a, b, -1.0]) + j * b
    even = np.arange(2.0, 2 * _EM_TERMS, 2.0)[:, None]

    def power(x: float) -> np.ndarray:  # F_j(x)
        xb = x**b  # x**-alpha/x**beta: a rounded alpha + beta would cost digits
        return x**-a / xb * (radius / (family.scale * xb)) ** j

    big = max(lo, math.ceil(2.0 * (a + _TAIL_TERMS * b + 2 * _EM_TERMS)))
    # smallest terms first, added one row at a time, so the sums stay within an ulp or two
    k = np.arange(min(big, hi) - 1, lo - 1, -1, dtype=float)
    out = np.add.reduce(power(k[:, None]), axis=0)
    if hi <= big:
        return out

    def end(x: float) -> np.ndarray:  # F_j(x) * (1/2 + sum_i w_i (s_j)_(2i-1) x**(1-2i))
        rising = np.empty((_EM_TERMS, _TAIL_TERMS))
        rising[0] = (s1 + 1.0) / x
        rising[1:] = (s1 + even) * (s1 + even + 1.0) / (x * x)
        return power(x) * (0.5 + _EM_WEIGHTS @ np.cumprod(rising, axis=0))

    if hi == math.inf:
        span = 1.0 / s1
        far = 0.0
    else:
        span = -np.expm1(-s1 * math.log1p((hi - big) / big)) / s1
        far = end(float(hi))
    return out + big * power(float(big)) * span + end(float(big)) - far


def tail_coefficients(family: PowerLawFamily, count: int, radius: float) -> tuple[float, ...]:
    """Series coefficients of the family's poles past ``count``.

    sum over k > count of c_k/(z + g_k) = sum_j t_j * (-z/radius)**j, where

        t_j = amplitude/scale * sum_{k > count} k**-(alpha+beta) * (radius/g_k)**j,

    a Hurwitz zeta sum in each j.  The series converges for |z| <
    g_{count+1}.  The sums are closed in double precision by
    Euler-Maclaurin (:func:`_power_sums`), each within a few ulps.
    """
    sums = _power_sums(family, count + 1, math.inf, radius)
    return tuple((family.amplitude / family.scale * sums).tolist())


def laplace_tail(family: PowerLawFamily, zeta: complex) -> complex:
    """Transform mass the truncation at ``family.count`` discarded.

    Evaluates sum over k > count of c_k/(zeta + g_k), so that
    ``laplace(materialize(family), z) + laplace_tail(family, z)`` is the
    transform of the *infinite* ladder.  Expanding each term geometrically
    in zeta/g_k turns the sum into the power series of
    :func:`tail_coefficients`; it converges for |zeta| < g_{count+1} and we
    require a factor-two margin so sixty terms reach full double
    precision.  This is how a finite machine answers questions about the
    infinite kernel: materialize rates past the window of interest and
    close the remainder analytically.
    """
    zeta = complex(zeta)
    first_dropped = family.scale * (family.count + 1) ** family.beta
    if abs(zeta) >= 0.5 * first_dropped:
        raise ValueError(
            f"|zeta| = {abs(zeta):.3e} is not below half the first dropped "
            f"rate {first_dropped:.3e}; increase the family count"
        )
    radius = 0.5 * first_dropped
    series = TailSeries(tail_coefficients(family, family.count, radius), radius)
    return complex(series.value(zeta))


def _head_size(family: PowerLawFamily, radius: float) -> int:
    """Terms summed explicitly for |z| <= radius.

    The smallest m with g_{m+1} >= 2*radius, or ``count`` when that m
    reaches it or when the family has at most FSUM_MAX terms: a ladder
    that short costs no more to sum whole than to split off a series.
    """
    need = 2.0 * radius
    if family.count <= FSUM_MAX:
        return family.count
    if math.log(need / family.scale) / family.beta > math.log(family.count):
        return family.count
    m = max(1, math.ceil((need / family.scale) ** (1.0 / family.beta)) - 1)
    while family.scale * (m + 1) ** family.beta < need:
        m += 1
    while m > 1 and family.scale * m**family.beta >= need:
        m -= 1
    return min(m, family.count)


def materialize_within_each(family: PowerLawFamily, radii) -> list[ExponentialKernel]:
    """:func:`materialize_within` for every radius, built together.

    Each kernel sums its own head (:func:`_head_size` of its radius) and
    carries the series of the poles past it, valid on its own radius:
    for head m < count, amplitude/scale times the power sums over
    m < k <= count (:func:`_power_sums`), closed in double at a cost that
    does not grow with the number of poles.  The largest head is
    materialized once and the heads are its prefixes.
    """
    heads = {r: _head_size(family, r) for r in radii}
    top = materialize(replace(family, count=max(heads.values())))
    front = family.amplitude / family.scale
    built = {}
    for r, m in heads.items():
        tail = None
        if m < family.count:
            sums = _power_sums(family, m + 1, family.count + 1, r)
            tail = TailSeries(tuple((front * sums).tolist()), r)
        built[r] = top.head(m, tail)
    return [built[r] for r in radii]


def materialize_within(family: PowerLawFamily, radius: float) -> ExponentialKernel:
    """A kernel with the family's transform on |z| <= radius.

    The explicit ladder stops at the smallest m with g_{m+1} >= 2*radius,
    and the poles m < k <= count ride along as a :class:`TailSeries`
    whose coefficients are closed in double (:func:`_power_sums`).  Summing m
    terms instead of ``count`` is what makes pair-only work on long
    ladders cheap.  When m reaches ``count``, or the family has at most
    FSUM_MAX terms, the whole ladder is materialized, exactly as
    :func:`materialize` does.  A family sweep builds one such kernel per
    mode, each with its own head (:func:`materialize_within_each`).
    """
    return materialize_within_each(family, [radius])[0]


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
