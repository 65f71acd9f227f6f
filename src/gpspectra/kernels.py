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

#: tolerance of the order-one continuum integrals: a decade below the 1e-9
#: their closed forms are checked to, far below their O(1/|z|) gap to a ladder
QUAD_TOL = 1e-10

#: largest ladder whose transform at one point is summed exactly rounded:
#: about where the blocked pass becomes the faster one (both take about
#: 18 us at 64 terms; at 256 terms math.fsum takes 2.7 times as long)
FSUM_MAX = 64

#: ladder terms per block of the scalar pass over longer ladders: each of
#: its four temporaries is 64 KiB, under glibc's 128 KiB mmap threshold, so
#: blocks reuse heap memory and stay in cache; and OpenBLAS runs a dot
#: product on one thread up to 10000 terms, so the sums do not depend on
#: its thread count
SUM_BLOCK = 8192

_EPS = math.ulp(1.0)


def _horner(coeffs, x):
    """sum_j coeffs[j] * x**j."""
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
    It is evaluated at one point at a time.

    ``error`` bounds |value(z) - far(z)| and |deriv(z) - far'(z)| on
    |z| <= radius, far being the exact sum over the poles.  With N terms,
    c0 = coeffs[0] = sum c/g and every g >= 2*radius, coeffs[j] <= 2**-j*c0,
    so the terms left off cost at most 2**(1-N)*c0 in the value and
    (N + 1)*2**(1-N)*c0/radius in the slope (proven).  Horner's rule on a
    point |x| <= 1, each step a complex product and a real sum, stays
    within 2N*eps times the sum of the coefficients it reads (proven).  A
    further 64*eps times that sum covers the rounding of the argument and
    of the slope coefficients, and the coefficients' own error: each is a
    power sum closed by Euler-Maclaurin (:func:`_power_sums`), within a few
    ulps, a figure stated and checked against long-double sums over the
    poles on a sample of families, radii and points, not proven.  So
    error = (2**(1-N)*c0 + (2N + 64)*eps*sum(coeffs),
    ((N + 1)*2**(1-N)*c0 + (2N + 64)*eps*sum(j*coeffs[j]))/radius).
    """

    coeffs: tuple[float, ...]
    radius: float

    def _argument(self, zeta: complex) -> complex:
        if abs(zeta) > self.radius:
            raise NumericalError(
                f"|z| = {abs(zeta):.6e} lies outside the far-pole "
                f"series radius {self.radius:.6e}"
            )
        return -zeta / self.radius

    @cached_property
    def _slopes(self) -> tuple[float, ...]:
        """j * coeffs[j] for j >= 1: the series of the derivative in -z/radius."""
        return tuple(j * u for j, u in enumerate(self.coeffs))[1:]

    def value(self, zeta: complex) -> complex:
        """The far poles' share of Khat(zeta)."""
        return _horner(self.coeffs, self._argument(zeta))

    def deriv(self, zeta: complex) -> complex:
        """The far poles' share of Khat'(zeta)."""
        return _horner(self._slopes, self._argument(zeta)) / -self.radius

    @cached_property
    def error(self) -> tuple[float, float]:
        """Bounds on the errors of :meth:`value` and :meth:`deriv` on |z| <= radius (see the class)."""
        n, top = len(self.coeffs), self.coeffs[0]
        rounding = (2 * n + 64) * _EPS
        return (
            math.ldexp(top, 1 - n) + rounding * math.fsum(self.coeffs),
            (math.ldexp((n + 1) * top, 1 - n) + rounding * math.fsum(self._slopes)) / self.radius,
        )


def _check_ladder(c: np.ndarray, g: np.ndarray) -> None:
    """Raise ValueError unless ``c`` and ``g`` make a ladder.

    That is: two 1-d float arrays of one nonzero length, every c_k
    finite and positive, the g_k finite, positive and strictly
    increasing.  ``max`` carries a NaN through, so a NaN reads as not
    finite.
    """
    if c.ndim != 1 or c.size == 0:
        raise ValueError("kernel needs at least one term")
    if c.shape != g.shape:
        raise ValueError(f"{c.size} coefficients vs {g.size} rates")
    if not math.isfinite(c.max()):
        raise ValueError("coefficients must be finite")
    if not c.min() > 0:
        raise ValueError("coefficients must be strictly positive")
    if not math.isfinite(g.max()):
        raise ValueError("rates must be finite")
    if not g.min() > 0:
        raise ValueError("rates must be strictly positive")
    if not np.all(g[1:] > g[:-1]):
        raise ValueError("rates must be strictly increasing")


class ExponentialKernel:
    """Finite ladder of decaying exponentials, immutable.

    Parameters
    ----------
    coeffs : sequence or array of float
        Positive amplitudes c_k.
    rates : sequence or array of float
        Positive, strictly increasing decay rates g_k, same length as coeffs.

    The kernel is its whole ladder: every pole is one of its terms.  The
    ladder is held as two read-only float arrays, ``_c`` and ``_g``,
    which every evaluation uses; equality and hashing go by their bytes.
    The ``coeffs`` and ``rates`` tuples are built on first use, for the
    Python loops that read them.
    """

    def __init__(self, coeffs, rates):
        self._hold(np.array(coeffs, dtype=float), np.array(rates, dtype=float))

    @classmethod
    def _adopt(cls, c: np.ndarray, g: np.ndarray) -> ExponentialKernel:
        """A kernel on the float arrays ``c`` and ``g`` themselves, not copies.

        For builders that made both arrays and keep no other reference:
        they are validated as the constructor validates its copies, then
        made read-only.
        """
        out = object.__new__(cls)
        out._hold(c, g)
        return out

    def _hold(self, c: np.ndarray, g: np.ndarray) -> None:
        _check_ladder(c, g)
        c.flags.writeable = g.flags.writeable = False
        self.__dict__.update(_c=c, _g=g)

    def head(self, size: int) -> ExponentialKernel:
        """The kernel of the first ``size`` terms.

        Shares this kernel's arrays, which are already validated.
        """
        if not 1 <= size <= self.size:
            raise ValueError(f"head size {size} outside 1..{self.size}")
        out = object.__new__(ExponentialKernel)
        out.__dict__.update(_c=self._c[:size], _g=self._g[:size])
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if not isinstance(other, ExponentialKernel):
            return NotImplemented
        return self._c.tobytes() == other._c.tobytes() and self._g.tobytes() == other._g.tobytes()

    @cached_property
    def _hash(self) -> int:
        return hash((self._c.tobytes(), self._g.tobytes()))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"ExponentialKernel(coeffs={self._c!r}, rates={self._g!r})"

    @cached_property
    def coeffs(self) -> tuple[float, ...]:
        return tuple(self._c.tolist())

    @cached_property
    def rates(self) -> tuple[float, ...]:
        return tuple(self._g.tolist())

    @property
    def size(self) -> int:
        return self._c.size

    @cached_property
    def l1_norm(self) -> float:
        """Integral of K over (0, inf): sum c_k / g_k.  Also Khat(0)."""
        return math.fsum((self._c / self._g).tolist())

    @cached_property
    def initial_value(self) -> float:
        """K(0) = sum c_k (may be large for near-singular kernels)."""
        return math.fsum(self._c.tolist())


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


def _blocked_sums(kernel: ExponentialKernel, z: complex) -> tuple[complex, complex, float, float]:
    """:func:`laplace_pass` over a longer ladder, in real arithmetic.

    With x = g + Re z, y = Im z and u = c/(x**2 + y**2) = c/|z + g|**2,
    each term is c/(z + g) = u*x - i*u*y and -c/(z + g)**2 =
    -u*(x**2 - y**2)/|z + g|**2 + 2i*u*x*y/|z + g|**2.  So u is formed
    once per block and the four sums sum(u*x), sum(u) (which is s2),
    sum(u*(x**2 - y**2)/|z + g|**2) and sum(u*(x*y)/|z + g|**2) are read
    off it, three of them as dot products.  Both ratios lie in [-1, 1], so
    every product summed stays within c/|z + g|**2 (or c/|z + g| for u*x),
    and x**2 - y**2 is formed per term, not as a difference of two sums.
    Since |x| <= x + 2*max(0, -Re z), s1 = sum(u*x) + (2*max(0, -Re z) +
    |y|)*s2 >= sum u*(|x| + |y|) >= sum c/|z + g|.  Where the largest of
    |Re z|, |Im z| and the last rate reaches 2**256, z and the rates are
    first scaled by a power of two, which is exact, to bring it below 1.
    So x**2 + y**2 stays below 2**515 and u stays a normal double for
    every c above 2**-507, while 1/|z + g|**2 stays finite until |z + g|
    nears 2**-512.  The ladder is summed SUM_BLOCK terms at a time, 13
    numpy calls per block, and the block sums are added in order.
    """
    g, scale = kernel._g, 1.0
    top = max(abs(z.real), abs(z.imag), float(kernel._g[-1]))
    if top >= 2.0**256:
        scale = 2.0 ** -math.frexp(top)[1]
        g, z = g * scale, z * scale
    x0, y = z.real, z.imag
    y2 = y * y
    s_x = s_u = s_t = s_d = 0.0
    for lo in range(0, kernel.size, SUM_BLOCK):
        c = kernel._c[lo : lo + SUM_BLOCK]
        x = g[lo : lo + SUM_BLOCK] + x0
        t = x * x
        q = t + y2
        np.reciprocal(q, out=q)  # 1/|z + g|**2
        u = c * q
        s_x += np.dot(u, x)
        s_u += u.sum()
        t -= y2
        t *= q  # (x**2 - y**2)/|z + g|**2
        s_t += np.dot(u, t)
        x *= y
        x *= q  # x*y/|z + g|**2
        s_d += np.dot(u, x)
    s1, s2 = float((s_x + (2.0 * max(0.0, -x0) + abs(y)) * s_u) * scale), float(s_u * scale * scale)
    return complex(s_x * scale, -y * s_u * scale), complex(-s_t * scale * scale, 2.0 * s_d * scale * scale), s1, s2


def laplace_pass(
    kernel: ExponentialKernel, zeta: complex, tail: TailSeries | None = None
) -> tuple[complex, complex, float, float, float, float]:
    """(Khat, Khat', s1, s2, error, deriv_error) at one point, from one pass over the ladder.

    s2 = sum c/|z + g|**2 and s1 >= sum c/|z + g| bound the rounding of
    the first two, whose terms lie within 4 eps of c/|z + g| and 8 eps of
    c/|z + g|**2.  Ladders of at most FSUM_MAX (64) terms form the terms
    c/(z + g) and, from each of them, -(c/(z + g))/(z + g), which never
    squares z + g and so stays finite where that square would overflow;
    both sums are exactly rounded, s1 and s2 sum their moduli.  Longer
    ladders are summed in real arithmetic (:func:`_blocked_sums`).

    When ``kernel`` is the head of a family ladder, ``tail`` is the series
    of its far poles, and this is the one place they join the pass: their
    value and slope are added as one more term each, their shares of s1
    and s2 are bounded by 2*coeffs[0] and 4*coeffs[1]/radius (each far
    pole has g >= 2*radius and |z| <= radius, so |z + g| >= g/2), and the
    series' own ``error`` is the last two values, which are 0 without it.
    """
    z = complex(zeta)
    _guard_scalar(kernel, z)
    if kernel.size <= FSUM_MAX:
        shifted = z + kernel._g
        terms = kernel._c / shifted
        slopes = -terms / shifted
        khat, dkhat = _fsum(terms), _fsum(slopes)
        s1, s2 = math.fsum(np.abs(terms).tolist()), math.fsum(np.abs(slopes).tolist())
    else:
        khat, dkhat, s1, s2 = _blocked_sums(kernel, z)
    if tail is None:
        return khat, dkhat, s1, s2, 0.0, 0.0
    return (
        khat + tail.value(z),
        dkhat + tail.deriv(z),
        s1 + 2.0 * tail.coeffs[0],
        s2 + 4.0 * tail.coeffs[1] / tail.radius,
        *tail.error,
    )


def laplace_with_deriv(kernel: ExponentialKernel, zeta: complex) -> tuple[complex, complex]:
    """(Khat(zeta), Khat'(zeta)): :func:`laplace_pass` without its magnitudes."""
    return laplace_pass(kernel, zeta)[:2]


def laplace(kernel: ExponentialKernel, zeta) -> complex | np.ndarray:
    """Khat(zeta) = sum_k c_k / (zeta + g_k).

    Accepts a scalar or an ndarray of points.  A scalar point is the
    first of :func:`laplace_pass`, pole guard included.  An array of
    points is summed pairwise along the ladder.  Either way the error
    stays near machine precision for ladders of a few million terms.  An
    evaluation closer to a pole than POLE_GUARD_ULPS ulps of that pole's
    rate raises :class:`PoleProximityError`.
    """
    z = np.asarray(zeta, dtype=complex)
    if z.ndim == 0:
        return laplace_with_deriv(kernel, complex(z))[0]
    shifted = z[..., None] + kernel._g
    _guard_array(kernel, shifted)
    return np.sum(kernel._c / shifted, axis=-1)


def laplace_deriv(kernel: ExponentialKernel, zeta: complex) -> complex:
    """d/dz Khat(z) = -sum_k c_k / (z + g_k)**2 at one point: the second of :func:`laplace_pass`."""
    return laplace_with_deriv(kernel, zeta)[1]


@dataclass(frozen=True)
class PowerLawFamily:
    """Kernel family c_k = amplitude/k**alpha, g_k = scale*k**beta.

    Constraints: amplitude, scale, beta > 0 and finite; 0 < alpha <= 1;
    alpha + beta > 1; the largest rate scale*count**beta and the first
    memory term amplitude/scale finite.
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
        if not (math.isfinite(self.amplitude) and math.isfinite(self.scale)):
            raise ValueError("amplitude and scale must be finite")
        if not (0 < self.alpha <= 1):
            raise ValueError("alpha must lie in (0, 1]")
        if not (0 < self.beta < math.inf):
            raise ValueError("beta must be positive and finite")
        if not (self.alpha + self.beta > 1):
            raise ValueError("alpha + beta must exceed 1")
        if not (isinstance(self.count, int) and self.count >= 1):
            raise ValueError("count must be a positive integer")
        # the largest rate as materialize forms it; Python's float power
        # raises OverflowError where numpy's would warn and give inf
        try:
            largest = float(self.count) ** self.beta * self.scale
        except OverflowError:
            largest = math.inf
        if not math.isfinite(largest):
            raise ValueError("the largest rate scale * count**beta must be finite")
        if not math.isfinite(self.amplitude / self.scale):
            raise ValueError("the first memory term amplitude/scale must be finite")

    @property
    def regularity(self) -> float:
        """r = (alpha + beta - 1)/beta in (0, 1]; exactly 1 when alpha == 1."""
        if self.alpha == 1.0:
            return 1.0
        return (self.alpha + self.beta - 1.0) / self.beta


def materialize(family: PowerLawFamily) -> ExponentialKernel:
    """Build the explicit truncated ladder for a power-law family.

    Only the two result arrays are allocated: the coefficients are
    amplitude/k**alpha, divided in place, and the rates are k = 1..count
    raised to beta and scaled in place, so each equals the plain
    expression bit for bit.  The kernel holds these arrays themselves,
    read-only, without the copy the constructor makes of its inputs.
    """
    rates = np.arange(1, family.count + 1, dtype=float)  # k, until scaled below
    coeffs = rates**family.alpha
    np.divide(family.amplitude, coeffs, out=coeffs)
    rates **= family.beta
    rates *= family.scale
    return ExponentialKernel._adopt(coeffs, rates)


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


def _far_poles(family: PowerLawFamily, lo: int, hi: float, radius: float) -> TailSeries:
    """The :class:`TailSeries` of the family's poles lo <= k < hi on |z| <= radius.

    Its coefficients are amplitude/scale times the power sums of that
    range (:func:`_power_sums`); ``hi`` may be ``math.inf``.
    """
    sums = _power_sums(family, lo, hi, radius)
    return TailSeries(tuple((family.amplitude / family.scale * sums).tolist()), radius)


def laplace_tail(family: PowerLawFamily, zeta: complex) -> complex:
    """Transform mass the truncation at ``family.count`` discarded.

    Evaluates sum over k > count of c_k/(zeta + g_k), so that
    ``laplace(materialize(family), z) + laplace_tail(family, z)`` is the
    transform of the *infinite* ladder.  Expanding each term geometrically
    in zeta/g_k turns the sum into the power series
    sum_j t_j * (-zeta/radius)**j, where

        t_j = amplitude/scale * sum_{k > count} k**-(alpha+beta) * (radius/g_k)**j,

    a Hurwitz zeta sum in each j, closed in double precision by
    Euler-Maclaurin (:func:`_power_sums`), each within a few ulps.  The
    series converges for |zeta| < g_{count+1}, and radius = g_{count+1}/2
    leaves a factor-two margin, so sixty terms reach full double
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
    series = _far_poles(family, family.count + 1, math.inf, 0.5 * first_dropped)
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


def materialize_within_each(
    family: PowerLawFamily, radii
) -> list[tuple[ExponentialKernel, TailSeries | None]]:
    """For each radius, a (head, series) pair with the family's transform on |z| <= radius.

    The head is the ladder of the first m terms, m the smallest with
    g_{m+1} >= 2*radius (:func:`_head_size`); it is an ordinary kernel,
    equal to ``materialize`` of the family cut to m terms.  The series
    sums the poles m < k <= count as a :class:`TailSeries` valid on that
    radius (:func:`_far_poles`), closed in double at a cost that does not
    grow with their number, so on |z| <= radius the family's transform is
    ``laplace(head, z) + series.value(z)``.  Summing m terms instead of
    ``count`` is what makes pair-only work on long ladders cheap.  When m
    reaches ``count``, or the family has at most FSUM_MAX terms, the head
    is the whole ladder, exactly as :func:`materialize` builds it, and
    the series is None.  The largest head is materialized once and the
    heads are its prefixes.  For one radius r, take
    ``materialize_within_each(family, [r])[0]``.
    """
    heads = {r: _head_size(family, r) for r in radii}
    top = materialize(replace(family, count=max(heads.values())))
    built = {}
    for r, m in heads.items():
        tail = _far_poles(family, m + 1, family.count + 1, r) if m < family.count else None
        built[r] = (top.head(m), tail)
    return [built[r] for r in radii]


def _check_arg(zeta: complex) -> None:
    if zeta == 0:
        raise ValueError("transform is singular at zero")
    if abs(np.angle(zeta)) >= np.pi - ARG_MARGIN:
        raise ValueError(
            f"argument {np.angle(zeta):.3f} rad is within {ARG_MARGIN} of the "
            "negative real axis where the transform has its singularities"
        )


def continuum_laplace(family: PowerLawFamily, zeta: complex) -> complex:
    """Continuum companion of the ladder transform.

    Computes h(z) = integral over t in [1, inf) of
    amplitude * dt / (t**alpha * (z + scale*t**beta)).  After the
    substitutions u = t**beta and s = u**(-r) this is

        (amplitude/(beta*r)) * integral_{0}^{1} ds / (scale + z*s**(1/r)),

    which the adaptive panels handle uniformly in z.
    """
    zeta = complex(zeta)
    _check_arg(zeta)
    r = family.regularity

    def integrand(s: np.ndarray) -> np.ndarray:
        return 1.0 / (family.scale + zeta * s ** (1.0 / r))

    value = integrate(integrand, 0.0, 1.0, tol=QUAD_TOL)
    return family.amplitude / (family.beta * r) * value


def angular_integral(r: float, phi: float) -> complex:
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
    head = integrate_power_weighted(lambda t: 1.0 / (w + t), -r, tol=QUAD_TOL)
    tail = integrate_power_weighted(lambda v: 1.0 / (1.0 + w * v), r - 1.0, tol=QUAD_TOL)
    return head + tail


def laplace_asymptotic(family: PowerLawFamily, zeta: complex) -> complex:
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
    return front * angular_integral(r, float(np.angle(zeta)))
