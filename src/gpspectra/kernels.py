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

import cmath
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import NumericalError, PoleProximityError
from .quadrature import _GAUSS_NODES, _GAUSS_WEIGHTS, integrate, integrate_power_weighted

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
    kernel: ExponentialKernel, zeta: complex, ends: EndCorrections | None = None
) -> tuple[complex, complex, float, float, float, float]:
    """(Khat, Khat', s1, s2, error, deriv_error) at one point, from one pass over the ladder.

    s2 = sum c/|z + g|**2 and s1 >= sum c/|z + g| bound the rounding of
    the first two, whose terms lie within 4 eps of c/|z + g| and 8 eps of
    c/|z + g|**2.  Ladders of at most FSUM_MAX (64) terms form the terms
    c/(z + g) and, from each of them, -(c/(z + g))/(z + g), which never
    squares z + g and so stays finite where that square would overflow;
    both sums are exactly rounded, s1 and s2 sum their moduli.  Longer
    ladders are summed in real arithmetic (:func:`_blocked_sums`).

    When ``kernel`` is a family's pseudo-ladder, ``ends`` are its end
    corrections (:func:`pseudo_ladder`), and this is the one place they
    join the pass: :meth:`EndCorrections.join` adds their value and slope,
    their shares of s1 and s2, and the bound on what the pseudo-ladder
    and its corrections still miss, which is the last two values, 0
    without them.
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
    if ends is None:
        return khat, dkhat, s1, s2, 0.0, 0.0
    return ends.join(z, khat, dkhat, s1, s2)


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
        if isinstance(self.count, bool) or not (isinstance(self.count, int) and self.count >= 1):
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
    shifts the oscillatory spectrum.  Requires alpha + moment*beta > 1
    and a positive integer count.
    """
    if isinstance(count, bool) or not (isinstance(count, int) and count >= 1):
        raise ValueError(f"count must be a positive integer, not {count!r}")
    p = family.alpha + moment * family.beta - 1.0
    if p <= 0:
        raise ValueError("tail sum diverges for this family/moment")
    return family.amplitude / (family.scale**moment * p * count**p)


#: terms of every tail series: with |z| at most half the first dropped rate,
#: term j is below 2**-j of the first, so the 60th is below 1e-18 relative
_TAIL_TERMS = 60

#: B_2i/(2i)! for i = 1..12: the weights of the Euler-Maclaurin corrections
#: closing each power sum, and, the first four, a pseudo-ladder's ends
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


def _power_sums(family: PowerLawFamily, lo: int, radius: float) -> np.ndarray:
    """sum over k >= lo of F_j(k), for j < _TAIL_TERMS.

    F_j(x) = x**-(alpha+beta) * (radius/g(x))**j with g(x) = scale*x**beta;
    every g_k with k >= lo must be at least 2*radius.  Below M = max(lo,
    2*(s + 2*_EM_TERMS)), s = alpha + _TAIL_TERMS*beta the largest
    exponent, the terms are summed directly.  [M, inf) is closed by
    Euler-Maclaurin: the integral of F_j, M*F_j(M)/(s_j - 1), and
    _EM_TERMS corrections at M, each below (1/(4 pi))**2 of the one
    before.  F_j is always formed as written, never as (radius/scale)**j
    * x**-s_j, so nothing over- or underflows.  The exponents less one,
    s_j - 1 = alpha + beta - 1 + j*beta, are formed without cancellation,
    so alpha + beta near 1 loses no digits.
    """
    a, b, j = family.alpha, family.beta, np.arange(_TAIL_TERMS)
    s1 = math.fsum([a, b, -1.0]) + j * b
    even = np.arange(2.0, 2 * _EM_TERMS, 2.0)[:, None]

    def power(x: float) -> np.ndarray:  # F_j(x)
        xb = x**b  # x**-alpha/x**beta: a rounded alpha + beta would cost digits
        return x**-a / xb * (radius / (family.scale * xb)) ** j

    big = max(lo, math.ceil(2.0 * (a + _TAIL_TERMS * b + 2 * _EM_TERMS)))
    # smallest terms first, added one row at a time, so the sums stay within an ulp or two
    k = np.arange(big - 1, lo - 1, -1, dtype=float)
    out = np.add.reduce(power(k[:, None]), axis=0)
    # F_j(M) * (1/2 + sum_i w_i (s_j)_(2i-1) M**(1-2i)): the corrections at M
    rising = np.empty((_EM_TERMS, _TAIL_TERMS))
    rising[0] = (s1 + 1.0) / big
    rising[1:] = (s1 + even) * (s1 + even + 1.0) / (big * big)
    end = power(float(big)) * (0.5 + _EM_WEIGHTS @ np.cumprod(rising, axis=0))
    return out + big * power(float(big)) * (1.0 / s1) + end


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
    close the remainder analytically.  A first dropped rate past the
    double range is refused, as is a zeta too far out for the series.
    """
    zeta = complex(zeta)
    try:
        first_dropped = family.scale * float(family.count + 1) ** family.beta
    except OverflowError:
        first_dropped = math.inf
    if not math.isfinite(first_dropped):
        raise ValueError(
            f"the first dropped rate scale*(count + 1)**beta = {family.scale!r}*"
            f"{family.count + 1}**{family.beta!r} is past the double range"
        )
    if abs(zeta) >= 0.5 * first_dropped:
        raise ValueError(
            f"|zeta| = {abs(zeta):.3e} is not below half the first dropped "
            f"rate {first_dropped:.3e}; increase the family count"
        )
    radius = 0.5 * first_dropped
    sums = _power_sums(family, family.count + 1, radius)
    return complex(_horner((family.amplitude / family.scale * sums).tolist(), -zeta / radius))


#: Gauss-Legendre panels of a pseudo-ladder are at most this wide in
#: beta*ln(x): in u = ln(x) the integrand's poles lie at Im u =
#: (arg(-z) + 2*pi*k)/beta, so a width in beta*u keeps them as many
#: panel widths away whatever beta is, and the 12-point rule then reaches
#: double precision
PANEL_WIDTH = 0.6

#: Euler-Maclaurin corrections at each end of a pseudo-ladder, of orders
#: 1, 3, 5 and 7; the remainder after them integrates f^(8) against a
#: periodic Bernoulli function bounded by |B_8|
_END_TERMS = 4
_END_ORDER = 2 * _END_TERMS
_END_BERNOULLI = abs(float(_EM_WEIGHTS[_END_TERMS - 1])) * math.factorial(_END_ORDER)

#: a pass whose pseudo-ladder bound exceeds this share of s1, or of s2
#: for the slope, is refused: the residual target, RESIDUAL_TOL
ENDS_TOL = 1e-10


def _sector_distance(r: float, phi: float, spread: float) -> float:
    """Distance from a point of modulus ``r`` and |arg| ``phi`` to the sector |arg w| <= ``spread``."""
    return r * math.sin(min(phi - spread, 0.5 * math.pi)) if phi > spread else 0.0


@dataclass(frozen=True, eq=False)
class EndCorrections:
    """What a family's pseudo-ladder leaves out of its transform, and a bound on the rest.

    With X0 = FSUM_MAX, f(x) = c(x)/(z + g(x)), c(x) = amplitude*x**-alpha
    and g(x) = scale*x**beta, a family of N terms sums to its first
    X0 - 1 poles plus sum_{k=X0}^{N} f(k).  Euler-Maclaurin turns that sum
    into the integral of f over [X0, N], the halves f(X0)/2 and f(N)/2,
    the corrections C(N) - C(X0), C(x0) = sum_{i<=4} B_2i/(2i)! *
    f^(2i-1)(x0), and a remainder.  The pseudo-ladder (:func:`pseudo_ladder`)
    holds the first poles, the halves as poles and the integral as
    Gauss-Legendre poles; these are the corrections.  With s = x/x0 - 1,
    v = 1/(z + g(x0)) and nu = g(x0)*v,

        f = c(x0)*v*(1 + s)**-alpha / (1 + nu*((1 + s)**beta - 1)),

    so C(x0) = c(x0)*v*Q(nu) and C'(x0) = -c(x0)*v**2*R(nu), R = (nu*Q)',
    Q a real polynomial of degree 7 built once by Taylor arithmetic on the
    binomial series.  ``ends`` holds (sign, c(x0), g(x0), Q, R), ascending
    in nu, at X0 (sign -1) and N (sign +1).

    The bound at z, with phi = |arg(-z)| and psi = max(phi, pi/4)/2:

    - Gauss-Legendre (proven).  In u = ln(x) the integrand
      F(u) = amplitude*e^((1-alpha)u)/(z + scale*e^(beta*u)) has poles
      only at Im u = (arg(-z) + 2*pi*k)/beta.  Take each panel's Bernstein
      ellipse with semi-minor axis b = min(psi/beta, 64*h), h the panel's
      half-width, so rho = b/h + sqrt(1 + (b/h)**2) and the semi-major axis
      is e = sqrt(b**2 + h**2).  On it scale*e^(beta*u) lies in the sector
      |arg| <= beta*b <= psi with modulus at least scale*e^(beta*(m - e)),
      m the panel's midpoint.  So |z + g| >= D = max(distance from -z to
      that sector, scale*e^(beta*(m - e)) - |z|), and |F| <=
      amplitude*e^((1-alpha)*(m + e))/D, as 1 - alpha >= 0.  The 12-point
      rule then errs by at most 64*h*max|F|/(15*(rho**2 - 1)*rho**24)
      (Trefethen, Approximation Theory and Approximation Practice, Thm
      19.3), and the slope's rule with D**2 for D.
    - The Euler-Maclaurin remainder (proven) is at most |B_8|/8! times
      the integral of |f^(8)| over [X0, N].  Take the disc of radius
      theta*x about each x >= X0, theta = sin(min(pi/6, psi/beta)).  On
      it |c| <= amplitude*((1 - theta)*x)**-alpha, and g lies in the
      sector |arg| <= beta*asin(theta) <= psi with modulus at least
      scale*((1 - theta)*X0)**beta, so |z + g| >= D as above.  Cauchy's
      estimate then integrates to
      |B_8|*amplitude*(1 - theta)**-alpha * X0**-(7 + alpha) /
      (theta**8*(7 + alpha)*D), and the slope's with D**2.
    - Rounding (stated and sampled, not proven).  Each pseudo-pole's
      weight and rate are taken to lie within dw = 16 eps and dg = 8 eps,
      relative, of their exact values at its node, the first X0 - 1
      poles included: a node is x_p*e^(h*(1 + t)), x_p a panel's end, so
      its ln(x) is off by a few eps, not eps*ln(x).  That moves the
      transform by at most dw*s1 + dg*(s1 + |z|*s2), as g/|z + g| <=
      1 + |z|/|z + g|, and the slope by at most
      dw*s2 + 2*dg*s2*(1 + |z|/|Im z|), as |z + g| >= |Im z|.  The
      corrections' own rounding is taken as 64 eps of their size.

    ``panel_size`` and ``panel_rate`` hold amplitude*e^((1-alpha)*m) and
    scale*e^(beta*m) at each panel's midpoint m, and ``half`` is the
    largest half-width h, which the bound takes for every panel: a
    wider panel's ellipse holds a narrower one's, with a smaller rho.
    """

    family: PowerLawFamily
    ends: tuple[tuple[float, float, float, tuple[float, ...], tuple[float, ...]], ...]
    half: float
    panel_size: np.ndarray
    panel_rate: np.ndarray

    @cached_property
    def load_share(self) -> float:
        """The corrections at z = 0: their share of the family's norm sum c/g."""
        return math.fsum(sign * c0 / g0 * _horner(q, 1.0) for sign, c0, g0, q, _ in self.ends)

    def bound(self, z: complex, s1: float, s2: float) -> tuple[float, float]:
        """Bounds on what the pseudo-ladder and the corrections miss of Khat and Khat' at z (see the class).

        ``s1`` and ``s2`` are the pseudo-ladder's own, from its pass at z.
        A bound that cannot be formed is infinite: where -z lies in a
        sector and the moduli do not keep it off, or on the real axis,
        where :meth:`join` cannot widen s2.
        """
        fam, r = self.family, abs(z)
        alpha, beta = fam.alpha, fam.beta
        phi = abs(cmath.phase(-z))
        psi = 0.5 * max(phi, 0.25 * math.pi)
        ratio = min(psi / (beta * self.half), 64.0)
        rho, reach = ratio + math.hypot(ratio, 1.0), self.half * math.hypot(ratio, 1.0)
        # panels from ``split`` on have scale*e^(beta*(m - e)) >= 2|z|, so D
        # is at least half that; the ones before at least their first's D
        rates, below, above, above2 = self._panel_sums
        shrink = math.exp(-beta * reach)
        split = bisect_left(rates, 2.0 * r / shrink)
        low = max(_sector_distance(r, phi, beta * ratio * self.half), rates[0] * shrink - r)
        theta = math.sin(min(math.pi / 6.0, psi / beta))
        x_dist = max(
            _sector_distance(r, phi, beta * math.asin(theta)),
            fam.scale * ((1.0 - theta) * FSUM_MAX) ** beta - r,
        )
        if not ((low > 0.0 or split == 0) and x_dist > 0.0 and z.imag != 0.0):
            return math.inf, math.inf
        rule = 64.0 * self.half * math.exp((1.0 - alpha) * reach)
        rule /= 15.0 * (rho * rho - 1.0) * rho ** (2 * _GAUSS_NODES.size)
        near = below[split] / low if split else 0.0
        gl = rule * (near + 2.0 * above[split] / shrink)
        gl_slope = rule * (near / low if split else 0.0) + rule * 4.0 * above2[split] / (shrink * shrink)
        em = _END_BERNOULLI * fam.amplitude * (1.0 - theta) ** -alpha * FSUM_MAX ** (1.0 - alpha - _END_ORDER)
        em /= theta**_END_ORDER * (_END_ORDER - 1.0 + alpha) * x_dist
        dw, dg = 16.0 * _EPS, 8.0 * _EPS
        return (
            gl + em + dw * s1 + dg * (s1 + r * s2),
            gl_slope + em / x_dist + (dw + 2.0 * dg * (1.0 + r / abs(z.imag))) * s2,
        )

    @cached_property
    def _panel_sums(self) -> tuple[list[float], list[float], list[float], list[float]]:
        """Panel rates, the sums of sizes below each panel, and of size/rate and size/rate**2 from it on."""
        size, rate = self.panel_size, self.panel_rate
        below = np.concatenate(([0.0], np.cumsum(size)))
        above = np.concatenate((np.cumsum((size / rate)[::-1])[::-1], [0.0]))
        above2 = np.concatenate((np.cumsum((size / rate**2)[::-1])[::-1], [0.0]))
        return rate.tolist(), below.tolist(), above.tolist(), above2.tolist()

    def join(
        self, z: complex, khat: complex, dkhat: complex, s1: float, s2: float
    ) -> tuple[complex, complex, float, float, float, float]:
        """A :func:`laplace_pass` over the pseudo-ladder, completed to the family's.

        Adds the corrections' value and slope, and returns the bound of
        :meth:`bound` as the pass's error.  The true sum c/|z + g|**2 is
        -Im Khat/Im z, so it exceeds the pseudo-ladder's s2 by at most
        spread = (|value| + error)/|Im z|; and sum c/|z + g| <= Re Khat +
        (|z| - Re z)*(sum c/|z + g|**2), which the pseudo-ladder's s1
        (always a blocked pass) bounds for its own poles, so the family's
        exceeds s1 by at most |value| + error + (|z| - Re z)*spread.  A
        bound above ENDS_TOL of s1, or of s2 for the slope, raises
        :class:`NumericalError`.
        """
        value = slope = size = slope_size = 0.0
        for sign, c0, g0, q, r in self.ends:
            v = 1.0 / (z + g0)
            part, part_slope = c0 * v * _horner(q, g0 * v), -c0 * v * v * _horner(r, g0 * v)
            value, slope = value + sign * part, slope + sign * part_slope
            size, slope_size = size + abs(part), slope_size + abs(part_slope)
        error, deriv_error = self.bound(z, s1, s2)
        error += 64.0 * _EPS * size
        deriv_error += 64.0 * _EPS * slope_size
        if not (error <= ENDS_TOL * s1 and deriv_error <= ENDS_TOL * s2):
            raise NumericalError(
                f"the pseudo-ladder's error bound at z = {z:.6g} is not small: "
                f"{error:.3e} for s1 = {s1:.3e} and {deriv_error:.3e} for s2 = {s2:.3e}"
            )
        spread = (abs(value) + error) / abs(z.imag)
        return (
            khat + value,
            dkhat + slope,
            s1 + abs(value) + error + (abs(z) - z.real) * spread,
            s2 + spread,
            error,
            deriv_error,
        )


def _end_polynomials(
    alpha: float, beta: float, x_ends: tuple[float, ...]
) -> list[tuple[tuple[float, ...], tuple[float, ...]]]:
    """Q and R of :class:`EndCorrections` at each x0 of ``x_ends``, ascending in nu.

    [s**n] of (1 + s)**-alpha * G**m, G = (1 + s)**beta - 1, is the s**n
    coefficient of f's m-th term in -nu, and each correction reads one
    odd n of it.  That table depends on alpha and beta alone, so it is
    built once and weighted by each end's x0.
    """
    size = _END_ORDER
    n = np.arange(1.0, size)
    decay = np.cumprod(np.concatenate(([1.0], (1.0 - alpha - n) / n)))
    grow = np.cumprod(np.concatenate(([1.0], (1.0 + beta - n) / n)))
    grow[0] = 0.0
    terms = np.empty((size, size))
    terms[0] = decay
    for m in range(1, size):
        terms[m] = np.convolve(terms[m - 1], grow)[:size]
    orders = np.arange(1, size, 2)
    table, signs, powers = terms[:, orders], (-1.0) ** np.arange(size), np.arange(1.0, size + 1.0)
    out = []
    for x0 in x_ends:
        # B_2i/(2i)! * f^(n)(x0), n = 2i - 1, is B_2i/(2i)! * n! * x0**-n * [s**n] f(x0*(1 + s))
        weights = _EM_WEIGHTS[:_END_TERMS] * [math.factorial(n) * x0 ** float(-n) for n in orders]
        q = (table @ weights) * signs
        out.append((tuple(q.tolist()), tuple((q * powers).tolist())))
    return out


def pseudo_ladder(family: PowerLawFamily) -> tuple[ExponentialKernel, EndCorrections | None]:
    """The family's transform at a cost that does not grow with its count.

    Returns (kernel, ends).  The kernel is an ordinary ladder, a
    pseudo-ladder: the first FSUM_MAX - 1 poles, exactly as
    :func:`materialize` builds them; the Euler-Maclaurin halves c(X0)/2
    at g(X0) and c(N)/2 at g(N), X0 = FSUM_MAX and N the count; and the
    integral of c(x)/(z + g(x)) over [X0, N] as the 12-point
    Gauss-Legendre rule on equal panels in u = ln(x), at most
    PANEL_WIDTH/beta wide, each node a pole of weight omega*x*c(x) at
    rate g(x).  Its size grows like beta*ln(N).  ``ends`` are the
    Euler-Maclaurin derivative corrections at X0 and N with the bound on
    the rest (:class:`EndCorrections`); :func:`laplace_pass` joins them
    to a pass over the kernel.  A family no longer than its pseudo-ladder
    would be is materialized whole, with ``ends`` None.

    The pseudo-ladder never holds the family's last rates, so whether
    they round together is checked apart, in O(1): the smallest relative
    gap, (1 + 1/(N - 1))**beta - 1, must exceed 4 eps.
    """
    n, alpha, beta = family.count, family.alpha, family.beta
    lo, hi = math.log(FSUM_MAX), math.log(n)
    panels = math.ceil(beta * (hi - lo) / PANEL_WIDTH) if n > FSUM_MAX else 0
    if n <= FSUM_MAX + 1 + panels * _GAUSS_NODES.size:
        return materialize(family), None
    if not math.expm1(beta * math.log1p(1.0 / (n - 1))) > 4.0 * _EPS:
        raise ValueError("rates must be strictly increasing")
    # panel ends x_p, doubles shared by neighbouring panels; each node is
    # x_p*e^(h*(1 + t)), so its u = ln(x) is off by a few eps, not eps*ln(x)
    edges = np.exp(np.linspace(lo, hi, panels + 1))
    edges[0], edges[-1] = FSUM_MAX, n
    halves = 0.5 * np.log(edges[1:] / edges[:-1])
    steps = halves[:, None] * (1.0 + _GAUSS_NODES)
    amp, scale, starts = family.amplitude, family.scale, edges[:-1, None]
    first = materialize(replace(family, count=FSUM_MAX - 1))
    x_ends = (float(FSUM_MAX), float(n))
    c_ends, g_ends = [amp / x**alpha for x in x_ends], [x**beta * scale for x in x_ends]
    weights = halves[:, None] * _GAUSS_WEIGHTS * (amp * starts ** (1.0 - alpha)) * np.exp((1.0 - alpha) * steps)
    coeffs = np.concatenate((first._c, [0.5 * c_ends[0]], weights.ravel(), [0.5 * c_ends[1]]))
    nodes = (scale * starts**beta) * np.exp(beta * steps)
    rates = np.concatenate((first._g, [g_ends[0]], nodes.ravel(), [g_ends[1]]))
    polynomials = _end_polynomials(alpha, beta, x_ends)
    ends = tuple((sign, c0, g0, q, r) for sign, c0, g0, (q, r) in zip((-1.0, 1.0), c_ends, g_ends, polynomials))
    mids = np.log(edges[:-1]) + halves
    corrections = EndCorrections(
        family, ends, float(halves.max()), amp * np.exp((1.0 - alpha) * mids), scale * np.exp(beta * mids)
    )
    return ExponentialKernel._adopt(coeffs, rates), corrections


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
