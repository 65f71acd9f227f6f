"""Scalar mode symbols and their polynomial form.

Each mode of the underlying evolution problem contributes the symbol

    L(z) = z**2 + a**2 - a**(2*xi) * Khat(z)
         = z**2 + a**2 * (1 - w * Khat(z)),      w = a**(-2*(1-xi)),

where a is the mode frequency and xi in (0, 1) grades how strongly the
memory term couples.  Dividing by a**2 splits the symbol into an inertia
part z**2/a**2 and a stiffness part 1 - w*Khat(z); the two views trade off
in different half-planes and both are exposed here.

Multiplying L by prod_k (z + g_k) clears the poles and yields a monic
polynomial of degree size+2 whose coefficients satisfy exact sum/product
identities used as cross-checks throughout the test-suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import InadmissibleModeError, NumericalError
from .kernels import EndCorrections, ExponentialKernel, laplace, laplace_pass

#: largest ladder for which the cleared polynomial is formed explicitly
POLY_MAX = 64


def memory_weight(frequency: float, xi: float) -> float:
    """w = a**(-2*(1-xi)), the dimensionless weight of the memory term.

    A weight past the double range, from a tiny frequency, is ``math.inf``,
    as IEEE arithmetic gives it; Python's ``**`` would raise instead.  The
    mode is then overloaded.
    """
    try:
        return frequency ** (-2.0 * (1.0 - xi))
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class ModePencil:
    """One mode: finite frequency a > 0, coupling grade xi in (0, 1), and a kernel."""

    frequency: float
    xi: float
    kernel: ExponentialKernel

    def __post_init__(self):
        if not self.frequency > 0:
            raise ValueError("frequency must be positive")
        if not math.isfinite(self.frequency):
            raise ValueError("frequency must be finite")
        if not 0.0 < self.xi < 1.0:
            raise ValueError("xi must lie strictly inside (0, 1)")

    @cached_property
    def memory_weight(self) -> float:
        """w = a**(-2*(1-xi)) at this mode (:func:`memory_weight`)."""
        return memory_weight(self.frequency, self.xi)

    @cached_property
    def frequency_squared(self) -> float:
        """a**2, every evaluator's one copy; past the double range it raises :class:`NumericalError`."""
        try:
            return self.frequency**2
        except OverflowError:
            raise NumericalError(f"a**2 is past the double range at a = {self.frequency!r}") from None

    @cached_property
    def dyadic(self) -> tuple[int, int, tuple[int, ...], int, tuple[int, ...], int]:
        """The mode's doubles read once, exactly: (ma, ta, R, rate_bits, u, unit_bits).

        a = ma / 2**ta; each rate g_k = R_k / 2**rate_bits, over one shared
        power of two; and each a**2 * w * c_k = u_k / 2**unit_bits, over
        another, w the double ``memory_weight``.  :func:`to_polynomial` and
        the pair's exact last step read a, w, the rates and the amplitudes
        only from it.
        """
        (ma, da), (mw, dw) = self.frequency.as_integer_ratio(), self.memory_weight.as_integer_ratio()
        ta, tw = da.bit_length() - 1, dw.bit_length() - 1
        rates = [(m, d.bit_length() - 1) for m, d in map(float.as_integer_ratio, self.kernel.rates)]
        a2w = ma * ma * mw
        weights = [(a2w * m, 2 * ta + tw + d.bit_length() - 1) for m, d in map(float.as_integer_ratio, self.kernel.coeffs)]
        s, u = max(t for _, t in rates), max(t for _, t in weights)
        return ma, ta, tuple([m << s - t for m, t in rates]), s, tuple([m << u - t for m, t in weights]), u

    @cached_property
    def load(self) -> float:
        """lambda = w * sum_k c_k/g_k = w*Khat(0), the mode's memory load.

        The structure theorem needs lambda < 1, which makes L(0) > 0; a
        mode at or above it is overloaded.  The kernel's norm is summed
        exactly (``l1_norm``).
        """
        return self.memory_weight * self.kernel.l1_norm

    @property
    def overloaded(self) -> bool:
        """Whether the load is not below 1: the predicate of :meth:`check_load`."""
        return not self.load < 1.0

    def check_load(self, ends: EndCorrections | None = None) -> None:
        """Raise :class:`InadmissibleModeError` when the mode is :attr:`overloaded`.

        The package's one overload gate: the branch solve and ``sweep``'s
        pair solves run it, and ``verify`` reports its predicate.  When the
        kernel is a family's pseudo-ladder, ``ends`` are its end
        corrections (:func:`pseudo_ladder`), and the load is the whole
        family's: the pseudo-ladder's norm plus the corrections at z = 0,
        so an overloaded family does not pass on its pseudo-ladder alone.
        """
        if ends is None:
            load = self.load
        else:
            load = self.memory_weight * (self.kernel.l1_norm + ends.load_share)
        if not load < 1.0:
            # L(0) = a**2 * (1 - load) <= 0: no sign change left of the origin
            raise InadmissibleModeError(load)


def symbol(p: ModePencil, zeta) -> complex | np.ndarray:
    """L(z) = z**2 + a**2 * f(z), f the :func:`stiffness` factor.  Vectorised over z."""
    return zeta * zeta + p.frequency_squared * stiffness(p, zeta)


def symbol_with_deriv(p: ModePencil, zeta: complex) -> tuple[complex, complex]:
    """(L(z), L'(z)) at one point, from one pass over the ladder.

    L'(z) = 2z - a**2 * w * Khat'(z); L(z) equals symbol(p, z) bit for bit.
    """
    z = complex(zeta)
    a2 = p.frequency_squared
    khat, dkhat = laplace_pass(p.kernel, z)[:2]
    return z * z + a2 * (1.0 - p.memory_weight * khat), 2.0 * z - a2 * p.memory_weight * dkhat


def stiffness(p: ModePencil, zeta) -> complex | np.ndarray:
    """f(z) = 1 - w*Khat(z), the memoryless-stiffness factor of L/a**2."""
    return 1.0 - p.memory_weight * laplace(p.kernel, zeta)


def inertia(p: ModePencil, zeta) -> complex | np.ndarray:
    """g(z) = z**2/a**2, so that L/a**2 = stiffness + inertia identically."""
    return zeta * zeta / p.frequency_squared


def _poly_mul(acc: list[int], root: int) -> list[int]:
    """Multiply ascending integer coefficients by (y + root)."""
    out = [0] * (len(acc) + 1)
    for i, v in enumerate(acc):
        out[i] += root * v
        out[i + 1] += v
    return out


def to_polynomial(p: ModePencil) -> np.ndarray:
    """Clear the poles of L: P(z) = L(z) * prod_k (z + g_k).

    Returns ascending coefficients of the monic degree size+2 polynomial

        (z**2 + a**2) * prod_k (z + g_k)
        - a**2 * w * sum_k c_k * prod_{j != k} (z + g_j)

    as exact rationals (an object array of Fraction values).  Every input
    is a binary rational, so the expansion is computed exactly; this
    matters because pinched roots give the monomial basis condition
    numbers around 1e10, and any fixed-precision rounding of the
    coefficients would move those roots by more than the cross-check
    tolerances downstream.  Cast with ``float`` for ordinary numeric
    work.  Ladders larger than POLY_MAX are refused: the coefficient
    range becomes meaningless long before that.

    The expansion runs in integers, on the pencil's exact reading
    :attr:`ModePencil.dyadic`: rates R_k = S*g_k and weights
    u_k = U*a**2*w*c_k, S = 2**rate_bits and U = 2**unit_bits.  One pass over the
    ladder grows B = prod_k (y + R_k) in y = S*z together with its weighted
    partials N = sum_k u_k prod_{j != k} (y + R_j), as N <- N*(y + R) + u*B
    and then B <- B*(y + R).  Coefficient i is then the integer
    S**2 a**2 U B_i + U B_(i-2) - S**3 N_i over U * S**(n+2-i), a power of
    two, and becomes one Fraction, which reduces it to lowest terms.
    """
    n = p.kernel.size
    if n > POLY_MAX:
        raise ValueError(f"ladder size {n} exceeds polynomial cap {POLY_MAX}")
    ma, ta, ints, rate_bits, weight_ints, unit_bits = p.dyadic
    a2_int = (ma * ma) << (unit_bits - 2 * ta)
    scale, unit = 1 << rate_bits, 1 << unit_bits

    # B = prod_k (y + R_k) and N = sum_k u_k prod_{j != k} (y + R_j), grown
    # together: coefficient i of B carries S**(n-i), of N S**(n-1-i)
    base, partial = [1], []
    for r, u in zip(ints, weight_ints):
        partial = [v + u * b for v, b in zip(_poly_mul(partial, r), base)]
        base = _poly_mul(base, r)
    # unit * S**(n+2-i) * P_i from (y**2 + S**2 a**2) * B - S**3 * N
    s2 = scale * scale
    s3 = s2 * scale
    out = []
    for i, (b, lifted, v) in enumerate(zip(base + [0, 0], [0, 0] + base, partial + [0, 0, 0])):
        bits = unit_bits + rate_bits * (n + 2 - i)
        out.append(Fraction(s2 * a2_int * b + unit * lifted - s3 * v, 1 << bits))
    return np.array(out, dtype=object)
