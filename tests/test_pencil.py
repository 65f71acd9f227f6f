"""Mode symbols: values, the stiffness/inertia split, exact clearing."""

import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from gpspectra import (
    ExponentialKernel,
    ModePencil,
    NumericalError,
    PowerLawFamily,
    fixed_point_pair,
    inertia,
    laplace_pass,
    materialize,
    pseudo_ladder,
    stiffness,
    symbol,
    symbol_with_deriv,
    to_polynomial,
)
from gpspectra.kernels import FSUM_MAX
from gpspectra.pencil import POLY_MAX
from conftest import CLUSTER_TWELVE, admissible_modes, recipe_pencil


def test_pencil_validation():
    kern = ExponentialKernel((1.0,), (2.0,))
    with pytest.raises(ValueError):
        ModePencil(frequency=0.0, xi=0.5, kernel=kern)
    with pytest.raises(ValueError, match="finite"):
        ModePencil(frequency=math.inf, xi=0.5, kernel=kern)
    with pytest.raises(ValueError):
        ModePencil(frequency=10.0, xi=0.0, kernel=kern)
    with pytest.raises(ValueError):
        ModePencil(frequency=10.0, xi=1.0, kernel=kern)


def test_memory_weight():
    kern = ExponentialKernel((1.0,), (2.0,))
    assert ModePencil(10.0, 0.5, kern).memory_weight == 10.0**-1
    assert ModePencil(16.0, 0.75, kern).memory_weight == 0.25


def test_an_evaluator_refuses_a_frequency_whose_square_overflows():
    # a**2 is formed in one place, which refuses it by name past the double
    # range, as the branch solve does, rather than raising OverflowError
    p = ModePencil(1e160, 0.5, ExponentialKernel((1.0,), (2.0,)))
    for evaluate in (symbol, symbol_with_deriv, inertia):
        with pytest.raises(NumericalError, match=r"^a\*\*2 is past the double range at a = 1e\+160$"):
            evaluate(p, 1j)


def test_symbol_spot_values(cubic):
    # on the imaginary axis the z^2 + a^2 part cancels exactly at z = ia
    value = symbol(cubic, 10j)
    assert abs(value - (-0.19230769230769232 + 0.9615384615384615j)) < 5e-15
    assert symbol(cubic, 0.0) == 95.0
    assert symbol_with_deriv(cubic, 0.0)[1] == 2.5
    assert stiffness(cubic, 0.0) == 0.95
    assert inertia(cubic, 10j) == -1.0


def test_symbol_split_identity(cubic):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, 40) + 1j * rng.uniform(-20, 20, 40)
    lhs = symbol(cubic, pts) / cubic.frequency**2
    rhs = stiffness(cubic, pts) + inertia(cubic, pts)
    assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_symbol_conjugate_symmetry(cubic):
    rng = np.random.default_rng(5)
    pts = rng.standard_normal(30) * 5 + 1j * rng.standard_normal(30) * 5
    assert np.allclose(symbol(cubic, np.conj(pts)), np.conj(symbol(cubic, pts)),
                       rtol=0, atol=1e-12)


def _assert_scalar_mirror(p: ModePencil, points) -> None:
    # verify's conjugacy row reads the upper root's residual for the lower
    # root's, which holds because a real kernel mirrors L exactly
    for z in points:
        assert symbol(p, z.conjugate()) == symbol(p, z).conjugate(), z


@settings(max_examples=40, derandomize=True, deadline=None)
@given(admissible_modes())
def test_symbol_mirrors_bit_for_bit(p):
    a, g = p.frequency, p.kernel.rates
    plus = fixed_point_pair(p).plus
    _assert_scalar_mirror(p, [plus, 1j * a, complex(-0.5 * g[0], 0.5 * a), complex(-2.0 * g[-1], 1.0)])


def test_symbol_mirrors_bit_for_bit_on_long_ladders_and_series_heads():
    # a whole 300-term ladder, and the pseudo-ladder of a 5000-term family
    # with its end corrections, which the pair solve adds to each pass
    family = PowerLawFamily(1.0, 1.0, 0.5, 1.0, 5000)
    whole = materialize(PowerLawFamily(1.0, 1.0, 0.5, 1.0, 300))
    kernel, ends = pseudo_ladder(family)
    assert whole.size > FSUM_MAX and ends is not None
    rng = np.random.default_rng(25)
    for kern, corrections, reach, a in ((whole, None, 400.0, 100.0), (kernel, ends, 30.0, 25.0)):
        p = ModePencil(a, 0.5, kern)
        points = [fixed_point_pair(p, ends=corrections).plus]
        points += [complex(r * math.cos(t), r * math.sin(t))
                   for r, t in zip(rng.uniform(0.0, reach, 12), rng.uniform(0.1, 3.0, 12))]
        _assert_scalar_mirror(p, points)
        if corrections is not None:
            # the whole pass with the corrections mirrors too, its bounds unchanged
            for z in points:
                khat, dkhat, *bounds = laplace_pass(kern, z, corrections)
                mirror = laplace_pass(kern, z.conjugate(), corrections)
                assert mirror == (khat.conjugate(), dkhat.conjugate(), *bounds), z


def test_cleared_cubic_coefficients(cubic):
    coeffs = to_polynomial(cubic)
    assert [float(c) for c in coeffs] == [190.0, 100.0, 2.0, 1.0]
    assert coeffs[-1] == 1  # monic, exactly


def test_cleared_polynomial_exact_identities():
    # constant term a^2 * prod(g) * (1 - w*S) and the z^(n+1) coefficient
    # sum(g) hold as exact rational identities, not just to round-off
    kern = ExponentialKernel((0.3, 0.25, 0.125), (0.5, 2.0, 7.0))
    p = ModePencil(frequency=100.0, xi=0.25, kernel=kern)
    coeffs = to_polynomial(p)

    a2 = Fraction(p.frequency) ** 2
    w = Fraction(p.memory_weight)
    rates = [Fraction(g) for g in kern.rates]
    cs = [Fraction(c) for c in kern.coeffs]
    s = sum(c / g for c, g in zip(cs, rates))
    prod = Fraction(1)
    for g in rates:
        prod *= g

    assert coeffs[0] == a2 * prod * (1 - w * s)
    assert coeffs[-2] == sum(rates)
    assert len(coeffs) == kern.size + 3


def test_cleared_polynomial_matches_symbol_pointwise():
    kern = ExponentialKernel((0.4, 0.2), (1.0, 3.0))
    p = ModePencil(frequency=10.0, xi=0.5, kernel=kern)
    coeffs = np.array([float(c) for c in to_polynomial(p)])
    rng = np.random.default_rng(17)
    for z in rng.standard_normal(20) + 1j * rng.standard_normal(20):
        cleared = np.polyval(coeffs[::-1], z)
        direct = symbol(p, z) * np.prod([z + g for g in kern.rates])
        assert abs(cleared - direct) <= 1e-12 * max(1.0, abs(direct))


def _fraction_polynomial(p: ModePencil) -> list[Fraction]:
    """The cleared coefficients by plain Fraction arithmetic on the inputs."""
    a2 = Fraction(p.frequency) ** 2
    aw = a2 * Fraction(p.memory_weight)
    rates = [Fraction(g) for g in p.kernel.rates]

    def product(roots):  # ascending coefficients of prod (z + r)
        out = [Fraction(1)]
        for r in roots:
            out = [r * out[0]] + [out[i - 1] + r * out[i] for i in range(1, len(out))] + [out[-1]]
        return out

    poly = [Fraction(0)] * (len(rates) + 3)
    for i, v in enumerate(product(rates)):
        poly[i] += a2 * v
        poly[i + 2] += v
    for k, c in enumerate(p.kernel.coeffs):
        for i, v in enumerate(product(rates[:k] + rates[k + 1 :])):
            poly[i] -= aw * Fraction(c) * v
    return poly


#: (coeffs, rates, a, xi) at the ends of the double range
EXTREME_PENCILS = {
    # rates and coefficients at binary exponents -1000..1000
    "wide-exponents": (
        tuple(math.ldexp(0.1, e) for e in (1000, -1000, 3, 500, -500)),
        tuple(math.ldexp(1.0 + k / 7.0, e) for k, e in enumerate((-1000, -500, 0, 500, 1000))),
        3.7, 0.3,
    ),
    # w = 1e300**-1.9 underflows to zero
    "zero-weight": ((0.5, 2.0**-1000), (0.75, 2.0**1000), 1e300, 0.05),
    # w = 1e300**-1.05 is subnormal
    "subnormal-weight": ((0.5, 0.1), (0.75, 1.5), 1e300, 0.475),
    "tiny-frequency": ((0.3, 0.7), (0.1, 3.0), 1e-300, 0.9),
    "huge-frequency": ((0.3, 0.7), (0.1, 3.0), 1e300, 0.5),
}

#: the extremes above, a 12-term pool ladder and a pool-style draw of POLY_MAX terms
CLEARING_CASES = {
    **{name: ModePencil(a, xi, ExponentialKernel(c, g)) for name, (c, g, a, xi) in EXTREME_PENCILS.items()},
    "pool-twelve": ModePencil(CLUSTER_TWELVE[2], CLUSTER_TWELVE[3], ExponentialKernel(*CLUSTER_TWELVE[:2])),
    "poly-max-draw": recipe_pencil(POLY_MAX, random.Random(5).uniform),
}


@pytest.mark.parametrize("name", sorted(CLEARING_CASES))
def test_dyadic_clearing_is_exact_at_the_extremes(name):
    p = CLEARING_CASES[name]
    if name == "zero-weight":
        assert p.memory_weight == 0.0
    if name == "subnormal-weight":
        assert 0.0 < p.memory_weight < sys.float_info.min
    got = list(to_polynomial(p))
    want = _fraction_polynomial(p)
    assert all(type(c) is Fraction for c in got)
    assert got == want
    assert [c.denominator for c in got] == [c.denominator for c in want]


def test_clearing_builds_one_fraction_per_coefficient(monkeypatch):
    p = ModePencil(637280.0617993774, 0.09467011703938635, ExponentialKernel((0.1, 0.2, 0.3), (1.5, 2.25, 7.0)))
    want = _fraction_polynomial(p)
    built = []
    plain_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return plain_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    got = list(to_polynomial(p))
    monkeypatch.undo()
    assert got == want
    assert len(built) == p.kernel.size + 3


def test_polynomial_cap():
    n = POLY_MAX + 1
    kern = ExponentialKernel(tuple([1e-6] * n), tuple(float(k) for k in range(1, n + 1)))
    p = ModePencil(frequency=10.0, xi=0.5, kernel=kern)
    with pytest.raises(ValueError):
        to_polynomial(p)


def test_weight_scaling_against_direct_sum():
    # L(x)/a^2 at a real point equals 1 + x^2/a^2 - w*sum c/(x+g)
    kern = ExponentialKernel((2.0, 1.0), (3.0, 5.0))
    p = ModePencil(frequency=7.0, xi=0.75, kernel=kern)
    x = 1.3
    w = 7.0 ** (-0.5)
    expected = x * x + 49.0 * (1.0 - w * (2.0 / (x + 3.0) + 1.0 / (x + 5.0)))
    assert abs(symbol(p, x) - expected) < 1e-12 * abs(expected)
