"""Kernel ladders, their transforms, and the power-law family plumbing."""

import cmath
import decimal
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from gpspectra import (
    ExponentialKernel,
    InadmissibleModeError,
    ModePencil,
    NumericalError,
    PoleProximityError,
    PowerLawFamily,
    angular_integral,
    asymptotic_constant,
    continuum_laplace,
    laplace,
    laplace_asymptotic,
    laplace_deriv,
    laplace_pass,
    laplace_tail,
    laplace_with_deriv,
    materialize,
    pseudo_ladder,
    solve_mode,
    symbol,
    symbol_with_deriv,
    tail_bound,
)
from gpspectra import kernels
from gpspectra.kernels import FSUM_MAX, POLE_GUARD_ULPS
from conftest import PINCHED_EIGHT, PINCHED_FIVE


# ---------------------------------------------------------------- ladders


def test_kernel_validation():
    with pytest.raises(ValueError):
        ExponentialKernel((), ())
    with pytest.raises(ValueError):
        ExponentialKernel((1.0, 2.0), (1.0,))
    with pytest.raises(ValueError):
        ExponentialKernel((0.0,), (1.0,))
    with pytest.raises(ValueError):
        ExponentialKernel((1.0,), (-1.0,))
    with pytest.raises(ValueError):
        ExponentialKernel((1.0, 1.0), (2.0, 2.0))  # rates must increase
    for coeffs, rates in (
        ((1.0, 1.0), (1.0, math.inf)),
        ((1.0,) * 100, tuple(range(1, 100)) + (math.inf,)),
        ((1.0, 1.0), (1.0, math.nan)),
        ((1.0, math.inf), (1.0, 2.0)),
        ((math.nan, 1.0), (1.0, 2.0)),
    ):
        with pytest.raises(ValueError, match="finite"):
            ExponentialKernel(coeffs, rates)


def test_kernel_norms_harmonic_ladder():
    kern = ExponentialKernel((1.0, 0.5, 1.0 / 3.0), (1.0, 2.0, 3.0))
    assert abs(kern.l1_norm - 49.0 / 36.0) < 1e-15
    assert abs(kern.initial_value - 11.0 / 6.0) < 1e-15


# ------------------------------------------------------------- transforms


def test_laplace_spot_values():
    unit = ExponentialKernel((1.0,), (1.0,))
    assert laplace(unit, 0.0) == 1.0
    assert abs(laplace(unit, 1j) - (0.5 - 0.5j)) < 1e-15
    two = ExponentialKernel((1.0, 2.0), (1.0, 3.0))
    assert abs(laplace(two, 1.0) - 1.0) < 1e-15


def test_laplace_vectorised_matches_scalar():
    kern = ExponentialKernel((0.3, 0.4), (1.0, 5.0))
    pts = np.array([0.1 + 1j, 2.0, -0.5 + 4j, 100.0j])
    vec = laplace(kern, pts)
    assert vec.shape == pts.shape
    for z, v in zip(pts, vec):
        assert abs(v - laplace(kern, complex(z))) < 1e-15


def test_laplace_conjugate_symmetry():
    kern = ExponentialKernel((0.3, 0.4, 0.1), (1.0, 2.5, 7.0))
    rng = np.random.default_rng(7)
    pts = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    assert np.allclose(laplace(kern, np.conj(pts)), np.conj(laplace(kern, pts)),
                       rtol=0, atol=1e-15)


def test_laplace_decreasing_on_positive_axis():
    kern = ExponentialKernel((1.0, 0.5), (1.0, 4.0))
    xs = np.linspace(0.0, 50.0, 200)
    vals = laplace(kern, xs).real
    assert np.all(np.diff(vals) < 0)


def test_laplace_deriv_spot_values_and_fd():
    unit = ExponentialKernel((1.0,), (1.0,))
    assert laplace_deriv(unit, 0.0) == -1.0
    assert abs(laplace_deriv(unit, 1j) - 0.5j) < 1e-15

    kern = ExponentialKernel((0.2, 0.7), (1.0, 3.0))
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.5, 5.0, 100) + 1j * rng.uniform(-5.0, 5.0, 100)
    h = 1e-6
    fd = (laplace(kern, pts + h) - laplace(kern, pts - h)) / (2.0 * h)
    assert max(abs(d - laplace_deriv(kern, z)) for d, z in zip(fd, pts)) < 1e-6


def test_pole_guard_trips():
    kern = ExponentialKernel((1.0,), (1.0,))
    with pytest.raises(PoleProximityError):
        laplace(kern, -1.0 + 1e-14)
    with pytest.raises(PoleProximityError):
        laplace_deriv(kern, -1.0 + 1e-14 + 0j)
    with pytest.raises(PoleProximityError):
        laplace_with_deriv(kern, -1.0 + 1e-14)

    # the scalar guard finds the nearest pole by bisection; it must refuse
    # exactly the points the O(n) pass over an array of points refuses, on
    # the exactly summed and on the blocked path alike
    for size in (7, FSUM_MAX + 1):
        g = np.arange(1.0, size + 1.0)
        kern = ExponentialKernel(1.0 / np.sqrt(g), g)
        guard = POLE_GUARD_ULPS * math.ulp(g[-1])
        points = [0.0, -g[-1] - 2.0, -0.5 * (g[1] + g[2]) + 1e-3j]
        for pole in (g[0], g[3], g[-1]):
            for d in (0.0, 0.5, 0.99, 1.01, 2.0):
                for phi in (0.0, 1.0, math.pi / 2, 2.5, math.pi):
                    points.append(-pole + d * guard * complex(math.cos(phi), math.sin(phi)))
        trips = 0
        for z in points:
            try:
                laplace(kern, np.array([z]))
            except PoleProximityError:
                trips += 1
                for f in (laplace, laplace_deriv, laplace_with_deriv):
                    with pytest.raises(PoleProximityError):
                        f(kern, z)
            else:
                laplace(kern, z), laplace_deriv(kern, z), laplace_with_deriv(kern, z)
        assert 0 < trips < len(points)


def test_pole_guard_is_relative_to_each_poles_own_rate():
    # pool entry 527: five roots 5.4e-13 to 1.4e-12 from their poles, below
    # 1e-13 of the largest rate
    coeffs, rates, a, xi = PINCHED_FIVE
    p = ModePencil(a, xi, ExponentialKernel(coeffs, rates))
    roots = [b.value for b in solve_mode(p).real_roots]
    assert min(abs(r + g) / g for r, g in zip(roots, rates)) < 1e-13
    for root in roots:
        symbol(p, root)
        symbol(p, np.array([root]))
        laplace_with_deriv(p.kernel, root)
    # points on a pole, or one ulp off it, are still refused on both paths
    for g in rates:
        for z in (-g, complex(-g, 0.0), math.nextafter(-g, 0.0), complex(-g, g * 1e-16)):
            for point in (z, np.array([1j, z])):
                with pytest.raises(PoleProximityError):
                    laplace(p.kernel, point)
            with pytest.raises(PoleProximityError):
                laplace_deriv(p.kernel, z)
            with pytest.raises(PoleProximityError):
                laplace_with_deriv(p.kernel, z)


@pytest.mark.parametrize(
    "coeffs, rates, a, xi", [PINCHED_FIVE, PINCHED_EIGHT], ids=["PINCHED_FIVE", "PINCHED_EIGHT"]
)
def test_symbol_is_finite_at_every_resolved_root(coeffs, rates, a, xi):
    # pool entry 619 (PINCHED_EIGHT): branch 5's root lies 61 ulps of its
    # rate from its pole, branch 8's 83 ulps (1.474e-13 from -15.0505)
    p = ModePencil(a, xi, ExponentialKernel(coeffs, rates))
    result = solve_mode(p)
    for b in result.real_roots + result.stiffness_roots:
        for z in (b.value, np.array([b.value])):
            assert np.all(np.isfinite(symbol(p, z)))
        assert all(cmath.isfinite(v) for v in laplace_with_deriv(p.kernel, b.value))


def _fsum_terms(terms):
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def _random_ladder(rng, size):
    g = np.cumsum(rng.uniform(0.1, 3.0, size))
    return ExponentialKernel(rng.uniform(0.01, 2.0, size), g)


def test_fused_transform_equals_the_separate_sums_bitwise_on_small_ladders():
    rng = np.random.default_rng(2014)
    ladders = [materialize(PowerLawFamily(1.0, 1.0, 0.5, 1.0, 59))]
    ladders += [_random_ladder(rng, size) for size in (1, 2, 5, 40, FSUM_MAX)]
    for kern in ladders:
        assert kern.size <= FSUM_MAX
        reach = min(kern.rates[-1], 90.0)
        for _ in range(8):
            z = cmath.rect(rng.uniform(0.0, reach), rng.uniform(-math.pi, math.pi))
            fused = laplace_with_deriv(kern, z)
            assert fused == (laplace(kern, z), laplace_deriv(kern, z))
            mode = ModePencil(10.0, 0.5, kern)
            symbol_slope = 2.0 * z - mode.frequency**2 * mode.memory_weight * laplace_deriv(kern, z)
            assert symbol_with_deriv(mode, z) == (symbol(mode, z), symbol_slope)
            shifted = z + kern._g
            value = _fsum_terms(kern._c / shifted)
            slope = _fsum_terms(-(kern._c / shifted) / shifted)
            assert fused == (value, slope)


@pytest.mark.parametrize(
    "which",
    [
        "head_and_series",
        "plain",
        "plain_negative_rates_side",
        "head_199_and_series",
        "random_300",
        "random_9999",
    ],
)
def test_fused_transform_on_large_ladders_matches_exact_sums(which):
    ends = None
    if which.endswith("_and_series"):
        # a family's pseudo-ladder and end corrections, against every term
        count = 10**5 if which == "head_and_series" else 5000
        family = PowerLawFamily(1.0, 1.0, 0.5, 1.0, count)
        kern, (pseudo, ends) = materialize(family), pseudo_ladder(family)
        assert ends is not None and pseudo.size < 300
        if which == "head_and_series":
            points = [-3.0 + 12500j, 12000.0 + 3000j, -2400.0 + 5000j, 30.0 - 40.0j]
        else:
            points = [-3.0 + 99j, 60.0 + 70j, -50.0 + 60j, 30.0 - 40.0j]
    elif which.startswith("random_"):
        rng = np.random.default_rng(2014)
        kern = _random_ladder(rng, int(which.split("_")[1]))
        reach = min(kern.rates[-1], 90.0)
        points = [
            cmath.rect(rng.uniform(0.0, reach), rng.uniform(-math.pi, math.pi)) for _ in range(8)
        ]
    else:
        rng = np.random.default_rng(5)
        g = np.cumsum(rng.uniform(0.5, 1.5, 30001))
        kern = ExponentialKernel(rng.uniform(0.01, 1.0, g.size), g)
        points = [-3.0 + 12500j, 1e5 - 2e4j, -1234.5 + 0.25j, 0.5]
        if which == "plain_negative_rates_side":
            points = [-kern.rates[-1] - 10.0 + 1j, -0.5 * kern.rates[-1] - 1e3j, -7.25 + 1e-3j]
    assert kern.size > FSUM_MAX
    for z in points:
        shifted = z + kern._g
        terms, slopes = kern._c / shifted, -kern._c / shifted**2
        value, slope = _fsum_terms(terms), _fsum_terms(slopes)
        # relative to the sum of the moduli: that is |value| or |slope|
        # except where the terms cancel, as the slopes do 50 above the
        # poles near -24000 (by a factor of about 900)
        value_scale, slope_scale = np.sum(np.abs(terms)), np.sum(np.abs(slopes))
        if ends is None:
            fused_value, fused_slope = laplace_with_deriv(kern, z)
            # the scalar transforms are the blocked pass's halves
            assert (laplace(kern, z), laplace_deriv(kern, z)) == (fused_value, fused_slope)
        else:
            fused_value, fused_slope = laplace_pass(pseudo, z, ends)[:2]
        assert abs(fused_value - value) <= 1e-14 * value_scale
        assert abs(fused_slope - slope) <= 1e-14 * slope_scale


def test_fused_transform_keeps_huge_arguments_in_range():
    # x**2 + y**2 overflows past 1.3e154; the array path's complex division
    # scales itself, and the blocked pass must agree with it
    g = np.arange(1.0, FSUM_MAX + 2.0)
    for kern in (ExponentialKernel(1.0 / g, g), ExponentialKernel(1.0 / g, 1e170 * g)):
        for z in (1e76j, 1e160j, 1e200 + 1e200j, -1e300 + 1e290j):
            value, slope = laplace_with_deriv(kern, z)
            reference = complex(laplace(kern, np.array([z]))[0])
            assert abs(value - reference) <= 1e-14 * abs(reference)
            assert math.isfinite(abs(slope))
    # on the exactly summed path (z + g)**2 overflows at |z| = 1e155, while
    # -(c/(z + g))/(z + g) is the subnormal 1.75e-310
    kern = ExponentialKernel((1.0, 0.5, 0.25), (2.0, 5.0, 11.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert laplace_deriv(kern, 1e155j) == pytest.approx(1.75e-310, rel=1e-12, abs=0.0)


def _sums_to_40_digits(kern, z):
    """Khat and Khat' of the explicit ladder at z, every term and sum to 40 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        x0, y = Decimal(z.real), Decimal(z.imag)
        y2 = y * y
        s_x = s_u = s_t = s_d = Decimal(0)
        for c, g in zip(map(Decimal, kern.coeffs), map(Decimal, kern.rates)):
            x = g + x0
            xx = x * x
            d = xx + y2
            u = c / d  # c/|z + g|**2
            s_x += u * x
            s_u += u
            s_t += u * (xx - y2) / d
            s_d += u * x / d
        value = complex(float(s_x), float(-y * s_u))
        slope = complex(float(-s_t), float(2 * y * s_d))
    return value, slope


#: the pair of each mode of the 10**6-term square-root family swept at
#: xi = 0.5 over a = 100, 500, 2500 and 12500
SWEPT_PAIRS = [
    -0.10399568696788436 + 99.88992093349718j,
    -0.04822178559332315 + 499.9513272676238j,
    -0.021921885662118588 + 2499.978785607135j,
    -0.009872022191745454 + 12499.991065381937j,
]


def test_blocked_pass_matches_a_40_digit_sum_on_the_longest_head():
    # the 49999-term head of the a = 12500 mode, summed to 40 digits (stdlib
    # decimal: the same digits as mpmath in a fifth of the time)
    kern = materialize(PowerLawFamily(1.0, 1.0, 0.5, 1.0, 49999))
    eps = np.finfo(float).eps
    for z in SWEPT_PAIRS:
        value, slope = laplace_with_deriv(kern, z)
        exact_value, exact_slope = _sums_to_40_digits(kern, z)
        moduli = kern._c / np.abs(z + kern._g)  # |c/(z + g)|
        assert abs(value - exact_value) <= 4 * eps * np.sum(moduli)
        assert abs(slope - exact_slope) <= 4 * eps * np.sum(moduli / np.abs(z + kern._g))


@pytest.mark.parametrize("z", [-0.375 + 96.5j, 1e4 + 2e4j])
def test_blocked_pass_scales_exactly_with_the_ladder(z):
    # z and every rate times 2**e, from |z + g| near 2**-400 to far past the
    # rescale at 2**256: Khat/2**e and Khat'/4**e bit for bit, wherever that
    # is a normal double, and never a warning
    base = materialize(PowerLawFamily(1.0, 1.0, 0.5, 1.0, 1000))
    value, slope = laplace_with_deriv(base, z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for e in range(-400, 921):
            kern = ExponentialKernel(base._c, np.ldexp(base._g, e))
            got = laplace_with_deriv(kern, complex(math.ldexp(z.real, e), math.ldexp(z.imag, e)))
            for part, whole, power in (
                (got[0].real, value.real, e),
                (got[0].imag, value.imag, e),
                (got[1].real, slope.real, 2 * e),
                (got[1].imag, slope.imag, 2 * e),
            ):
                exact = math.ldexp(whole, -power)
                if abs(exact) >= sys.float_info.min:
                    assert part == exact, (e, part, exact)
                else:
                    assert abs(part) < 2.0 * sys.float_info.min, (e, part, exact)


def test_materialize_builds_its_ladder_in_place_and_keeps_it():
    for family in (
        PowerLawFamily(1.0, 1.0, 0.5, 1.0, 50000),
        PowerLawFamily(0.7, 2.5, 0.3, 1.7, 1000),
        PowerLawFamily(3.0, 0.25, 1.0, 1.0, 100),
    ):
        kern = materialize(family)
        k = np.arange(1, family.count + 1, dtype=float)
        assert kern._c.tobytes() == (family.amplitude / k**family.alpha).tobytes()
        assert kern._g.tobytes() == (family.scale * k**family.beta).tobytes()
        assert not kern._c.flags.writeable and not kern._g.flags.writeable
        with pytest.raises(ValueError):
            kern._g[0] = 0.5
    # the constructor still copies what it is given
    c, g = np.array([0.5, 0.25]), np.array([1.0, 3.0])
    kern = ExponentialKernel(c, g)
    assert c.flags.writeable and g.flags.writeable
    assert not np.shares_memory(kern._c, c) and not np.shares_memory(kern._g, g)
    c[0] = 2.0
    assert kern.coeffs == (0.5, 0.25)


def test_kernel_norm_initial_value_and_load():
    good = ExponentialKernel((1.0,), (2.0,))
    assert good.l1_norm == 0.5 and good.initial_value == 1.0
    bad = ExponentialKernel((1.0, 1.0), (1.0, 2.0))
    assert abs(bad.l1_norm - 1.5) < 1e-15 and bad.initial_value == 2.0
    # at a = 1 the weight is 1 and the load is the norm itself
    assert not ModePencil(1.0, 0.5, good).overloaded
    assert ModePencil(1.0, 0.5, bad).overloaded


# ------------------------------------------------------------ power laws


def test_family_validation():
    with pytest.raises(ValueError):
        PowerLawFamily(1.0, 1.0, 0.5, 0.5, 10)  # alpha + beta must exceed 1
    with pytest.raises(ValueError):
        PowerLawFamily(1.0, 1.0, 1.5, 1.0, 10)  # alpha capped at 1
    with pytest.raises(ValueError):
        PowerLawFamily(0.0, 1.0, 0.5, 1.0, 10)
    with pytest.raises(ValueError):
        PowerLawFamily(1.0, 1.0, 0.5, 1.0, 0)
    # bool is a subclass of int, but True is no count
    for count in (True, False, 10.0):
        with pytest.raises(ValueError, match="count must be a positive integer"):
            PowerLawFamily(1.0, 1.0, 0.5, 1.0, count)
    for amplitude, scale, beta in ((math.inf, 1.0, 1.0), (1.0, math.inf, 1.0), (1.0, 1.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            PowerLawFamily(amplitude, scale, 0.5, beta, 10)


def test_family_refuses_overflowing_terms():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="largest rate"):
            PowerLawFamily(1.0, 1.0, 0.5, 200.0, 100)  # 100**200 overflows
        with pytest.raises(ValueError, match="largest rate"):
            PowerLawFamily(1.0, 1e-10, 0.5, 160.0, 100)  # k**beta overflows before the scale
        with pytest.raises(ValueError, match="largest rate"):
            PowerLawFamily(1.0, 1e300, 0.5, 2.0, 10**5)  # the scale tips 1e10 over
        with pytest.raises(ValueError, match="amplitude/scale"):
            PowerLawFamily(1e300, 1e-300, 0.5, 2.0, 10)
        # just inside the range: 10**300 * 1e8 is finite and materializes
        kern = materialize(PowerLawFamily(1.0, 1e8, 0.5, 150.0, 100))
    assert kern.rates[-1] == 1e8 * 100.0**150.0


def test_regularity_exponent():
    assert PowerLawFamily(1.0, 1.0, 0.5, 1.0, 5).regularity == 0.5
    assert PowerLawFamily(1.0, 1.0, 1.0, 7.0, 5).regularity == 1.0  # exact
    assert abs(PowerLawFamily(1.0, 1.0, 0.75, 0.5, 5).regularity - 0.5) < 1e-15


def test_materialize_harmonic():
    kern = materialize(PowerLawFamily(1.0, 1.0, 1.0, 1.0, 3))
    assert kern.coeffs == (1.0, 0.5, 1.0 / 3.0)
    assert kern.rates == (1.0, 2.0, 3.0)
    assert abs(kern.l1_norm - 49.0 / 36.0) < 1e-15


def test_materialize_scaled():
    kern = materialize(PowerLawFamily(0.5, 2.0, 0.5, 1.0, 2))
    assert kern.coeffs == (0.5, 0.5 / math.sqrt(2.0))
    assert kern.rates == (2.0, 4.0)


def test_tail_bound_bounds_the_tail():
    fam = PowerLawFamily(1.0, 1.0, 0.5, 1.0, 100)
    # true tail sum_{k>100} k^-1.5 via Hurwitz zeta
    truth = float(mp.zeta(1.5, 101))
    bound = tail_bound(fam, 100, moment=1)
    assert truth < bound < 1.2 * truth
    # second moment controls how truncation moves the pair
    truth2 = float(mp.zeta(2.5, 101))
    bound2 = tail_bound(fam, 100, moment=2)
    assert truth2 < bound2 < 1.2 * truth2


def test_tail_bound_divergent_moment():
    fam = PowerLawFamily(1.0, 1.0, 0.5, 1.0, 100)
    with pytest.raises(ValueError):
        tail_bound(fam, 100, moment=0)  # sum c_k alone diverges here


@pytest.mark.parametrize("count", [0, -5, True, 2.0])
def test_tail_bound_refuses_a_count_that_is_not_a_positive_integer(count):
    # -5 once gave a complex "bound", 0 a ZeroDivisionError, True a bound at 1
    fam = PowerLawFamily(1.0, 1.0, 0.5, 1.0, 100)
    with pytest.raises(ValueError, match=f"count must be a positive integer, not {count!r}$"):
        tail_bound(fam, count)


# -------------------------------------------------- continuum comparisons


def test_continuum_laplace_log_value():
    # A=B=alpha=beta=1 at z=1: integral of dt/(t(1+t)) from 1 = log 2
    fam = PowerLawFamily(1.0, 1.0, 1.0, 1.0, 10)
    assert abs(continuum_laplace(fam, 1.0) - math.log(2.0)) < 1e-9


def test_continuum_laplace_real_on_real_axis():
    fam = PowerLawFamily(1.0, 1.0, 0.5, 1.0, 10)
    assert abs(continuum_laplace(fam, 3.0).imag) < 1e-12


def test_continuum_laplace_argument_guards():
    fam = PowerLawFamily(1.0, 1.0, 0.5, 1.0, 10)
    with pytest.raises(ValueError):
        continuum_laplace(fam, 0.0)
    with pytest.raises(ValueError):
        continuum_laplace(fam, complex(-1.0, 1e-3))  # hugging the cut


def test_laplace_tail_is_truncation_independent():
    # K_N + tail_N must not depend on N once the guard is satisfied
    z = 30.0 * complex(math.cos(0.7), math.sin(0.7))
    values = []
    for count in (500, 5000, 50000):
        fam = PowerLawFamily(1.0, 1.0, 0.5, 1.0, count)
        values.append(laplace(materialize(fam), z) + laplace_tail(fam, z))
    assert abs(values[0] - values[2]) < 1e-14
    assert abs(values[1] - values[2]) < 1e-14


def test_laplace_tail_agrees_with_brute_force():
    # independent route: exact ladder terms up to M, then the integral with
    # Euler-Maclaurin corrections (f(M)/2 - f'(M)/12 leaves ~1e-20 behind)
    fam = PowerLawFamily(0.7, 1.5, 0.5, 1.0, 200)
    z = 40.0 + 25.0j
    tail = laplace_tail(fam, z)
    with mp.workdps(30):
        big_m = 20000
        f = lambda t: mp.mpf("0.7") * t ** mp.mpf("-0.5") / (z + mp.mpf("1.5") * t)
        head = mp.fsum(f(mp.mpf(k)) for k in range(201, big_m))
        rest = mp.quad(f, [big_m, mp.inf])
        m = mp.mpf(big_m)
        fprime = mp.mpf("0.7") * (
            -mp.mpf("0.5") * m ** mp.mpf("-1.5") / (z + mp.mpf("1.5") * m)
            - mp.mpf("1.5") * m ** mp.mpf("-0.5") / (z + mp.mpf("1.5") * m) ** 2
        )
        brute = head + rest + f(m) / 2 - fprime / 12
        assert abs(tail - complex(brute)) < 1e-14


def test_laplace_tail_radius_guard():
    fam = PowerLawFamily(1.0, 1.0, 0.5, 1.0, 100)
    with pytest.raises(ValueError):
        laplace_tail(fam, 60.0)  # first dropped rate is 101


def test_laplace_tail_refuses_a_first_dropped_rate_past_the_double_range():
    # the largest rate 10**300 is finite, so the family is valid, but the
    # first dropped rate 11**300 is not: a named ValueError, not an OverflowError
    fam = PowerLawFamily(1.0, 1.0, 0.5, 300.0, 10)
    with pytest.raises(ValueError, match=r"first dropped rate .*11\*\*300\.0 is past the double range"):
        laplace_tail(fam, 1j)
    # a finite product past the range after the scale is refused the same way
    with pytest.raises(ValueError, match="first dropped rate"):
        laplace_tail(PowerLawFamily(1.0, 1e10, 0.5, 290.0, 10), 1j)


def test_the_pseudo_ladder_refuses_by_name_near_the_negative_real_axis():
    # the integrand's poles in ln(x) lie at Im u = arg(-z)/beta, so near the
    # negative real axis no bound is small, and on the real axis the share
    # of s2, -Im Khat/Im z, cannot be formed; off both every pass holds
    family = PowerLawFamily(1.0, 1.0, 0.5, 1.0, 10**5)
    kern, ends = pseudo_ladder(family)
    for z in (-24000.0 + 50j, -999.0 + 1.0j, 20000.0):
        with pytest.raises(NumericalError, match="pseudo-ladder's error bound at z = .* is not small"):
            laplace_pass(kern, z, ends)
    assert math.isinf(ends.bound(-24000.0 + 50j, 1.0, 1.0)[0])
    laplace_pass(kern, -24000.0 + 24000j, ends)


def test_the_pseudo_ladder_refuses_colliding_rates_in_constant_time():
    # the last two rates of a 10**5-term family with beta = 1e-12 round
    # together; the pseudo-ladder never holds them, so it checks their
    # relative gap, (1 + 1/(N - 1))**beta - 1 = 1e-17, apart
    with pytest.raises(ValueError, match="rates must be strictly increasing"):
        pseudo_ladder(PowerLawFamily(1.0, 1.0, 1.0, 1e-12, 100000))
    assert pseudo_ladder(PowerLawFamily(1.0, 1.0, 1.0, 1e-6, 100000))[1] is not None


@pytest.mark.parametrize("beta", (0.75, 1.0, 2.0))
def test_a_pass_sums_a_kernel_of_one_size_whatever_a_and_grows_like_ln_count(beta, monkeypatch):
    # the cost of a sweep mode, counted: every pass of its pair solve sums
    # the same pseudo-ladder at a = 1e2, 1e4 and 1e8 on a 10**6-term
    # family, and from 10**4 to 10**8 terms the pseudo-ladder grows like ln(count)
    import gpspectra.complex_pair as cp

    sizes, fused = [], cp.laplace_pass

    def counted(kernel, z, ends=None):
        sizes.append(kernel.size)
        return fused(kernel, z, ends)

    monkeypatch.setattr(cp, "laplace_pass", counted)
    kern, ends = pseudo_ladder(PowerLawFamily(1.0, 1.0, 0.5, beta, 10**6))
    for a in (1e2, 1e4, 1e8):
        sizes.clear()
        cp.solve_pair(ModePencil(a, 0.5, kern), ends=ends)
        assert sizes and set(sizes) == {kern.size}
    for count in (10**4, 10**6, 10**8):
        size = pseudo_ladder(PowerLawFamily(1.0, 1.0, 0.5, beta, count))[0].size
        assert size <= FSUM_MAX + 1 + 12 * (1.0 + beta * math.log(count) / kernels.PANEL_WIDTH)


def _family_sums(family, z):
    """(Khat, Khat', sum c/|z + g|, sum c/|z + g|**2) of the whole family, each term its exact value, in long double."""
    k = np.arange(1, family.count + 1, dtype=np.longdouble)
    c = np.longdouble(family.amplitude) / k ** np.longdouble(family.alpha)
    shifted = np.clongdouble(z) + np.longdouble(family.scale) * k ** np.longdouble(family.beta)
    moduli = c / np.abs(shifted)
    return np.sum(c / shifted), -np.sum(c / shifted**2), np.sum(moduli), np.sum(moduli / np.abs(shifted))


@pytest.mark.parametrize(
    "family, radius",
    [
        (PowerLawFamily(1.0, 1.0, 0.5, 1.0, 20000), 1000.0),
        (PowerLawFamily(0.7, 2.0, 0.8, 1.5, 30000), 3000.0),
        (PowerLawFamily(1.0, 1.0, 0.5, 1.0, 2000), 997.5),
        # alpha + beta near 1: the poles past the first 63 dwarf them
        (PowerLawFamily(1.0, 1.0, 0.3, 0.701, 100000), 500.0),
        (PowerLawFamily(1.0, 1.0, 0.3, 0.701, 100000), 50.0),
        # beta = 3: 20 panels, each 0.2 wide in ln(x)
        (PowerLawFamily(0.5, 2.0, 0.9, 3.0, 3000), 32.0),
    ],
    ids=["sqrt", "beta_1.5", "six_poles", "near_one_500", "near_one_50", "head_3"],
)
def test_far_pole_series_matches_the_summed_terms(family, radius):
    # the pseudo-ladder and its end corrections stand for every pole past
    # the first 63: on |z| = radius, off the real axis, they give the
    # family's transform and slope within their bound, and within 45
    # degrees of the imaginary axis or right of it to a few ulps of its
    # magnitude sums
    kern, ends = pseudo_ladder(family)
    assert kern.size < 400 < family.count
    for phi in np.linspace(-2.5, 2.5, 6):
        z = radius * complex(math.cos(phi), math.sin(phi))
        value, slope, moduli, squares = _family_sums(family, z)
        khat, dkhat, s1, s2, error, slope_error = laplace_pass(kern, z, ends)
        rounding = (kern.size + 16) * _EPS
        assert abs(khat - complex(value)) <= error + rounding * s1
        assert abs(dkhat - complex(slope)) <= slope_error + rounding * s2
        if abs(phi) <= 0.75 * math.pi:
            assert abs(khat - complex(value)) <= 8.0 * _EPS * float(moduli)
            assert abs(dkhat - complex(slope)) <= 8.0 * _EPS * float(squares)


_EPS = np.finfo(float).eps


@st.composite
def family_points(draw):
    """(family, z): a family of at most 2*10**5 terms and a point off the real axis."""
    uniform = lambda lo, hi: draw(st.floats(lo, hi))
    alpha = uniform(0.05, 1.0)
    beta = uniform(max(0.05, 1.001 - alpha), 3.0)
    count = int(10.0 ** uniform(2.0, math.log10(2e5)))
    family = PowerLawFamily(10.0 ** uniform(-2.0, 2.0), 10.0 ** uniform(-2.0, 2.0), alpha, beta, count)
    modulus = family.scale * 10.0 ** uniform(-1.0, beta * math.log10(count) + 1.0)
    return family, modulus * cmath.exp(1j * math.copysign(uniform(0.1, math.pi - 0.3), uniform(-1.0, 1.0)))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(family_points())
def test_a_far_pole_series_stays_within_its_stated_error(drawn):
    # the pseudo-ladder's bound is partly stated, not proven: this is its
    # check, against every term of the family summed in long double.  The
    # pass's own rounding, (n + 16) eps of s1 and s2, is what the disc adds
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("long double is no wider than double here")
    family, z = drawn
    kern, ends = pseudo_ladder(family)
    value, slope, moduli, squares = _family_sums(family, z)
    if ends is None:
        assert kern == materialize(family)
        return
    try:
        khat, dkhat, s1, s2, error, slope_error = laplace_pass(kern, z, ends)
    except NumericalError as refused:
        # only left of the imaginary axis can a pole of the integrand in
        # ln(x) come near enough to the panels for the bound to grow
        assert z.real < 0.0 and "pseudo-ladder's error bound" in str(refused)
        return
    rounding = (kern.size + 16) * _EPS
    assert abs(khat - complex(value)) <= error + rounding * s1
    assert abs(dkhat - complex(slope)) <= slope_error + rounding * s2
    assert s1 >= float(moduli) and s2 >= float(squares)
    if abs(cmath.phase(-z)) >= 0.25 * math.pi:
        # within 45 degrees of the imaginary axis, where sweeps run, or
        # right of it: the transform and slope are within a few ulps
        assert abs(khat - complex(value)) <= 8.0 * _EPS * float(moduli)
        assert abs(dkhat - complex(slope)) <= 8.0 * _EPS * float(squares)


def test_the_series_joins_the_pass_as_one_more_term():
    # the corrections' value and slope join the pseudo-ladder's pass once;
    # s1 and s2 bound the whole family's magnitude sums; the bound rides along
    family = PowerLawFamily(1.0, 1.0, 0.5, 1.0, 20000)
    (kern, ends), full = pseudo_ladder(family), materialize(family)
    for z in (1000j, 700.0 + 700.0j, -600.0 + 800.0j):
        khat, dkhat, s1, s2, error, slope_error = laplace_pass(kern, z, ends)
        value, slope, own_s1, own_s2, *zero = laplace_pass(kern, z)
        assert zero == [0.0, 0.0]
        assert 0.0 < abs(khat - value) < 1e-5 * abs(value) and 0.0 < abs(dkhat - slope) < 1e-5 * abs(slope)
        moduli = full._c / np.abs(z + full._g)
        assert s1 >= math.fsum(moduli) and s2 >= math.fsum(moduli / np.abs(z + full._g))
        assert (s1, s2) > (own_s1, own_s2)
        bound = ends.bound(z, own_s1, own_s2)
        assert bound[0] <= error <= 1e-12 * s1 and bound[1] <= slope_error <= 1e-12 * s2


def test_head_and_series_reproduce_the_whole_ladder():
    family = PowerLawFamily(1.0, 1.0, 0.5, 1.0, 100000)
    (kern, ends), full = pseudo_ladder(family), materialize(family)
    for z in (2000j, 1500.0 + 500j, -1500.0 + 1000.0j, 30.0 - 40.0j):
        khat, dkhat = laplace_pass(kern, z, ends)[:2]
        assert abs(khat / laplace(full, z) - 1) < 1e-14
        assert abs(dkhat / laplace_deriv(full, z) - 1) < 1e-13
    # a 100-term family: its first 63 poles, the two halves and one panel
    family = PowerLawFamily(1.0, 1.0, 0.5, 1.0, 100)
    (kern, ends), full = pseudo_ladder(family), materialize(family)
    assert kern.size == 77 and ends is not None
    for z in (2.0 + 3.0j, -1.5 + 0.5j, 4.0j):
        for part, want in zip(laplace_pass(kern, z, ends)[:2], laplace_with_deriv(full, z)):
            assert abs(part - want) <= 1e-15 * abs(want)


def test_a_head_is_an_ordinary_kernel():
    # the pseudo-ladder starts with the family's first 63 poles as
    # materialize builds them, and solves as the same ladder built from
    # its tuples does, bit for bit: roots, brackets and certificate
    family = PowerLawFamily(1.0, 1.0, 0.5, 1.0, 5000)
    kern, ends = pseudo_ladder(family)
    first = materialize(replace(family, count=FSUM_MAX - 1))
    assert ends is not None and kern.size == 161
    assert kern.coeffs[: FSUM_MAX - 1] == first.coeffs and kern.rates[: FSUM_MAX - 1] == first.rates
    rebuilt = ExponentialKernel(kern.coeffs, kern.rates)
    assert rebuilt == kern
    assert solve_mode(ModePencil(10.0, 0.5, kern)) == solve_mode(ModePencil(10.0, 0.5, rebuilt))


def test_a_series_head_carries_the_load_of_its_whole_ladder():
    # the pseudo-ladder's norm plus the corrections at z = 0 is the whole
    # family's sum c/g: at a weight just past the family's overload, the
    # gate refuses the pseudo-ladder with its corrections
    for family in (PowerLawFamily(1.0, 1.0, 0.5, 1.0, 100000), PowerLawFamily(1.0, 1.0, 0.5, 1.0, 100)):
        (kern, ends), full = pseudo_ladder(family), materialize(family)
        assert ends is not None
        xi = 0.5  # w = 1/a
        a = full.l1_norm * (1.0 - 1e-6)
        assert ModePencil(a, xi, full).overloaded
        with pytest.raises(InadmissibleModeError) as refused:
            ModePencil(a, xi, kern).check_load(ends)
        assert abs(refused.value.load / ModePencil(a, xi, full).load - 1) < 1e-14
        ModePencil(2.0 * a, xi, kern).check_load(ends)


def test_head_reaching_count_materializes_the_whole_ladder():
    # a family no longer than its pseudo-ladder would be is summed whole
    for count in (1, FSUM_MAX, 77):
        family = PowerLawFamily(1.0, 1.0, 0.5, 1.0, count)
        kern, ends = pseudo_ladder(family)
        assert ends is None and kern == materialize(family)
    kern, ends = pseudo_ladder(PowerLawFamily(1.0, 1.0, 0.5, 1.0, 78))
    assert ends is not None and kern.size == 77


def test_kernel_arrays_are_the_validated_ones():
    kern = ExponentialKernel([0.5, 0.25], [1.0, 3.0])
    assert kern.coeffs == (0.5, 0.25) and kern.rates == (1.0, 3.0)
    assert kern._c.tolist() == [0.5, 0.25] and kern._g.tolist() == [1.0, 3.0]
    assert not kern._c.flags.writeable
    assert hash(kern) == hash(ExponentialKernel((0.5, 0.25), (1.0, 3.0)))


def test_kernels_from_tuples_and_from_arrays_are_one_kernel():
    c, g = (0.5, 0.25, 0.125), (1.0, 3.0, 7.5)
    from_tuples, from_arrays = ExponentialKernel(c, g), ExponentialKernel(np.array(c), np.array(g))
    assert from_tuples == from_arrays
    assert hash(from_tuples) == hash(from_arrays)
    assert len({from_tuples, from_arrays}) == 1
    assert from_arrays.coeffs == c and from_arrays.rates == g
    assert from_tuples != ExponentialKernel(c, (1.0, 3.0, 7.75))
    assert from_tuples != ExponentialKernel(c[:2], g[:2])
    with pytest.raises(AttributeError):
        from_tuples.tail = None
    family = PowerLawFamily(1.0, 1.0, 0.5, 1.0, 500)
    full = materialize(family)
    assert full == ExponentialKernel(full.coeffs, full.rates)


def test_each_radius_series_matches_the_summed_terms():
    # one pseudo-ladder serves every radius a sweep reaches
    family = PowerLawFamily(0.7, 2.0, 0.8, 1.5, 30000)
    kern, ends = pseudo_ladder(family)
    for radius in (30.0, 300.0, 3000.0):
        for phi in np.linspace(-2.5, 2.5, 6):
            z = radius * complex(math.cos(phi), math.sin(phi))
            value, _, moduli, _ = _family_sums(family, z)
            khat, _, s1, _, error, _ = laplace_pass(kern, z, ends)
            assert abs(khat - complex(value)) <= error + (kern.size + 16) * _EPS * s1
            if abs(phi) <= 0.75 * math.pi:
                assert abs(khat - complex(value)) <= 8.0 * _EPS * float(moduli)


def test_sweep_and_far_pole_series_run_without_mpmath(tmp_path):
    # mpmath blocked from import: a family sweep and the tail of a
    # million-term family still run, so the runtime needs numpy alone
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "job": "sweep",
        "kernel": {"family": {"amplitude": 1.0, "scale": 1.0,
                              "alpha": 0.5, "beta": 1.0, "count": 164415}},
        "xi": 0.5,
        "modes": {"a_min": 100.0, "factor": 2.5118864315095801, "count": 6},
    }), encoding="utf-8")
    out_csv = tmp_path / "sweep.csv"
    probe = "\n".join([
        "import sys",
        "sys.modules['mpmath'] = None",
        "import gpspectra, gpspectra.cli",
        f"code = gpspectra.cli.main(['sweep', '--config', {str(config)!r}, '--out', {str(out_csv)!r}])",
        "family = gpspectra.PowerLawFamily(1.0, 1.0, 0.5, 1.0, 10**6)",
        "tail = gpspectra.laplace_tail(family, 3e5 + 4e5j)",
        "print(code, sys.modules['mpmath'], tail != 0)",
    ])
    src = str(Path(kernels.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, encoding="utf-8", timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0", "None", "True"]
    rows = out_csv.read_text(encoding="utf-8").splitlines()
    assert sum(not row.startswith("#") for row in rows) == 7


def test_bounded_gap_between_ladder_and_continuum():
    # |z| * |Khat - h| stays O(1) along the quarter-turn ray; the ladder
    # side needs its dropped tail restored or the comparison is unfair to
    # the integral, which keeps all its mass.
    fam = PowerLawFamily(1.0, 1.0, 0.5, 1.0, 100000)
    kern = materialize(fam)
    products = []
    for x in (10.0, 100.0, 1000.0):
        z = x * complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
        khat = laplace(kern, z) + laplace_tail(fam, z)
        products.append(x * abs(khat - continuum_laplace(fam, z)))
    assert max(products) < 2.0 * min(products)
    assert max(products) < 1.0


def test_asymptotic_form_r_equals_one():
    fam = PowerLawFamily(1.0, 1.0, 1.0, 1.0, 10)
    value = laplace_asymptotic(fam, 1000.0)
    assert abs(value - math.log(1001.0) / 1000.0) < 1e-15


def test_asymptotic_form_converges_from_above():
    # relative error of the leading term shrinks as |z| grows
    fam = PowerLawFamily(1.0, 1.0, 0.5, 1.0, 200000)
    kern = materialize(fam)
    errs = []
    for x in (100.0, 1000.0, 10000.0):
        z = x * complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
        khat = laplace(kern, z) + laplace_tail(fam, z)
        errs.append(abs(laplace_asymptotic(fam, z) - khat) / abs(khat))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-2


def test_angular_integral_closed_forms():
    # phi=0, r=1/2: integral dt/(sqrt(t)(1+t)) = pi
    assert abs(angular_integral(0.5, 0.0) - math.pi) < 1e-9
    # the oscillation constant is (i/2) times the quarter-turn integral
    quarter = angular_integral(0.5, math.pi / 2.0)
    assert abs(0.5j * quarter - asymptotic_constant(0.5)) < 1e-9


def test_angular_integral_domain():
    with pytest.raises(ValueError):
        angular_integral(1.0, 0.0)
    with pytest.raises(ValueError):
        angular_integral(0.5, math.pi)
