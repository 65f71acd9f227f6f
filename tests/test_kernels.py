"""Kernel ladders, their transforms, and the power-law family plumbing."""

import cmath
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp

from gpspectra import (
    ExponentialKernel,
    ModePencil,
    NumericalError,
    PoleProximityError,
    PowerLawFamily,
    RectContour,
    TailSeries,
    admissibility_report,
    angular_integral,
    asymptotic_constant,
    branch_convergence,
    branch_roots,
    build_mode_system,
    continuum_laplace,
    count_zeros,
    laplace,
    laplace_asymptotic,
    laplace_deriv,
    laplace_tail,
    laplace_with_deriv,
    materialize,
    materialize_within,
    materialize_within_each,
    solve_mode,
    spectrum_contour,
    stiffness_roots,
    symbol,
    symbol_deriv,
    symbol_with_deriv,
    tail_bound,
    to_polynomial,
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
    assert np.max(np.abs(fd - laplace_deriv(kern, pts))) < 1e-6


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
                    laplace_deriv(p.kernel, point)
            with pytest.raises(PoleProximityError):
                laplace_with_deriv(p.kernel, z)


@pytest.mark.parametrize(
    "coeffs, rates, a, xi", [PINCHED_FIVE, PINCHED_EIGHT], ids=["PINCHED_FIVE", "PINCHED_EIGHT"]
)
def test_symbol_is_finite_at_every_resolved_root(coeffs, rates, a, xi):
    # pool entry 619 (PINCHED_EIGHT): branch 5's root lies 61 ulps of its
    # rate from its pole, branch 8's 83 ulps (1.474e-13 from -15.0505)
    p = ModePencil(a, xi, ExponentialKernel(coeffs, rates))
    result = solve_mode(p, certify=False)
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
    kernels = [materialize_within(PowerLawFamily(1.0, 1.0, 0.5, 1.0, 5000), 30.0)]
    kernels += [_random_ladder(rng, size) for size in (1, 2, 5, 40, FSUM_MAX)]
    for kern in kernels:
        assert kern.size <= FSUM_MAX
        reach = min(kern.rates[-1], 90.0, kern.tail.radius if kern.tail else math.inf)
        for _ in range(8):
            z = cmath.rect(rng.uniform(0.0, reach), rng.uniform(-math.pi, math.pi))
            fused = laplace_with_deriv(kern, z)
            assert fused == (laplace(kern, z), laplace_deriv(kern, z))
            mode = ModePencil(10.0, 0.5, kern)
            assert symbol_with_deriv(mode, z) == (symbol(mode, z), symbol_deriv(mode, z))
            shifted = z + kern._g
            value = _fsum_terms(kern._c / shifted)
            slope = _fsum_terms(-kern._c / shifted**2)
            if kern.tail is not None:
                # the series' slope coefficients, formed as they always were
                r = kern.tail.radius
                slopes = [j * u for j, u in enumerate(kern.tail.coeffs)][1:]
                tail_slope = 0.0
                for u in reversed(slopes):
                    tail_slope = tail_slope * (-z / r) + u
                assert kern.tail.deriv(z) == tail_slope / -r
                value += kern.tail.value(z)
                slope += kern.tail.deriv(z)
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
    if which == "head_and_series":
        kern = materialize_within(PowerLawFamily(1.0, 1.0, 0.5, 1.0, 10**5), 25000.0)
        points = [-3.0 + 12500j, 12000.0 + 3000j, -24000.0 + 50j, 30.0 - 40.0j]
    elif which == "head_199_and_series":
        kern = materialize_within(PowerLawFamily(1.0, 1.0, 0.5, 1.0, 5000), 100.0)
        assert kern.size == 199
        points = [-3.0 + 99j, 60.0 + 70j, -99.0 + 0.5j, 30.0 - 40.0j, -37.5 + 1e-3j]
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
        if kern.tail is not None:
            value += kern.tail.value(z)
            slope += kern.tail.deriv(z)
            value_scale += abs(kern.tail.value(z))
            slope_scale += abs(kern.tail.deriv(z))
        fused_value, fused_slope = laplace_with_deriv(kern, z)
        assert abs(fused_value - value) <= 1e-14 * value_scale
        assert abs(fused_slope - slope) <= 1e-14 * slope_scale
        # the scalar transforms are the blocked pass's halves
        assert (laplace(kern, z), laplace_deriv(kern, z)) == (fused_value, fused_slope)


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


def test_admissibility_report():
    good = admissibility_report(ExponentialKernel((1.0,), (2.0,)))
    assert good.admissible and good.l1_norm == 0.5 and good.initial_value == 1.0
    assert math.isnan(good.spacing_supremum)

    bad = admissibility_report(ExponentialKernel((1.0, 1.0), (1.0, 2.0)))
    assert not bad.admissible
    assert abs(bad.l1_norm - 1.5) < 1e-15
    assert bad.spacing_supremum == 1.0  # g_1 * (g_2 - g_1)


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


def test_regularity_exponent():
    assert PowerLawFamily(1.0, 1.0, 0.5, 1.0, 5).regularity == 0.5
    assert PowerLawFamily(1.0, 1.0, 1.0, 7.0, 5).regularity == 1.0  # exact
    assert abs(PowerLawFamily(1.0, 1.0, 0.75, 0.5, 5).regularity - 0.5) < 1e-15


def test_materialize_harmonic():
    kern = materialize(PowerLawFamily(1.0, 1.0, 1.0, 1.0, 3))
    assert kern.coeffs == (1.0, 0.5, 1.0 / 3.0)
    assert kern.rates == (1.0, 2.0, 3.0)
    assert abs(admissibility_report(kern).l1_norm - 49.0 / 36.0) < 1e-15


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


# -------------------------------------------------- continuum comparisons


def test_continuum_laplace_log_value():
    # A=B=alpha=beta=1 at z=1: integral of dt/(t(1+t)) from 1 = log 2
    fam = PowerLawFamily(1.0, 1.0, 1.0, 1.0, 10)
    assert abs(continuum_laplace(fam, 1.0) - math.log(2.0)) < 1e-9


def test_continuum_laplace_finite_cutoff():
    # truncating at t_max=2 gives log(4/3) instead
    fam = PowerLawFamily(1.0, 1.0, 1.0, 1.0, 10)
    value = continuum_laplace(fam, 1.0, t_max=2.0)
    assert abs(value - math.log(4.0 / 3.0)) < 1e-9


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


@pytest.mark.parametrize(
    "family, radius",
    [
        (PowerLawFamily(1.0, 1.0, 0.5, 1.0, 20000), 1000.0),
        (PowerLawFamily(0.7, 2.0, 0.8, 1.5, 30000), 3000.0),
        # six poles past the head: a difference of two whole-tail sums cancels
        (PowerLawFamily(1.0, 1.0, 0.5, 1.0, 2000), 997.5),
        # alpha + beta near 1: the tail sums dwarf the part kept
        (PowerLawFamily(1.0, 1.0, 0.3, 0.701, 100000), 500.0),
        (PowerLawFamily(1.0, 1.0, 0.3, 0.701, 100000), 50.0),
        # a three-term head: the first poles past it are summed directly
        (PowerLawFamily(0.5, 2.0, 0.9, 3.0, 3000), 32.0),
    ],
    ids=["sqrt", "beta_1.5", "six_poles", "near_one_500", "near_one_50", "head_3"],
)
def test_far_pole_series_matches_the_summed_terms(family, radius):
    kern = materialize_within(family, radius)
    full = materialize(family)
    m = kern.size
    assert m < family.count
    assert full.rates[m] >= 2.0 * radius > full.rates[m - 1]
    c, g = full._c[m:], full._g[m:]
    for phi in np.linspace(-math.pi, math.pi, 13):
        z = radius * complex(math.cos(phi), math.sin(phi))
        terms = c / (z + g)
        direct = complex(math.fsum(terms.real), math.fsum(terms.imag))
        assert abs(kern.tail.value(z) - direct) <= 1e-14 * abs(direct)
        slopes = -c / (z + g) ** 2
        direct = complex(math.fsum(slopes.real), math.fsum(slopes.imag))
        assert abs(kern.tail.deriv(z) - direct) <= 1e-14 * abs(direct)


def test_head_and_series_reproduce_the_whole_ladder():
    family = PowerLawFamily(1.0, 1.0, 0.5, 1.0, 100000)
    kern, full = materialize_within(family, 2000.0), materialize(family)
    points = np.array([2000j, 1500.0 + 500j, -1999.0 + 1.0j, 30.0 - 40.0j])
    assert np.all(np.abs(laplace(kern, points) / laplace(full, points) - 1) < 1e-14)
    for z in points:
        assert abs(laplace(kern, z) / laplace(full, z) - 1) < 1e-14
        assert abs(laplace_deriv(kern, z) / laplace_deriv(full, z) - 1) < 1e-13


def test_head_reaching_count_materializes_the_whole_ladder():
    family = PowerLawFamily(1.0, 1.0, 0.5, 1.0, 64)
    kern = materialize_within(family, 20000.0)
    assert kern.tail is None
    assert kern == materialize(family)


def test_laplace_outside_the_series_radius_raises():
    kern = materialize_within(PowerLawFamily(1.0, 1.0, 0.5, 1.0, 5000), 100.0)
    edge = 100.0 * complex(math.cos(2.0), math.sin(2.0))
    laplace(kern, edge)  # on the radius itself the series still holds
    for z in (100.000001j, 1.001 * edge, np.array([1j, 150.0])):
        with pytest.raises(NumericalError):
            laplace(kern, z)
        with pytest.raises(NumericalError):
            laplace_deriv(kern, z)


def test_kernel_arrays_are_the_validated_ones():
    kern = ExponentialKernel([0.5, 0.25], [1.0, 3.0])
    assert kern.coeffs == (0.5, 0.25) and kern.rates == (1.0, 3.0)
    assert kern._c.tolist() == [0.5, 0.25] and kern._g.tolist() == [1.0, 3.0]
    assert not kern._c.flags.writeable
    assert kern == ExponentialKernel((0.5, 0.25), (1.0, 3.0), None)
    assert hash(kern) == hash(ExponentialKernel((0.5, 0.25), (1.0, 3.0)))


def test_kernels_from_tuples_and_from_arrays_are_one_kernel():
    c, g = (0.5, 0.25, 0.125), (1.0, 3.0, 7.5)
    from_tuples, from_arrays = ExponentialKernel(c, g), ExponentialKernel(np.array(c), np.array(g))
    assert from_tuples == from_arrays
    assert hash(from_tuples) == hash(from_arrays)
    assert len({from_tuples, from_arrays}) == 1
    assert from_arrays.coeffs == c and from_arrays.rates == g
    assert from_tuples != ExponentialKernel(c, (1.0, 3.0, 7.75))
    assert from_tuples != ExponentialKernel(c, g, TailSeries((1.0,), 0.25))
    with pytest.raises(AttributeError):
        from_tuples.tail = None
    family = PowerLawFamily(1.0, 1.0, 0.5, 1.0, 500)
    full = materialize(family)
    assert full == ExponentialKernel(full.coeffs, full.rates)
    short = materialize(PowerLawFamily(1.0, 1.0, 0.5, 1.0, 100))
    assert full.head(100) == short and hash(full.head(100)) == hash(short)
    assert np.shares_memory(full.head(100)._c, full._c)


def test_each_radius_gets_the_head_materialize_within_gives():
    family = PowerLawFamily(1.0, 1.0, 0.5, 1.0, 10**6)
    radii = [200.0, 1000.0, 5000.0, 25000.0]
    each = materialize_within_each(family, radii)
    assert [k.size for k in each] == [399, 1999, 9999, 49999]
    for kern, radius in zip(each, radii):
        alone = materialize_within(family, radius)
        assert kern.size == alone.size and kern.tail.radius == radius
        assert np.shares_memory(kern._g, each[-1]._g)
        assert kern.tail == alone.tail
    assert each[-1] == materialize_within(family, radii[-1])
    # a family of at most FSUM_MAX terms is summed whole at every radius
    small = PowerLawFamily(1.0, 1.0, 0.5, 1.0, FSUM_MAX)
    assert materialize_within_each(small, [5.0, 500.0]) == [materialize(small)] * 2


def test_each_radius_series_matches_the_summed_terms():
    family = PowerLawFamily(0.7, 2.0, 0.8, 1.5, 30000)
    radii = [30.0, 300.0, 3000.0]
    full = materialize(family)
    for kern, radius in zip(materialize_within_each(family, radii), radii):
        c, g = full._c[kern.size :], full._g[kern.size :]
        for phi in np.linspace(-math.pi, math.pi, 7):
            z = radius * complex(math.cos(phi), math.sin(phi))
            terms = c / (z + g)
            direct = complex(math.fsum(terms.real), math.fsum(terms.imag))
            assert abs(kern.tail.value(z) - direct) <= 1e-14 * abs(direct)


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
    }))
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
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0", "None", "True"]
    rows = out_csv.read_text(encoding="utf-8").splitlines()
    assert sum(not row.startswith("#") for row in rows) == 7


def _series_pencil() -> ModePencil:
    kern = materialize_within(PowerLawFamily(1.0, 1.0, 0.5, 1.0, 2000), 100.0)
    return ModePencil(frequency=50.0, xi=0.5, kernel=kern)


#: every entry point that needs each pole of the kernel
NEEDS_EVERY_POLE = {
    "branch_roots": lambda p: branch_roots(p, 3),
    "stiffness_roots": lambda p: stiffness_roots(p, 3),
    "branch_convergence": lambda p: branch_convergence([p, ModePencil(60.0, p.xi, p.kernel)], 2),
    "spectrum_contour": lambda p: spectrum_contour(p, 3),
    "count_zeros": lambda p: count_zeros(p, RectContour(-10.0, 10.0, -60.0, 60.0)),
    "solve_mode": solve_mode,
    "to_polynomial": to_polynomial,
    "build_mode_system": build_mode_system,
    "admissibility_report": lambda p: admissibility_report(p.kernel),
    "l1_norm": lambda p: p.kernel.l1_norm,
    "initial_value": lambda p: p.kernel.initial_value,
}


@pytest.mark.parametrize("name", sorted(NEEDS_EVERY_POLE))
def test_whatever_needs_every_pole_refuses_a_series_kernel(name):
    with pytest.raises(ValueError, match="needs every pole"):
        NEEDS_EVERY_POLE[name](_series_pencil())


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
