"""Independent cross-checks: simultaneous roots, ODE realisation, decay."""

import ast
import cmath
import itertools
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import gpspectra.oracle
from gpspectra import (
    ExponentialKernel,
    ModePencil,
    aberth_roots,
    build_mode_system,
    match_roots,
    simulate_decay,
    to_polynomial,
)
from gpspectra.errors import MaxIterationsError, NumericalError
from gpspectra.oracle import (
    ABERTH_RESIDUAL,
    COMPANION_RESOLUTION,
    NEAR_REAL,
    QUANT_BITS,
    _companion_start,
    _min_cost_assignment,
    _newton_ratio,
    _numerators,
    _powers,
)
from conftest import (
    CLUSTER_TWELVE,
    MU_1,
    PAIR,
    PINCHED_EIGHT,
    PINCHED_FIVE,
    SPURIOUS_PAIR_LADDERS,
    WIDE_LADDERS,
    recipe_sample,
    refusal_pencil,
)


#: the pinned ladders and a seeded sample of the pool recipe
STOP_POINT_PENCILS = [
    ModePencil(10.0, 0.5, ExponentialKernel((1.0,), (2.0,))),
    *(ModePencil(a, xi, ExponentialKernel(c, g)) for c, g, a, xi in (PINCHED_FIVE, PINCHED_EIGHT, CLUSTER_TWELVE)),
    *recipe_sample(seed=2718, per_size=4),
]


def _scaled(q: np.ndarray, e: int) -> np.ndarray:
    """The exact coefficients of 2**(e*deg) q(z / 2**e), whose roots are 2**e
    times those of q."""
    s = Fraction(2) ** e
    deg = len(q) - 1
    return np.array([c * s ** (deg - k) for k, c in enumerate(q)], dtype=object)


#: the pinned ladders with their roots moved by powers of two, far below
#: and far above one
SCALED_LADDERS = [
    pytest.param(ladder, e, id=f"{name}*2^{e}")
    for name, ladder in (("PINCHED_FIVE", PINCHED_FIVE), ("PINCHED_EIGHT", PINCHED_EIGHT), ("CLUSTER_TWELVE", CLUSTER_TWELVE))
    for e in (-60, -30, 30)
]


# ------------------------------------------------------------ aberth roots


def test_pure_quadratic():
    roots = aberth_roots([1.0, 0.0, 1.0])
    match = match_roots(roots, [1j, -1j])
    assert match.max_relative_deviation < 1e-15


def test_cleared_cubic_frozen_roots():
    roots = aberth_roots([190.0, 100.0, 2.0, 1.0])
    match = match_roots(roots, [MU_1, PAIR, PAIR.conjugate()])
    assert match.max_relative_deviation < 1e-14


def test_exact_rational_coefficients(cubic):
    # object-dtype Fractions are read as the rationals they are
    roots = aberth_roots(to_polynomial(cubic))
    match = match_roots(roots, [MU_1, PAIR, PAIR.conjugate()])
    assert match.max_relative_deviation < 1e-14


@pytest.mark.parametrize(
    "coeffs",
    [
        [190.0, 100.0, 2.0, 1.0],
        [190.0 + 0j, 100.0 + 0j, 2.0 + 0j, 1.0 + 0j],
        np.array([190, 100, 2, 1], dtype=np.longdouble),
        [Fraction(190), Fraction(100), Fraction(2), Fraction(1)],
    ],
    ids=["float", "complex", "longdouble", "fraction"],
)
def test_every_coefficient_type_is_polished_exactly(coeffs):
    # only exact Newton ratios return the frozen roots bit for bit, and the
    # real root with an imaginary part of exactly zero
    roots = aberth_roots(coeffs)
    assert sorted(roots.tolist(), key=lambda z: (z.imag, z.real)) == [
        PAIR.conjugate(), MU_1 + 0j, PAIR,
    ]


def test_polish_is_exact_for_non_binary_rationals():
    # (3z - 1)(3z - 2): roots are the rounded 1/3, 2/3
    roots = aberth_roots([Fraction(2), Fraction(-9), Fraction(9)])
    assert sorted(roots.tolist(), key=lambda z: z.real) == [1 / 3, 2 / 3]
    # (z - i)(z - 2i) has a coefficient that is not real
    with pytest.raises(ValueError, match="not real"):
        aberth_roots([-2.0 + 0j, -3j, 1.0 + 0j])


def test_numerators_keep_every_bit_of_a_longdouble():
    third = np.longdouble(1) / 3
    read = _numerators(np.array([third, 1], dtype=np.longdouble))
    assert read == _numerators([Fraction(*third.as_integer_ratio()), 1])
    assert read != _numerators([float(third), 1])


def _mp_newton(coeffs, seeds, digits=40):
    """Roots from a Newton iteration at ``digits`` digits on exact rational coefficients."""
    with mp.workdps(digits):
        descending = [mp.mpf(c.numerator) / c.denominator for c in coeffs[::-1]]
        out = []
        for seed in seeds:
            root = mp.mpc(complex(seed))
            for _ in range(8):
                value, deriv = mp.polyval(descending, root, derivative=True)
                root -= value / deriv
            out.append(complex(root))
    return np.array(out)


def test_power_table_columns_are_the_powers():
    z = np.array([0.5 + 2j, -3.0, 1e5j], dtype=np.clongdouble)
    v = _powers(z, 4)
    assert v.shape == (3, 5) and np.all(v[:, 0] == 1)
    for j in range(1, 5):
        assert np.all(v[:, j] == v[:, j - 1] * z)


def test_one_more_sweep_moves_no_root(monkeypatch):
    # the sweeps stop when no iterate moves: one more sweep from the
    # returned roots, every one of them evaluated afresh, moves none
    polys = [to_polynomial(p) for p in STOP_POINT_PENCILS]
    found = [aberth_roots(q) for q in polys]
    monkeypatch.setattr(gpspectra.oracle, "ABERTH_MAX_SWEEPS", 1)
    for p, q, roots in zip(STOP_POINT_PENCILS, polys, found):
        monkeypatch.setattr(gpspectra.oracle, "_companion_start", lambda c: roots)
        assert aberth_roots(q).tobytes() == roots.tobytes(), p


@pytest.mark.parametrize("ladder,e", SCALED_LADDERS)
def test_sweeps_stop_relative_to_each_root(ladder, e):
    # no iterate moving is a test on each root's own last bit, so roots far
    # below or above one come out as the exactly scaled roots
    c, g, a, xi = ladder
    q = to_polynomial(ModePencil(a, xi, ExponentialKernel(c, g)))
    roots = aberth_roots(_scaled(q, e))
    assert np.sort_complex(roots).tobytes() == np.sort_complex(aberth_roots(q) * 2.0**e).tobytes()


def _fewest_sweeps(monkeypatch, poly) -> int:
    """The smallest ABERTH_MAX_SWEEPS under which ``poly`` is solved."""
    for cap in itertools.count(1):
        monkeypatch.setattr(gpspectra.oracle, "ABERTH_MAX_SWEEPS", cap)
        try:
            aberth_roots(poly)
        except MaxIterationsError:
            continue
        return cap


def test_sweeps_per_mode_stay_few(monkeypatch):
    sample = STOP_POINT_PENCILS[4:]
    sweeps = [_fewest_sweeps(monkeypatch, to_polynomial(p)) for p in sample]
    # 113 sweeps for 48 modes (2.35), the last of each moving no iterate
    assert sum(sweeps) / len(sample) <= 2.4


def test_exact_evaluations_per_root_stay_few(monkeypatch):
    # 777 exact evaluations for the 408 roots (1.90 a root), the companion
    # start's included; 830 (2.03) if an iterate on a real grid point took
    # the imaginary part of its step, 873 (2.14) if no lower iterate took
    # the conjugate ratio
    calls = []

    def counting(nums, z):
        calls.append(z)
        return _newton_ratio(nums, z)

    monkeypatch.setattr(gpspectra.oracle, "_newton_ratio", counting)
    roots = sum(aberth_roots(to_polynomial(p)).size for p in STOP_POINT_PENCILS[4:])
    assert roots == 408
    assert len(calls) / roots <= 1.91


@pytest.mark.parametrize(
    "ladder",
    [PINCHED_FIVE, PINCHED_EIGHT, CLUSTER_TWELVE],
    ids=["five", "eight", "cluster-twelve"],
)
def test_pinched_roots_match_a_multiprecision_newton(ladder):
    coeffs, rates, a, xi = ladder
    poly = list(to_polynomial(ModePencil(a, xi, ExponentialKernel(coeffs, rates))))
    roots = aberth_roots(poly)
    assert len(set(roots.tolist())) == len(rates) + 2
    reference = _mp_newton(poly, roots)
    pair = np.argsort(np.abs(roots.imag))[-2:]
    real = np.argsort(np.abs(roots.imag))[:-2]
    assert np.array_equal(roots[pair], reference[pair])
    assert np.array_equal(roots[real].real, reference[real].real)
    assert np.all(roots[real].imag == 0.0)


@pytest.mark.parametrize("ladder", WIDE_LADDERS.values(), ids=WIDE_LADDERS.keys())
def test_wide_and_clustered_ladders_come_out_correctly_rounded(ladder):
    # each root is the rounded limit of a 100-digit Newton iteration from
    # itself, so it is the correctly rounded value of some root; one
    # distinct root per degree makes them all the roots
    coeffs, rates, a, xi = ladder
    poly = list(to_polynomial(ModePencil(a, xi, ExponentialKernel(coeffs, rates))))
    roots = aberth_roots(poly)
    assert len(set(roots.tolist())) == len(rates) + 2
    assert np.sum(roots.imag == 0.0) == len(rates)
    assert np.array_equal(roots, _mp_newton(poly, roots, digits=100))


def _companion(poly):
    """The double companion matrix of the monic cleared polynomial."""
    c = np.array([float(Fraction(x) / poly[-1]) for x in poly])
    n = c.size - 1
    m = np.zeros((n, n))
    m[1:, :-1] = np.eye(n - 1)
    m[:, -1] = -c[:-1]
    return m


@pytest.mark.parametrize("ladder", SPURIOUS_PAIR_LADDERS.values(), ids=SPURIOUS_PAIR_LADDERS.keys())
def test_spurious_companion_pairs_split_onto_real_roots(ladder):
    coeffs, rates, a, xi = ladder
    poly = list(to_polynomial(ModePencil(a, xi, ExponentialKernel(coeffs, rates))))
    n = len(rates)
    # the real companion's eigenvalues hold a pair beside the true one
    assert np.sum(np.linalg.eigvals(_companion(poly)).imag != 0) > 2
    roots = aberth_roots(poly)
    assert roots.size == n + 2
    assert np.sum(roots.imag == 0.0) == n
    upper, lower = roots[roots.imag > 0], roots[roots.imag < 0]
    assert upper.size == lower.size == 1
    assert upper.conjugate().tobytes() == lower.tobytes()
    assert np.array_equal(roots, _mp_newton(poly, roots))


def test_near_real_companion_pairs_start_apart():
    # a pair within NEAR_REAL of the real line moves along it by its
    # imaginary part; the real eigenvalues and the true pair stay put
    coeffs, rates, a, xi = SPURIOUS_PAIR_LADDERS["725"]
    poly = list(to_polynomial(ModePencil(a, xi, ExponentialKernel(coeffs, rates))))
    c = np.array([float(Fraction(x) / poly[-1]) for x in poly])
    seeds = np.linalg.eigvals(_companion(poly))
    near = (seeds.imag != 0) & (np.abs(seeds.imag) < NEAR_REAL * np.abs(seeds.real))
    assert np.sum(near) >= 2 and np.sum(seeds.imag != 0) == np.sum(near) + 2
    moved = np.where(near, seeds + seeds.imag, seeds)
    assert np.array_equal(np.sort_complex(_companion_start(c)), np.sort_complex(moved))
    # a true pair that close to the real line is still found: (z + 46)**2 + 1e-4
    roots = aberth_roots([2116 + Fraction(1, 10**4), 92, 1])
    assert sorted(roots.tolist(), key=lambda z: z.imag) == [-46 - 0.01j, -46 + 0.01j]


@pytest.mark.parametrize(
    "delta",
    [
        Fraction(1, 10**16), Fraction(1, 10**18), Fraction(-1, 10**17), Fraction(1, 10**20),
        Fraction(-1, 10**20), Fraction(-1, 10**30),
    ],
)
def test_near_double_roots_keep_their_shape(delta):
    # (z + 1)**2 + delta: the double companion gives -1 twice for either
    # sign, so the real pair starts off the axis on the diagonal, where the
    # sweeps can leave it for a conjugate pair or stay real; each Newton
    # ratio is exact, so the roots come out correctly rounded also where
    # delta lies far below the double resolution of the coefficients
    poly = [1 + delta, 2, 1]
    x = np.linalg.eigvals(_companion(poly))
    assert np.all(x.imag == 0.0) and x[0] == x[1]
    h = COMPANION_RESOLUTION / 2 * abs(x[0])
    start = _companion_start(np.array([1.0, 2.0, 1.0]))
    assert start.tolist() == [x[0] - h + 1j * h, x[0] + h - 1j * h]
    roots = aberth_roots(poly)
    if delta > 0:
        assert np.all(roots.imag != 0.0) and roots[0] == roots[1].conjugate()
    else:
        assert np.all(roots.imag == 0.0) and roots[0] != roots[1]
    assert np.array_equal(roots, _mp_newton(poly, roots))


def test_an_exact_conjugate_reuses_the_ratio(monkeypatch):
    points = []

    def recording(nums, z):
        points.append(z)
        return _newton_ratio(nums, z)

    monkeypatch.setattr(gpspectra.oracle, "_newton_ratio", recording)
    # z**2 + 1 from the start 0.5 -+ i: the lower point is the exact
    # conjugate of the upper one and takes its ratio's conjugate
    monkeypatch.setattr(gpspectra.oracle, "_companion_start", lambda c: np.array([0.5 - 1j, 0.5 + 1j]))
    roots = aberth_roots([1, 0, 1])
    assert sorted(roots.tolist(), key=lambda z: z.imag) == [-1j, 1j]
    assert all(z.imag > 0 for z in points)
    # a lower start one bit off the conjugate is evaluated where it stands
    near = complex(0.5, -1.0 - 2.0**-52)
    points.clear()
    monkeypatch.setattr(gpspectra.oracle, "_companion_start", lambda c: np.array([near, 0.5 + 1j]))
    assert sorted(aberth_roots([1, 0, 1]).tolist(), key=lambda z: z.imag) == [-1j, 1j]
    assert points[:2] == [0.5 + 1j, near]


@pytest.mark.parametrize(
    "ladder",
    [PINCHED_FIVE, PINCHED_EIGHT, CLUSTER_TWELVE],
    ids=["five", "eight", "cluster-twelve"],
)
def test_newton_ratio_is_one_rounded_exact_quotient(ladder):
    coeffs, rates, a, xi = ladder
    poly = list(to_polynomial(ModePencil(a, xi, ExponentialKernel(coeffs, rates))))
    nums, _ = _numerators(poly)
    roots = aberth_roots(poly)
    # the roots (the pair takes the complex pass), and the real roots nudged off them
    points = [complex(r) for r in roots] + [complex(r.real * (1 + 1e-9), 0.0) for r in roots if r.imag == 0]
    for z in points:
        # the point on the grid 2**(e - QUANT_BITS), then P(z)/P'(z) in Fractions
        grid = Fraction(2) ** (math.frexp(max(abs(z.real), abs(z.imag)))[1] - QUANT_BITS)
        x, y = (round(Fraction(v) / grid) * grid for v in (z.real, z.imag))
        pr = pi = dr = di = Fraction(0)
        for c in reversed(poly):
            dr, di = dr * x - di * y + pr, dr * y + di * x + pi
            pr, pi = pr * x - pi * y + c, pr * y + pi * x
        norm = dr * dr + di * di
        exact = complex(float((pr * dr + pi * di) / norm), float((pi * dr - pr * di) / norm))
        ratio, point = _newton_ratio(nums, z)
        assert point == complex(x, y)
        assert (ratio.real, ratio.imag) == (exact.real, exact.imag)
        assert math.copysign(1.0, ratio.imag) == math.copysign(1.0, exact.imag)


def test_integer_spaced_real_roots():
    roots = aberth_roots([6.0, 11.0, 6.0, 1.0])
    match = match_roots(roots, [-1.0, -2.0, -3.0])
    assert match.max_relative_deviation < 1e-13
    assert np.max(np.abs(roots.imag)) < 1e-13
    # (z + 2)(z - 2**70): near 2**70 the grid 2**(e - QUANT_BITS) is
    # coarser than one, so the point is taken as an integer over s = 1
    roots = aberth_roots([-(2**71), 2 - 2**70, 1])
    assert sorted(roots.tolist(), key=lambda z: z.real) == [-2.0, 2.0**70]
    assert np.all(roots.imag == 0.0)


def test_zero_roots_are_deflated():
    roots = aberth_roots([0.0, 0.0, 6.0, 5.0, 1.0])
    match = match_roots(roots, [0.0, 0.0, -2.0, -3.0])
    assert match.max_relative_deviation < 1e-13
    # nothing is left after deflation
    assert aberth_roots([0, 0, 5]).tolist() == [0j, 0j]


def test_iterates_that_meet_at_zero_are_sent_apart():
    # (z - 2**1000)(z**4 + 1): the companion start is four exact zeros and
    # 2**1000, and no relative nudge moves an iterate off 0
    roots = aberth_roots([-(2**1000), 1, 0, 0, -(2**1000), 1])
    big = np.abs(roots) > 2.0
    assert roots[big].tolist() == [2.0**1000]
    h = math.sqrt(0.5)
    quartic = [complex(x, y) for x in (h, -h) for y in (h, -h)]
    assert match_roots(roots[~big], quartic).max_relative_deviation <= 2.0**-52


def test_iterates_that_meet_off_a_root_are_nudged_apart(monkeypatch):
    # two iterates started on one point that is no root, a third on a root
    start = np.array([-1.5 + 0.5j, -1.5 + 0.5j, -3.0 + 0j])
    monkeypatch.setattr(gpspectra.oracle, "_companion_start", lambda c: start)
    roots = aberth_roots([6.0, 11.0, 6.0, 1.0])
    assert match_roots(roots, [-1.0, -2.0, -3.0]).max_relative_deviation < 1e-13
    assert np.all(roots.imag == 0.0)


def test_a_sweep_that_leaves_the_finite_doubles_is_refused_by_name(monkeypatch):
    # two iterates of sweep 2 lie 1.5e-311 apart, so 1/(z_i - z_j) overflows
    # and the sweep's step is NaN: refused before any ratio is formed at it,
    # and without numpy's overflow warning
    poly = to_polynomial(refusal_pencil("iterates_meet"))
    newton_ratio = gpspectra.oracle._newton_ratio

    def finite_only(nums, z):
        assert cmath.isfinite(z)
        return newton_ratio(nums, z)

    monkeypatch.setattr(gpspectra.oracle, "_newton_ratio", finite_only)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"^Aberth sweep 2 left the finite doubles: iterates 1\.530e-311 apart$"):
            aberth_roots(poly)


def test_non_monic_input():
    roots = aberth_roots([-2.0, 0.0, 2.0])
    match = match_roots(roots, [1.0, -1.0])
    assert match.max_relative_deviation < 1e-14


def test_degree_guard():
    with pytest.raises(ValueError):
        aberth_roots([1.0])
    with pytest.raises(ValueError):
        aberth_roots(np.ones((2, 2)))
    with pytest.raises(ValueError):
        aberth_roots([1.0, 2.0, 0.0])
    for bad in ([np.nan, 1.0], [1.0, np.inf]):
        with pytest.raises(ValueError, match="not finite"):
            aberth_roots(bad)


@pytest.mark.parametrize(
    "poly,index",
    [
        ([10**400, 0, 1], 0),
        ([1, 0, Fraction(1, 10**400)], 0),
        ([1, 10**700, 1], 1),
        ([10**320, 1], 0),
    ],
)
def test_coefficients_past_the_double_range_are_refused(poly, index):
    # a coefficient ratio that no double holds is named, not overflowed
    with pytest.raises(ValueError, match=f"coefficient {index} is too far out"):
        aberth_roots(poly)


def _backward_errors(coeffs, roots):
    c = np.asarray(coeffs, dtype=complex)
    return np.abs(np.polyval(c[::-1], roots)) / np.polyval(np.abs(c[::-1]), np.abs(roots))


@pytest.mark.parametrize(
    "coeffs",
    [[2.0, 5.0, 4.0, 1.0], [1.0, 0.0, 2.0, 0.0, 1.0]],
    ids=["(z+1)^2(z+2)", "(z^2+1)^2"],
)
def test_repeated_roots_pass_the_backward_error_gate(coeffs):
    # the companion matrix has equal eigenvalues here; the sweeps must still
    # return every root, each within the gate
    roots = aberth_roots(coeffs)
    assert roots.size == len(coeffs) - 1
    assert np.all(_backward_errors(coeffs, roots) <= ABERTH_RESIDUAL)


def _failing_eigvals(matrix):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def test_a_failed_companion_eigensolve_is_a_numerical_error(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvals", _failing_eigvals)
    with pytest.raises(NumericalError, match="companion eigenvalues"):
        aberth_roots([190.0, 100.0, 2.0, 1.0])


def test_a_nan_backward_error_fails_the_gate(monkeypatch):
    # a NaN iterate always moves, so NaN reaches the gate only through its
    # power table, where an overflowed |z|**k gives inf/inf
    monkeypatch.setattr(gpspectra.oracle, "_powers", lambda z, degree: np.full((z.size, degree + 1), np.nan))
    with pytest.raises(NumericalError, match="backward error nan"):
        aberth_roots([190.0, 100.0, 2.0, 1.0])


def test_real_polynomials_close_under_conjugation():
    rng = np.random.default_rng(4321)
    for _ in range(20):
        degree = int(rng.integers(3, 9))
        coeffs = rng.normal(size=degree + 1)
        coeffs[-1] = coeffs[-1] if abs(coeffs[-1]) > 0.1 else 1.0
        roots = aberth_roots(coeffs)
        match = match_roots(roots, np.conj(roots))
        assert match.max_relative_deviation < 1e-10


# --------------------------------------------------------- mode realisation


def test_system_matrix_layout(cubic):
    system = build_mode_system(cubic)
    expected = np.array([
        [0.0, 1.0, 0.0],
        [-100.0, 0.0, 10.0],
        [1.0, 0.0, -2.0],
    ])
    assert np.array_equal(system.matrix, expected)
    assert system.dimension == 3


def test_characteristic_polynomial_matches_cleared_pencil(cubic):
    coeffs = build_mode_system(cubic).char_coefficients()
    assert np.allclose(coeffs, [190.0, 100.0, 2.0, 1.0], rtol=1e-12, atol=0.0)


def test_trace_identity(cubic):
    # trace(M) = -sum(rates) = sum of all symbol roots
    system = build_mode_system(cubic)
    roots = aberth_roots([190.0, 100.0, 2.0, 1.0])
    assert np.trace(system.matrix) == -2.0
    assert complex(np.sum(roots)) == pytest.approx(-2.0 + 0.0j, abs=1e-13)


def test_tiny_kernel_factorises():
    p = ModePencil(10.0, 0.5, ExponentialKernel((1e-300,), (2.0,)))
    roots = aberth_roots(to_polynomial(p))
    match = match_roots(roots, [-2.0, 10j, -10j])
    assert match.max_relative_deviation < 1e-14


def _coefficient_deviation(p: ModePencil) -> float:
    """Largest relative gap between the companion and the cleared coefficients."""
    via_matrix = build_mode_system(p).char_coefficients()
    via_clearing = np.array([float(c) for c in to_polynomial(p)])
    scale = np.maximum(1.0, np.abs(via_clearing))
    return float(np.max(np.abs(via_matrix - via_clearing) / scale))


def test_char_coefficients_agree_with_clearing_on_random_pencils():
    rng = np.random.default_rng(99)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        rates = tuple(np.cumsum(10.0 ** rng.uniform(-0.5, 0.5, size=n)))
        coeffs = tuple(10.0 ** rng.uniform(-1.0, 0.0, size=n))
        p = ModePencil(
            frequency=float(rng.choice([5.0, 50.0, 1e3, 1e5])),
            xi=float(rng.uniform(0.2, 0.8)),
            kernel=ExponentialKernel(coeffs, rates),
        )
        assert _coefficient_deviation(p) < 1e-12


def test_char_coefficients_on_an_ill_conditioned_ladder():
    # ladder 705 of perfbench's random_modes pool: a longdouble recursion
    # was 2.2e-5 off the cleared polynomial here
    p = ModePencil(
        frequency=64.35824364965178,
        xi=0.8573461730818587,
        kernel=ExponentialKernel(
            (0.01515618474614228, 0.011517012830668288, 0.115090676560496,
             0.09629977361514673, 0.029378445598393692, 0.6327779659079433,
             0.015646258212884127, 0.010520298583514484, 0.258019651078486,
             0.03156702888474187, 0.6310627890671746, 0.042528207321632365),
            (0.2123914790533109, 0.3617027132509253, 0.5357572417813361,
             1.2703661817702931, 1.7651332597002396, 5.854261859975733,
             6.039788029083185, 6.161884476049332, 7.625562376485079,
             8.047420041573734, 8.814025537659791, 12.7524421156863),
        ),
    )
    assert _coefficient_deviation(p) < 1e-12


def test_dimension_cap():
    n = 31
    kern = ExponentialKernel(tuple([0.01] * n), tuple(float(k) for k in range(1, n + 1)))
    p = ModePencil(1000.0, 0.5, kern)
    with pytest.raises(ValueError):
        build_mode_system(p)


# ----------------------------------------------------------- decay fitting


def test_decay_matches_pair_rate(cubic):
    est = simulate_decay(cubic, horizon=2000.0, dt=1e-3)
    assert est.rate == pytest.approx(PAIR.real, rel=0.05)
    assert est.peak_count >= 8
    assert est.window[0] >= 1000.0


def test_decay_of_nearly_free_oscillator_is_flat():
    p = ModePencil(10.0, 0.5, ExponentialKernel((1e-12,), (2.0,)))
    est = simulate_decay(p, horizon=200.0, dt=1e-3)
    assert abs(est.rate) < 1e-5


def test_decay_needs_an_oscillatory_envelope():
    # when the slowest root is real the envelope is eventually monotone,
    # leaving no peaks to fit: the estimator must refuse, not extrapolate
    p = ModePencil(10.0, 0.5, ExponentialKernel((9.9,), (1.0,)))
    with pytest.raises(ValueError, match="envelope peaks"):
        simulate_decay(p, horizon=600.0, dt=4e-3)


def test_decay_step_guards(cubic):
    with pytest.raises(ValueError):
        simulate_decay(cubic, horizon=100.0, dt=0.01)  # above stability limit
    with pytest.raises(ValueError):
        simulate_decay(cubic, horizon=-1.0, dt=1e-3)
    with pytest.raises(ValueError):
        simulate_decay(cubic, horizon=0.3, dt=1e-3)  # too few output samples


# ------------------------------------------------------------ root matching


def test_match_roots_identity_and_shift():
    ref = np.array([MU_1, PAIR, PAIR.conjugate()])
    assert match_roots(ref, ref).max_relative_deviation == 0.0
    shifted = ref + 1e-9
    dev = match_roots(shifted, ref).max_relative_deviation
    # deviations are scaled by max(1, |root|); the branch root dominates
    assert dev == pytest.approx(1e-9 / abs(MU_1), rel=1e-3)


def test_match_roots_cardinality():
    with pytest.raises(ValueError):
        match_roots([1.0, 2.0], [1.0])


@pytest.mark.parametrize("computed,reference", [([1.0, np.nan], [1.0, 2.0]), ([1.0, 2.0], [1.0, np.nan]), ([1.0, np.inf], [1.0, 2.0])])
def test_match_roots_refuses_non_finite_roots(computed, reference):
    with pytest.raises(ValueError, match="finite"):
        match_roots(computed, reference)


def test_min_cost_assignment_matches_brute_force():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        # clustered roots, matched against a shuffled, jittered copy
        centres = rng.normal(size=3) + 1j * rng.normal(size=3)
        a = centres[rng.integers(0, 3, size=n)] + 1e-3 * rng.normal(size=n)
        b = rng.permutation(a) + 1e-3 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        cost = np.abs(a[:, None] - b[None, :])
        assigned = _min_cost_assignment(cost)
        assert sorted(assigned.tolist()) == list(range(n))
        best = min(
            sum(cost[i, p[i]] for i in range(n))
            for p in itertools.permutations(range(n))
        )
        total = sum(cost[i, assigned[i]] for i in range(n))
        assert total == pytest.approx(best, rel=1e-12, abs=1e-15)


def test_match_roots_resolves_near_ties_optimally():
    # greedy pairing in row order would give 0 -> 0.9 and leave 1 -> -0.95
    match = match_roots([0.0, 1.0], [0.9, -0.95])
    assert match.pairs == ((0.0, -0.95), (1.0, 0.9))


def test_match_roots_keeps_distinct_nearest_roots():
    # 3.0's second candidate (1.0, at 2) lies within a factor two of its
    # nearest (4.5, at 1.5), but the nearest roots are distinct, so they are
    # the pairing
    match = match_roots([0.0, 3.0], [1.0, 4.5])
    assert match.pairs == ((0.0, 1.0), (3.0, 4.5))


#: points on a small grid, some nudged by far less than the grid spacing:
#: repeated points and near ties are common draws
GRID_POINTS = st.builds(
    lambda re, im, nudge: complex(re + nudge, im),
    st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]),
    st.sampled_from([-1.0, 0.0, 1.0]),
    st.sampled_from([0.0, 0.0, 1e-12, -1e-9, 1e-6]),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(*(st.lists(GRID_POINTS, min_size=n, max_size=n) for _ in range(2)))
    )
)
def test_match_roots_total_distance_is_the_minimum(roots):
    computed, reference = roots
    match = match_roots(computed, reference)
    assert [x for x, _ in match.pairs] == computed
    assert np.array_equal(np.sort([y for _, y in match.pairs]), np.sort(reference))
    n = len(computed)
    best = min(
        sum(abs(computed[i] - reference[p[i]]) for i in range(n))
        for p in itertools.permutations(range(n))
    )
    total = sum(abs(x - y) for x, y in match.pairs)
    assert total == pytest.approx(best, rel=1e-13, abs=1e-15)


# ------------------------------------------------------------- independence


def test_oracle_imports_no_solver_module():
    tree = ast.parse(Path(gpspectra.oracle.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rsplit(".", 1)[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    assert not imported & {"real_branches", "complex_pair", "solve", "quadrature"}


def test_import_loads_neither_scipy_nor_mpmath():
    src = str(Path(gpspectra.__file__).resolve().parents[1])
    probe = (
        "import sys, gpspectra, gpspectra.cli; "
        "print(sorted({'scipy', 'mpmath', 'multiprocessing'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, encoding="utf-8", check=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads through /proc")
def test_import_loads_openblas_with_one_thread():
    src = str(Path(gpspectra.__file__).resolve().parents[1])
    probe = "import os, gpspectra; print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    runs = [
        subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, encoding="utf-8", check=True,
            timeout=60, env=dict(env, PYTHONPATH=src, **extra),
        ).stdout.split()
        for extra in ({}, {"OPENBLAS_NUM_THREADS": "2"})
    ]
    # one thread in all, and the variable is unset again; a value the user set is kept
    assert runs[0] == ["1", "None"]
    assert runs[1][1] == "2"
