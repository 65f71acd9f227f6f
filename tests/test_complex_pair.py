"""Oscillatory pair: Newton on the fixed-point map, Newton polish, winding certificates."""

import math

import pytest
from hypothesis import given, settings

from gpspectra import (
    ContourError,
    DivergenceError,
    ExponentialKernel,
    ModePencil,
    NonContractionError,
    PowerLawFamily,
    RectContour,
    count_zeros,
    fixed_point_pair,
    materialize,
    newton_refine,
    pseudo_ladder,
    spectrum_contour,
    symbol,
)
from gpspectra import complex_pair
from conftest import MU_1, PAIR, admissible_modes

#: the square-root family c_k = k**-1/2, g_k = k
SQRT_FAMILY = PowerLawFamily(1.0, 1.0, 0.5, 1.0, count=10**6)


# ------------------------------------------------------------ fixed point


def test_fixed_point_hits_frozen_pair(cubic):
    fp = fixed_point_pair(cubic)
    assert abs(fp.plus - PAIR) < 1e-10
    assert fp.minus == fp.plus.conjugate()
    assert fp.derivative_bound < 1.0
    assert fp.iterations <= 200


def test_vanishing_kernel_leaves_pure_oscillation():
    p = ModePencil(10.0, 0.5, ExponentialKernel((1e-12,), (2.0,)))
    fp = fixed_point_pair(p)
    assert abs(fp.plus - 10j) < 1e-10


def test_strong_kernel_breaks_contraction():
    p = ModePencil(0.5, 0.5, ExponentialKernel((5.0,), (2.0,)))
    with pytest.raises(NonContractionError):
        fixed_point_pair(p)


def _counted_passes(monkeypatch) -> list:
    """Record every ladder pass the pair solve makes; a pass over L fails."""
    import gpspectra.complex_pair as cp

    fused = cp.laplace_pass
    points = []

    def counted(kernel, z, ends=None):
        points.append(z)
        return fused(kernel, z, ends)

    def separate(*args):
        raise AssertionError("the pair took a pass over the symbol")

    monkeypatch.setattr(cp, "laplace_pass", counted)
    monkeypatch.setattr(cp, "symbol_with_deriv", separate)
    monkeypatch.setattr(cp, "symbol", separate)
    return points


def test_fixed_point_pair_takes_newton_steps_on_the_map(cubic, monkeypatch):
    # each pass gives g and g'; the iterates close in quadratically on the
    # root, and the last step is applied without another pass
    points = _counted_passes(monkeypatch)
    fp = fixed_point_pair(cubic)
    assert fp.iterations == len(points) <= 4
    errors = [abs(z - PAIR) / abs(PAIR) for z in points]
    assert errors[0] < 1e-2
    for before, after in zip(errors, errors[1:]):
        assert after <= 10.0 * before**2
    assert abs(fp.plus - PAIR) < 1e-15 * abs(PAIR)
    # the residual is read off the last pass: |L|/a**2 at its point
    assert fp.residual == pytest.approx(abs(symbol(cubic, points[-1])) / 100.0, rel=1e-6)


@pytest.mark.parametrize("xi", (0.5, 0.75, 0.8))
def test_pair_takes_at_most_four_passes_on_a_pseudo_ladder(xi, monkeypatch):
    frequencies = [100.0 * 5.0**j for j in range(4)]
    kernel, ends = pseudo_ladder(SQRT_FAMILY)
    points = _counted_passes(monkeypatch)
    for a in frequencies:
        points.clear()
        pair = fixed_point_pair(ModePencil(a, xi, kernel), ends=ends)
        assert pair.iterations == len(points) <= 4, (a, xi, kernel.size)


# ----------------------------------------------------------------- newton


def test_newton_recovers_from_perturbed_seed(cubic):
    seed = PAIR + 1e-3 * (1.0 + 1.0j)
    refined = newton_refine(cubic, seed)
    assert abs(refined - PAIR) < 1e-12
    # at least four orders of residual improvement over the seed
    assert abs(symbol(cubic, refined)) < 1e-4 * abs(symbol(cubic, seed))


def test_newton_is_a_noop_at_the_root(cubic):
    refined = newton_refine(cubic, PAIR)
    assert abs(refined - PAIR) < 1e-13


def test_newton_evaluates_the_symbol_once_per_step(cubic, monkeypatch):
    # one fused pass gives L and L' at each iterate: once at the seed, then
    # once per step, with no separate pass for the symbol or its slope
    import gpspectra.complex_pair as cp
    import gpspectra.pencil as pencil

    fused = cp.symbol_with_deriv
    points = []

    def counted(p, z):
        points.append(z)
        return fused(p, z)

    def separate(*args):
        raise AssertionError("the polish took a separate pass over the ladder")

    monkeypatch.setattr(cp, "symbol_with_deriv", counted)
    monkeypatch.setattr(cp, "symbol", separate)
    for name in ("symbol", "laplace"):
        monkeypatch.setattr(pencil, name, separate)
    seed = PAIR + 1e-3 * (1.0 + 1.0j)
    refined = newton_refine(cubic, seed)
    assert abs(refined - PAIR) < 1e-12
    assert points[0] == seed and len(points) >= 4
    for here, there in zip(points, points[1:]):
        value, slope = fused(cubic, here)
        assert there == here - value / slope


def test_newton_rejects_pole_shadow(cubic):
    # a seed on the wrong side of the kernel pole never reaches a root
    with pytest.raises(DivergenceError):
        newton_refine(cubic, -2.0000001 + 0j)


def test_fixed_point_pair_gates_its_residual_and_proves_its_disc(cubic):
    pair = fixed_point_pair(cubic)
    assert abs(pair.plus - PAIR) < 1e-13 and pair.plus.imag > 0
    assert pair.minus == pair.plus.conjugate()
    center, radius, h = pair.disc
    assert abs(pair.plus / cubic.frequency - 1j - center) <= radius and h <= 0.5
    with pytest.raises(DivergenceError):
        fixed_point_pair(cubic, residual_tol=1e-30)


def test_fixed_point_pair_flips_a_lower_root_to_the_upper_one():
    # a strong one-term kernel at a small frequency: the iteration ends on
    # the lower root, which is flipped to the upper one together with its
    # last pass, so the disc proven is the upper root's
    kernel = ExponentialKernel((5.839722708172668,), (3.2993236563184607,))
    p = ModePencil(1.9770462827014534, 0.581160132908524, kernel)
    pair = fixed_point_pair(p)
    assert pair.plus == complex(-1.6496618281378592, 1.0896457482078619)
    center, radius, h = pair.disc
    assert center.imag > -1.0 + radius and h < 6e-14
    assert abs(pair.plus / p.frequency - 1j - center) <= radius


# --------------------------------------------------------------- contours


def test_rectangle_validation():
    with pytest.raises(ValueError):
        RectContour(1.0, 1.0, 0.0, 2.0)


def test_rectangle_geometry():
    rect = RectContour(0.0, 2.0, 0.0, 2.0)
    assert rect.corners == (0j, 2 + 0j, 2 + 2j, 2j)
    assert rect.boundary_distance(1 + 1j) == 1.0
    assert rect.boundary_distance(3 + 1j) == 1.0
    assert rect.boundary_distance(3 + 5j) == math.hypot(1.0, 3.0)


def test_count_isolates_the_upper_root(cubic):
    cert = count_zeros(cubic, RectContour(-0.5, 0.5, 9.0, 11.0))
    assert cert.zeros_inferred == 1
    assert cert.winding == 1
    assert cert.poles_inside == 0
    assert cert.max_quadrature_defect < 1e-6


def test_count_with_pole_inside(cubic):
    # rectangle holds all three roots and the kernel pole at -2
    cert = count_zeros(cubic, RectContour(-3.0, 1.0, -11.0, 11.0))
    assert cert.poles_inside == 1
    assert cert.winding == 2
    assert cert.zeros_inferred == 3


def test_count_empty_window(cubic):
    cert = count_zeros(cubic, RectContour(5.0, 6.0, 1.0, 2.0))
    assert cert.zeros_inferred == 0
    assert cert.winding == 0


def test_pole_on_the_contour_is_rejected(cubic):
    with pytest.raises(ContourError):
        count_zeros(cubic, RectContour(-2.0000001, 1.0, -1.0, 1.0))


def test_root_grazing_the_contour_is_resolved(cubic):
    # the left edge passes through the double-precision branch root; the
    # true root sits a last-bit inside, and local bisection must resolve
    # that instead of losing a turn or snapping to a wrong count
    cert = count_zeros(cubic, RectContour(MU_1, 0.5, -1.0, 1.0))
    assert cert.zeros_inferred == 1
    assert cert.max_quadrature_defect < 1e-6
    assert cert.samples_per_side > 256  # refinement actually engaged


def test_contour_refinement_stops_at_its_budget(cubic, monkeypatch):
    # the grazing contour above needs more than two bisections on a side
    monkeypatch.setattr(complex_pair, "MAX_SAMPLES_PER_SIDE", 2)
    with pytest.raises(ContourError, match="contour refinement exceeded 2 evaluations on one side"):
        count_zeros(cubic, RectContour(MU_1, 0.5, -1.0, 1.0))


def test_default_window_counts_all_roots(cubic):
    cert = count_zeros(cubic, spectrum_contour(cubic))
    assert cert.zeros_inferred == 3
    assert cert.poles_inside == 1


def test_count_invariant_under_taller_window(cubic):
    rect = spectrum_contour(cubic)
    tall = RectContour(rect.x_min, rect.x_max, 2.0 * rect.y_min, 2.0 * rect.y_max)
    assert count_zeros(cubic, tall).zeros_inferred == 3


def test_full_count_on_wider_ladders():
    kern = ExponentialKernel((0.3, 0.2, 0.1), (1.0, 2.5, 6.0))
    p = ModePencil(frequency=50.0, xi=0.25, kernel=kern)
    cert = count_zeros(p, spectrum_contour(p))
    assert cert.zeros_inferred == 5
    assert cert.poles_inside == 3


# --------------------------------------------------------------- accuracy


def _assert_within_an_ulp(p: ModePencil) -> None:
    """fixed_point_pair's upper root lies within 2**-52 |ref| of a 50-digit root.

    The reference polishes the double root by Newton's method on the
    symbol z**2 + a**2 - a**(2 xi) sum c_k/(z + g_k), every input taken as
    the double it is.
    """
    mpmath = pytest.importorskip("mpmath")
    plus = fixed_point_pair(p).plus
    with mpmath.workdps(50):
        a, xi = mpmath.mpf(p.frequency), mpmath.mpf(p.xi)
        weight = a ** (2 * xi)
        ladder = [(mpmath.mpf(c), mpmath.mpf(g)) for c, g in zip(p.kernel.coeffs, p.kernel.rates)]
        z = mpmath.mpc(plus)
        for _ in range(20):
            value = z * z + a * a - weight * mpmath.fsum(c / (z + g) for c, g in ladder)
            slope = 2 * z + weight * mpmath.fsum(c / (z + g) ** 2 for c, g in ladder)
            step = value / slope
            z -= step
            if abs(step) < mpmath.mpf(10) ** -45 * abs(z):
                break
        assert abs(mpmath.mpc(plus) - z) <= mpmath.mpf(2) ** -52 * abs(z)


def test_cubic_pair_is_accurate(cubic):
    _assert_within_an_ulp(cubic)


@pytest.mark.parametrize("a", (10.0, 100.0, 1e3, 1e4))
def test_sqrt_family_pair_is_accurate(a):
    kernel = materialize(PowerLawFamily(1.0, 1.0, 0.5, 1.0, count=64))
    _assert_within_an_ulp(ModePencil(a, 0.5, kernel))


@pytest.mark.parametrize("xi", (0.2, 0.5, 0.9))
@pytest.mark.parametrize("a", (3.0, 30.0, 3e3, 3e5))
def test_three_term_pair_is_accurate(a, xi):
    _assert_within_an_ulp(ModePencil(a, xi, ExponentialKernel((1.0, 0.5, 0.25), (2.0, 5.0, 11.0))))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(admissible_modes())
def test_pool_style_pair_is_accurate(p):
    _assert_within_an_ulp(p)


def test_pool_pair_is_rounded_once_from_an_exact_last_step():
    # the root of the map evaluated in doubles lies 1.07 * 2**-52 |z| off here
    c = (1.1899606771636169, 0.11899606771636169, 0.3762986065873343, 1.1899606771636169, 0.11899606771636169)
    g = (3.1622776601683795, 4.16227766016838, 5.16227766016838, 6.16227766016838, 7.16227766016838)
    p = ModePencil(1.0, 0.5, ExponentialKernel(c, g))
    _assert_within_an_ulp(p)
    # each part is the double next to the 50-digit root
    assert fixed_point_pair(p).plus == complex(-0.08882974968328527055278346704386, 0.56617189093277873049430543084426)
