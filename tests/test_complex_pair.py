"""Oscillatory pair: fixed point, Newton polish, winding certificates."""

import math

import pytest

from gpspectra import (
    ContourError,
    DivergenceError,
    ExponentialKernel,
    ModePencil,
    NonContractionError,
    RectContour,
    count_zeros,
    fixed_point_pair,
    newton_refine,
    solve_pair,
    spectrum_contour,
    symbol,
)
from conftest import MU_1, PAIR


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
    # once per step, with no separate symbol or symbol_deriv pass
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
    for name in ("symbol", "symbol_deriv", "laplace", "laplace_deriv"):
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


def test_solve_pair_polishes_the_upper_root(cubic):
    pair = solve_pair(cubic)
    fp = fixed_point_pair(cubic)
    assert abs(pair.plus - PAIR) < 1e-13 and pair.plus.imag > 0
    assert pair.minus == pair.plus.conjugate()
    assert (pair.iterations, pair.derivative_bound) == (fp.iterations, fp.derivative_bound)
    with pytest.raises(DivergenceError):
        solve_pair(cubic, residual_tol=1e-30)


# --------------------------------------------------------------- contours


def test_rectangle_validation():
    with pytest.raises(ValueError):
        RectContour(1.0, 1.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        RectContour(0.0, 1.0, 0.0, 2.0, samples_per_side=4)


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


def test_default_window_counts_all_roots(cubic):
    cert = count_zeros(cubic, spectrum_contour(cubic, 1))
    assert cert.zeros_inferred == 3
    assert cert.poles_inside == 1


def test_count_invariant_under_taller_window(cubic):
    rect = spectrum_contour(cubic, 1)
    tall = RectContour(rect.x_min, rect.x_max, 2.0 * rect.y_min, 2.0 * rect.y_max,
                       rect.samples_per_side)
    assert count_zeros(cubic, tall).zeros_inferred == 3


def test_window_bounds(cubic):
    with pytest.raises(ValueError):
        spectrum_contour(cubic, 0)
    with pytest.raises(ValueError):
        spectrum_contour(cubic, 2)


def test_full_count_on_wider_ladders():
    kern = ExponentialKernel((0.3, 0.2, 0.1), (1.0, 2.5, 6.0))
    p = ModePencil(frequency=50.0, xi=0.25, kernel=kern)
    cert = count_zeros(p, spectrum_contour(p, 3))
    assert cert.zeros_inferred == 5
    assert cert.poles_inside == 3

    partial = count_zeros(p, spectrum_contour(p, 2))
    assert partial.zeros_inferred == 4  # two branches plus the pair
