"""Closed-form pair predictions, regime sorting, and slope fitting."""

import math

import pytest

from gpspectra import (
    PowerLawFamily,
    angular_integral,
    asymptotic_constant,
    classify_regime,
    empirical_order,
    predict_finite_sum,
    predict_power_law,
)

SQRT_HALF_CONSTANT = 1.1107207345395915  # (pi/2)/(sqrt(2)) on both axes at r = 1/2


# ----------------------------------------------------------- the constant


def test_constant_at_the_symmetric_point():
    c = asymptotic_constant(0.5)
    assert c.real == pytest.approx(SQRT_HALF_CONSTANT, abs=1e-15)
    assert c.imag == pytest.approx(SQRT_HALF_CONSTANT, abs=1e-15)


@pytest.mark.parametrize("r", [-0.5, 0.0, 1.0, 1.5])
def test_constant_domain(r):
    with pytest.raises(ValueError):
        asymptotic_constant(r)
    with pytest.raises(ValueError):
        angular_integral(r, math.pi / 2)


def test_constant_reflection_symmetry():
    # |C(r)| = |C(1-r)| since only the phase factor feels the reflection
    for r in (0.1, 0.25, 0.4):
        assert abs(asymptotic_constant(r)) == pytest.approx(
            abs(asymptotic_constant(1.0 - r)), rel=1e-14
        )


@pytest.mark.parametrize("r", [0.1 * k for k in range(1, 10)])
def test_constant_matches_quadrature(r):
    closed = asymptotic_constant(r)
    quad = 0.5j * angular_integral(r, math.pi / 2)  # C(r) = (i/2) * its defining integral
    assert abs(closed - quad) < 1e-8


# -------------------------------------------------------- finite-sum pairs


def test_finite_sum_prediction_values():
    p = predict_finite_sum(10.0, 0.5, 1.0)
    assert p.value == pytest.approx(-0.05 + 10j, abs=1e-15)
    assert p.remainder_order == pytest.approx(1.0)
    assert p.imag_remainder_order == pytest.approx(0.0)
    assert p.regime_tag == "finite_sum_xi_eq_half"

    q = predict_finite_sum(100.0, 0.25, 2.0)
    assert q.value == pytest.approx(-0.001 + 100j, abs=1e-15)
    assert q.remainder_order == pytest.approx(1.5)
    assert q.imag_remainder_order == pytest.approx(0.5)
    assert q.regime_tag == "finite_sum_xi_lt_half"


def test_finite_sum_zero_kernel_sits_on_the_axis():
    p = predict_finite_sum(10.0, 0.75, 0.0)
    assert p.value == 10j
    assert p.regime_tag == "finite_sum_xi_gt_half"


def test_finite_sum_validation():
    with pytest.raises(ValueError):
        predict_finite_sum(0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        predict_finite_sum(10.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        predict_finite_sum(10.0, 0.5, -1.0)


# -------------------------------------------------------- power-law pairs


def test_power_law_log_regime():
    fam = PowerLawFamily(amplitude=1.0, scale=1.0, alpha=1.0, beta=1.0, count=10)
    a = math.exp(10.0)
    p = predict_power_law(a, 0.5, fam)
    assert p.regime_tag == "power_r_eq_one"
    assert p.value.real == pytest.approx(-5.0 * math.exp(-10.0), rel=1e-13)
    assert p.value.imag == a


def test_power_law_half_regime():
    fam = PowerLawFamily(amplitude=1.0, scale=1.0, alpha=0.5, beta=1.0, count=10)
    p = predict_power_law(100.0, 0.5, fam)
    assert p.regime_tag == "power_r_in_half_one"
    assert p.value.real == pytest.approx(-SQRT_HALF_CONSTANT / 10.0, rel=1e-13)
    assert p.remainder_order == pytest.approx(1.0)


def test_power_law_boundary_weight_freezes_the_offset():
    fam = PowerLawFamily(amplitude=1.0, scale=1.0, alpha=0.5, beta=1.0, count=10)
    lo = predict_power_law(1e2, 0.75, fam)
    hi = predict_power_law(1e6, 0.75, fam)
    assert lo.value.real == pytest.approx(hi.value.real, rel=1e-12)
    assert lo.value.real == pytest.approx(-SQRT_HALF_CONSTANT, rel=1e-12)


def test_power_law_small_r_tag():
    fam = PowerLawFamily(amplitude=1.0, scale=2.0, alpha=0.3, beta=1.0, count=10)
    assert fam.regularity == pytest.approx(0.3)
    p = predict_power_law(50.0, 0.5, fam)
    assert p.regime_tag == "power_r_lt_half"
    assert p.remainder_order == pytest.approx(2.0 * (0.3 - 0.5) + 1.0)


# ----------------------------------------------------------------- regimes


def test_regime_classification():
    assert classify_regime(0.3, 0.5) == "tends_to_axis"
    assert classify_regime(0.75, 0.5) == "constant_offset"
    assert classify_regime(0.9, 0.5) == "unbounded_decay"
    assert classify_regime(0.9, 1.0) == "tends_to_axis"


def test_regime_validation():
    with pytest.raises(ValueError):
        classify_regime(0.0, 0.5)
    with pytest.raises(ValueError):
        classify_regime(0.5, 0.0)
    with pytest.raises(ValueError):
        classify_regime(0.5, 1.2)


# -------------------------------------------------------------- slope fits


def test_empirical_order_recovers_clean_powers():
    scales = [10.0**k for k in range(5)]
    quad = empirical_order([(s, s**-2.0) for s in scales])
    assert quad.slope == pytest.approx(-2.0, abs=1e-12)
    assert quad.half_width < 1e-10
    root = empirical_order([(s, 7.0 * s**-0.5) for s in scales])
    assert root.slope == pytest.approx(-0.5, abs=1e-12)


def test_empirical_order_input_checks():
    with pytest.raises(ValueError):
        empirical_order([(1.0, 1.0), (10.0, 0.1), (100.0, 0.01)])
    with pytest.raises(ValueError):
        empirical_order([(1.0, 1.0), (2.0, 0.5), (4.0, 0.25), (8.0, 0.125)])
    with pytest.raises(ValueError):
        empirical_order([(1.0, 1.0), (10.0, -0.1), (100.0, 0.01), (1000.0, 0.001)])


def test_empirical_order_zero_error_floor():
    pts = [(1.0, 1.0), (10.0, 0.1), (100.0, 0.0), (1000.0, 1e-4)]
    fit = empirical_order(pts)
    assert fit.below_floor
    assert math.isnan(fit.slope)
