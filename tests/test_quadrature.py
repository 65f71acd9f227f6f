"""Adaptive panel quadrature: accuracy, complex integrands, failure modes."""

import math

import numpy as np
import pytest

from gpspectra import QuadratureError
from gpspectra.quadrature import MAX_DEPTH, integrate, integrate_power_weighted


def test_exponential_to_machine_accuracy():
    value = integrate(np.exp, 0.0, 1.0, tol=1e-13)
    assert abs(value - (math.e - 1.0)) < 1e-13
    assert value.imag == 0.0


def test_complex_integrand():
    value = integrate(lambda t: np.exp(1j * t), 0.0, 1.0, tol=1e-12)
    expected = complex(math.sin(1.0), 1.0 - math.cos(1.0))
    assert abs(value - expected) < 1e-12


def test_oscillatory_cancellation():
    value = integrate(lambda t: np.cos(10.0 * t), 0.0, 2.0 * math.pi, tol=1e-12)
    assert abs(value) < 1e-11


def test_narrow_peak_forces_subdivision():
    # a Lorentzian of width 1e-4 is invisible to the first few panels
    def peak(t):
        return 1e-4 / ((t - 0.3) ** 2 + 1e-8)

    value = integrate(peak, 0.0, 1.0, tol=1e-10)
    expected = math.atan(0.7 / 1e-4) + math.atan(0.3 / 1e-4)
    assert abs(value - expected) < 1e-8


def test_empty_range_rejected():
    with pytest.raises(ValueError):
        integrate(np.exp, 1.0, 1.0)
    with pytest.raises(ValueError):
        integrate(np.exp, 2.0, 1.0)


def test_discontinuity_hits_depth_cap():
    # jump at an irrational point so no bisection boundary ever isolates it
    def step(t):
        return (t > 1.0 / math.pi).astype(float)

    with pytest.raises(QuadratureError, match=f"at depth {MAX_DEPTH}$"):
        integrate(step, 0.0, 1.0, tol=1e-13)


def test_power_weight_inverse_sqrt():
    # integral of t**-0.5 over (0,1] is 2 exactly
    value = integrate_power_weighted(lambda t: np.ones_like(t), -0.5, tol=1e-12)
    assert abs(value - 2.0) < 1e-12


def test_power_weight_polynomial():
    # integral of t**0.5 * t dt = 2/5
    value = integrate_power_weighted(lambda t: t, 0.5, tol=1e-12)
    assert abs(value - 0.4) < 1e-12


def test_power_weight_requires_integrable_exponent():
    with pytest.raises(ValueError):
        integrate_power_weighted(lambda t: t, -1.0)
    with pytest.raises(ValueError):
        integrate_power_weighted(lambda t: t, -1.5)
