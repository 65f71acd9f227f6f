"""Adaptive panel quadrature: accuracy, complex integrands, failure modes."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp

import gpspectra
from gpspectra import QuadratureError
from gpspectra.quadrature import MAX_DEPTH, _panel, integrate, integrate_power_weighted


def _rule_of_one_panel() -> tuple[list[float], list[float]]:
    """The nodes and weights one panel over [-1, 1] samples and sums with.

    On [-1, 1] a panel evaluates f at its nodes exactly, and a unit vector
    picks out one weight exactly, so this reads the rule the panels use.
    """
    seen = []

    def record(x):
        seen.append(x)
        return np.zeros_like(x)

    _panel(record, -1.0, 1.0)
    nodes = seen[0].tolist()
    weights = [_panel(lambda x: np.eye(x.size)[j], -1.0, 1.0).real for j in range(len(nodes))]
    return nodes, weights


def test_the_rule_is_the_correctly_rounded_gauss_legendre_rule():
    nodes, weights = _rule_of_one_panel()
    assert len(nodes) == 12 and nodes == sorted(nodes)
    with mp.workdps(50):
        for node, weight in zip(nodes, weights):
            # Newton on P_12 from the double node, then the weight 2/((1 - x^2) P_12'(x)^2)
            x = mp.findroot(lambda t: mp.legendre(12, t), mp.mpf(node))
            slope = 12 * (x * mp.legendre(12, x) - mp.legendre(11, x)) / (x * x - 1)
            assert node == float(x)
            assert weight == float(2 / ((1 - x * x) * slope**2))


def test_one_panel_integrates_degree_22_exactly():
    value = _panel(lambda x: x**22, -1.0, 1.0)
    assert value.imag == 0.0
    assert abs(value.real - 2.0 / 23.0) <= 4.0 * math.ulp(2.0 / 23.0)


def test_integrating_imports_no_polynomial_module():
    src = str(Path(gpspectra.__file__).resolve().parents[1])
    probe = (
        "import sys, gpspectra; "
        "gpspectra.continuum_laplace(gpspectra.PowerLawFamily(1, 1, 0.5, 1, 100), 2.0); "
        "print('numpy.polynomial' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, encoding="utf-8",
        env=dict(os.environ, PYTHONPATH=src), check=True,
    )
    assert out.stdout.strip() == "False"


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
