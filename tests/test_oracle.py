"""Independent cross-checks: simultaneous roots, ODE realisation, decay."""

import ast
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
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
from gpspectra.errors import NumericalError
from gpspectra.oracle import ABERTH_RESIDUAL, _min_cost_assignment, _powers, _working_value
from conftest import CLUSTER_TWELVE, MU_1, PAIR, PINCHED_EIGHT, PINCHED_FIVE


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
    # object-dtype Fractions go through the extended-precision path
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
    # only the exact polish returns the frozen roots bit for bit, and the
    # real root with an imaginary part of exactly zero
    roots = aberth_roots(coeffs)
    assert sorted(roots.tolist(), key=lambda z: (z.imag, z.real)) == [
        PAIR.conjugate(), MU_1 + 0j, PAIR,
    ]


def test_polish_is_exact_for_non_binary_rationals():
    # (3z - 1)(3z - 2) and (z - i)(z - 2i): roots are the rounded 1/3, 2/3
    roots = aberth_roots([Fraction(2), Fraction(-9), Fraction(9)])
    assert sorted(roots.tolist(), key=lambda z: z.real) == [1 / 3, 2 / 3]
    roots = aberth_roots([-2.0 + 0j, -3j, 1.0 + 0j])
    assert sorted(roots.tolist(), key=lambda z: z.imag) == [1j, 2j]


def _mp_newton(coeffs, seeds):
    """Roots from a 40-digit Newton iteration on exact rational coefficients."""
    with mp.workdps(40):
        descending = [mp.mpf(c.numerator) / c.denominator for c in coeffs[::-1]]
        out = []
        for seed in seeds:
            root = mp.mpc(complex(seed))
            for _ in range(8):
                value, deriv = mp.polyval(descending, root, derivative=True)
                root -= value / deriv
            out.append(complex(root))
    return np.array(out)


def test_working_value_keeps_the_extended_mantissa():
    # head and remainder from integer divisions equal the Fraction arithmetic
    rng = np.random.default_rng(7)
    values = [Fraction(1, 3), Fraction(-2, 7), Fraction(0), Fraction(10**40 + 1, 3**60)]
    values += [Fraction(int(n), int(d)) for n, d in rng.integers(-(10**15), 10**15, (200, 2)) if d]
    for x in values:
        hi = float(x)
        expected = np.clongdouble(hi) + np.clongdouble(float(x - Fraction(hi)))
        assert _working_value(x) == expected


def test_power_table_columns_are_the_powers():
    z = np.array([0.5 + 2j, -3.0, 1e5j], dtype=np.clongdouble)
    v = _powers(z, 4)
    assert v.shape == (3, 5) and np.all(v[:, 0] == 1)
    for j in range(1, 5):
        assert np.all(v[:, j] == v[:, j - 1] * z)


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


def test_integer_spaced_real_roots():
    roots = aberth_roots([6.0, 11.0, 6.0, 1.0])
    match = match_roots(roots, [-1.0, -2.0, -3.0])
    assert match.max_relative_deviation < 1e-13
    assert np.max(np.abs(roots.imag)) < 1e-13


def test_zero_roots_are_deflated():
    roots = aberth_roots([0.0, 0.0, 6.0, 5.0, 1.0])
    match = match_roots(roots, [0.0, 0.0, -2.0, -3.0])
    assert match.max_relative_deviation < 1e-13


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
        capture_output=True, text=True, check=True, timeout=60,
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
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=60,
            env=dict(env, PYTHONPATH=src, **extra),
        ).stdout.split()
        for extra in ({}, {"OPENBLAS_NUM_THREADS": "2"})
    ]
    # one thread in all, and the variable is unset again; a value the user set is kept
    assert runs[0] == ["1", "None"]
    assert runs[1][1] == "2"
