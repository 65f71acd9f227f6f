"""End-to-end single-mode solves with certificates."""

import warnings

import numpy as np
import pytest

from gpspectra import (
    ExponentialKernel,
    GPSpectraError,
    InadmissibleModeError,
    ModePencil,
    NumericalError,
    PowerLawFamily,
    aberth_roots,
    count_zeros,
    match_roots,
    materialize,
    solve_mode,
    spectrum_contour,
    stiffness_roots,
    to_polynomial,
)
from gpspectra import real_branches
from gpspectra.cli import _mode_checks
from conftest import CLUSTER_TWELVE, MU_1, PAIR


def test_cubic_solve_is_complete(cubic):
    sol = solve_mode(cubic)
    assert len(sol.real_roots) == 1
    assert sol.real_roots[0].value == pytest.approx(MU_1, abs=1e-12)
    assert sol.stiffness_roots[0].value == pytest.approx(-1.9, abs=1e-12)
    assert abs(sol.pair_plus - PAIR) < 1e-10
    assert sol.pair_minus == sol.pair_plus.conjugate()
    assert sol.pair_plus.imag > 0
    assert sol.pair_residual < 1e-8
    assert sol.contraction_bound < 1.0
    assert len(sol.all_roots) == 3
    assert sol.spectral_abscissa == sol.pair_plus.real


def test_cubic_interlacing_margin(cubic):
    # tightest gap is stiffness root minus branch root: -1.9 - mu_1
    sol = solve_mode(cubic)
    assert sol.interlacing_margin == pytest.approx(-1.9 - MU_1, rel=1e-9)
    assert sol.interlacing_margin > 0


def test_cubic_certificate(cubic):
    contour = count_zeros(cubic, spectrum_contour(cubic))
    assert contour.zeros_inferred == 3
    assert contour.winding == 2
    assert contour.poles_inside == 1
    assert contour.max_quadrature_defect < 0.25
    cert = solve_mode(cubic).certificate
    assert cert is not None
    assert cert.zeros_inferred == 3
    (lo, hi), = cert.brackets
    assert lo < MU_1 + 2.0 < hi
    assert cert.sign_margin > 1.0
    assert cert.kantorovich_h <= 0.5
    assert abs(PAIR / 10.0 - 1j - cert.pair_center) <= cert.pair_radius


@pytest.mark.parametrize("first_read", ["stiffness_roots", "interlacing_margin"])
def test_the_stiffness_roots_are_solved_on_first_read(first_read, monkeypatch):
    coeffs, rates, a, xi = CLUSTER_TWELVE
    p = ModePencil(a, xi, ExponentialKernel(coeffs, rates))
    solved = []
    solve = real_branches._solve

    def spy(pencil, symbol, first, last):
        solved.append(symbol)
        return solve(pencil, symbol, first, last)

    monkeypatch.setattr(real_branches, "_solve", spy)
    result = solve_mode(p)
    assert solved == [True]  # the symbol's roots only
    getattr(result, first_read)
    assert solved == [True, False]
    result.stiffness_roots, result.interlacing_margin  # cached: no second solve
    assert solved == [True, False]
    monkeypatch.undo()
    assert result.stiffness_roots == tuple(stiffness_roots(p))


def test_a_copy_scaled_to_subnormal_amplitudes_is_refused_by_name():
    # the cubic scaled by 2**-515: c = 2**-1030 is subnormal, and 1/a**2 is
    # finite while 2/a**2 is not; the solve refuses the mode with a named
    # error, not a numpy overflow warning
    p = ModePencil(10 * 2.0**-515, 0.5, ExponentialKernel((2.0**-1030,), (2.0**-514,)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GPSpectraError):
            solve_mode(p)


def test_solve_is_deterministic(cubic):
    first = solve_mode(cubic)
    second = solve_mode(cubic)
    assert first.all_roots == second.all_roots
    assert first.pair_residual == second.pair_residual


def test_three_stage_kernel_solve():
    kern = ExponentialKernel((0.3, 0.2, 0.1), (1.0, 2.5, 6.0))
    p = ModePencil(frequency=50.0, xi=0.25, kernel=kern)
    sol = solve_mode(p)
    assert len(sol.real_roots) == 3
    assert sol.interlacing_margin > 0
    assert sol.certificate.zeros_inferred == 5

    reference = aberth_roots(to_polynomial(p))
    match = match_roots(np.array(sol.all_roots), reference)
    assert match.max_relative_deviation < 1e-10


def test_unreachable_tolerance_is_reported(cubic):
    with pytest.raises(NumericalError):
        solve_mode(cubic, residual_tol=1e-30)


def test_a_branch_root_past_its_error_gate_is_refused():
    # the cubic's branch has no root error, so its tight target trips the
    # pair's gate; CLUSTER_TWELVE's first branch estimates 7.2e-18 relative
    # while its pair's residual, 3.4e-21, would pass a 1e-20 target
    coeffs, rates, a, xi = CLUSTER_TWELVE
    p = ModePencil(a, xi, ExponentialKernel(coeffs, rates))
    with pytest.raises(NumericalError, match=r"^branch 1 root-error estimate .* exceeds "):
        solve_mode(p, residual_tol=1e-20)


def test_overloaded_mode_is_refused_before_solving():
    # c=1, g=2 at a=0.3: the load w*sum c/g is 0.5/0.3
    p = ModePencil(frequency=0.3, xi=0.5, kernel=ExponentialKernel((1.0,), (2.0,)))
    with pytest.raises(InadmissibleModeError) as info:
        solve_mode(p)
    assert info.value.load == pytest.approx(0.5 / 0.3, rel=1e-15)


def test_margin_survives_roots_that_round_together():
    # root and stiffness root are both -0.5115471967709293 as doubles; their
    # offsets from the pole still differ by about 1e-18
    kern = ExponentialKernel((0.3750777167829557,), (0.5115479318995791,))
    sol = solve_mode(ModePencil(443822.29163667734, 0.49463905069806846, kern))
    assert sol.real_roots[0].value == sol.stiffness_roots[0].value
    assert sol.interlacing_margin > 0


def test_thousand_term_power_law_ladder_passes_the_mode_checks():
    # sum c/g = zeta(5/2) > 1, while the mode's load w * sum c/g is 0.13 < 1
    p = ModePencil(10.0, 0.5, materialize(PowerLawFamily(1, 1, 0.5, 2, count=1000)))
    sol = solve_mode(p)
    assert sol.certificate.zeros_inferred == 1002
    assert len(sol.certificate.brackets) == 1000
    rows = _mode_checks(p, sol, 1e-10)
    assert [status for _, status, _ in rows] == ["pass"] * 6 + ["skipped"]


def test_newton_stops_at_the_rounding_floor():
    # the pair residual grows twice at 2.9e-14, far below the 1.6e-8 target
    kern = ExponentialKernel(
        (0.6291569907817, 1.3511870243658715, 6.886481120855284),
        (5.159532667882476, 14.123973596124657, 14.551716380648147),
    )
    sol = solve_mode(ModePencil(12.478060865184569, 0.7896387431846728, kern))
    assert sol.pair_residual <= 1e-10 * 12.478060865184569**2
