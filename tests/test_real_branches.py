"""Real branches: bracketing, interlaced roots, pole-approach rates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpspectra import (
    ExponentialKernel,
    ModePencil,
    NoSignChangeError,
    aberth_roots,
    bracket_intervals,
    branch_and_stiffness_roots,
    branch_convergence,
    branch_roots,
    solve_mode,
    stiffness_roots,
    to_polynomial,
)
from gpspectra import real_branches
from conftest import CLUSTER_TWELVE, MU_1, PINCHED_EIGHT, PINCHED_FIVE


def test_bracket_intervals_single():
    kern = ExponentialKernel((1.0,), (2.0,))
    assert bracket_intervals(kern, 1) == [(-2.0, 0.0)]


def test_bracket_intervals_three_terms():
    kern = ExponentialKernel((1.0, 0.5, 1.0 / 3.0), (1.0, 2.0, 3.0))
    assert bracket_intervals(kern, 3) == [(-1.0, 0.0), (-2.0, -1.0), (-3.0, -2.0)]
    with pytest.raises(ValueError):
        bracket_intervals(kern, 4)
    with pytest.raises(ValueError):
        bracket_intervals(kern, 0)


def test_cubic_branch_root(cubic):
    (root,) = branch_roots(cubic, 1)
    assert root.index == 1
    assert root.interval == (-2.0, 0.0)
    assert abs(root.value - MU_1) < 1e-12
    assert root.residual < 1e-8


def test_cubic_stiffness_root_closed_form(cubic):
    # f(z) = 1 - 0.1/(z+2) vanishes at exactly -1.9
    (x1,) = stiffness_roots(cubic, 1)
    assert abs(x1.value - (-1.9)) < 1e-12


def test_strict_ordering_between_pole_symbol_and_stiffness(cubic):
    (mu,) = branch_roots(cubic, 1)
    (x1,) = stiffness_roots(cubic, 1)
    assert -2.0 < mu.value < x1.value < 0.0


def test_every_interval_holds_one_of_each():
    kern = ExponentialKernel((0.3, 0.2, 0.1), (1.0, 2.5, 6.0))
    p = ModePencil(frequency=12.0, xi=0.25, kernel=kern)
    mus = branch_roots(p, 3)
    xs = stiffness_roots(p, 3)
    edges = (0.0, 1.0, 2.5, 6.0)
    for k, (mu, x) in enumerate(zip(mus, xs), start=1):
        assert -edges[k] < mu.value < x.value < -edges[k - 1]


def test_overloaded_kernel_has_no_first_branch():
    # w*S = 1.5 pushes L(0) negative: no sign change left of the origin
    kern = ExponentialKernel((1.0, 1.0), (1.0, 2.0))
    p = ModePencil(frequency=1.0, xi=0.5, kernel=kern)  # weight is 1 at a=1
    with pytest.raises(NoSignChangeError):
        branch_roots(p, 1)


def test_branch_chases_its_pole():
    kern = ExponentialKernel((1.0,), (2.0,))
    pencils = [ModePencil(a, 0.5, kern) for a in (10.0, 100.0, 1000.0)]
    record = branch_convergence(pencils, 1)
    dev = record.pole_deviations
    assert dev[0] > dev[1] > dev[2]
    assert math.isnan(record.gap_slope)  # three points is not enough to fit
    assert math.isnan(record.deviation_slope)


def test_branch_convergence_orders():
    kern = ExponentialKernel((1.0,), (2.0,))
    pencils = [ModePencil(a, 0.5, kern) for a in (10.0, 100.0, 1000.0, 10000.0)]
    record = branch_convergence(pencils, 1)
    # the pole deviation |mu + g| tracks the weight a^(-2(1-xi)) = 1/a ...
    assert abs(record.deviation_slope - (-1.0)) < 0.15
    # ... while the root/stiffness gap contracts two powers faster
    assert abs(record.gap_slope - (-3.0)) < 0.3
    assert all(g > 0 for g in record.gaps)


def test_branch_convergence_input_checks():
    kern = ExponentialKernel((1.0,), (2.0,))
    other = ExponentialKernel((1.0,), (3.0,))
    pencils = [ModePencil(a, 0.5, kern) for a in (10.0, 100.0)]
    with pytest.raises(ValueError):
        branch_convergence(pencils[:1], 1)
    with pytest.raises(ValueError):
        branch_convergence(pencils, 2)  # only one branch exists
    with pytest.raises(ValueError):
        branch_convergence([pencils[0], ModePencil(100.0, 0.25, kern)], 1)
    with pytest.raises(ValueError):
        branch_convergence([pencils[0], ModePencil(100.0, 0.5, other)], 1)
    with pytest.raises(ValueError):
        branch_convergence([pencils[1], pencils[0]], 1)  # must increase


def _check_branches(p: ModePencil) -> None:
    """Interlacing in offsets and in z, and agreement with the polynomial oracle."""
    n = p.kernel.size
    mus, xs = branch_roots(p, n), stiffness_roots(p, n)
    edges = (0.0,) + p.kernel.rates
    for k, (mu, x) in enumerate(zip(mus, xs), start=1):
        g, width = edges[k], edges[k] - edges[k - 1]
        assert 0.0 < mu.offset < x.offset < width
        assert mu.value == mu.offset - g and x.value == x.offset - g
        assert -g < mu.value <= x.value < -edges[k - 1]
        assert mu.relative_error <= 1e-10
    reference = aberth_roots(to_polynomial(p))
    real = np.sort(reference[np.argsort(np.abs(reference.imag))[:n]].real)[::-1]
    for mu, ref in zip(mus, real):
        assert abs(mu.value - ref) <= 1e-8 * max(1.0, abs(mu.value))


@st.composite
def admissible_modes(draw):
    """Pool-style ladders: log-uniform first rate, gaps and amplitudes over
    [0.1, 10], memory strength sum c/g in [0.2, 0.85], a log-uniform over
    [1, 1e6], xi in [0.05, 0.95]."""
    n = draw(st.integers(1, 12))
    exponent = st.floats(-1.0, 1.0)
    rates = np.cumsum([10.0 ** draw(exponent) for _ in range(n)])
    raw = np.array([10.0 ** draw(exponent) for _ in range(n)])
    strength = draw(st.floats(0.2, 0.85))
    coeffs = raw * (strength / float(np.sum(raw / rates)))
    a = 10.0 ** draw(st.floats(0.0, 6.0))
    xi = draw(st.floats(0.05, 0.95))
    return ModePencil(a, xi, ExponentialKernel(tuple(coeffs.tolist()), tuple(rates.tolist())))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(admissible_modes())
def test_random_admissible_ladders_interlace_and_match_the_oracle(p):
    _check_branches(p)


@pytest.mark.parametrize("coeffs, rates, a, xi", [PINCHED_FIVE, PINCHED_EIGHT])
def test_roots_inside_the_pole_guard_are_resolved(coeffs, rates, a, xi):
    p = ModePencil(a, xi, ExponentialKernel(coeffs, rates))
    _check_branches(p)
    assert min(mu.offset for mu in branch_roots(p, len(rates))) < 1e-13 * rates[-1]


def _check_fused_block(p: ModePencil) -> None:
    """The (factor, k) block equals one-factor solves of the same branches, bit for bit."""
    n = p.kernel.size
    roots, stiff = branch_and_stiffness_roots(p, n)
    assert roots == branch_roots(p, n)
    assert stiff == stiffness_roots(p, n)
    result = solve_mode(p, certify=False)
    assert list(result.real_roots) == roots and list(result.stiffness_roots) == stiff
    # as branch_convergence does, one branch's two columns alone
    for k in {1, n}:
        assert real_branches._solve(p, k, k, (True, False)) == [[roots[k - 1]], [stiff[k - 1]]]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(admissible_modes())
def test_fused_block_matches_one_factor_solves(p):
    _check_fused_block(p)


@pytest.mark.parametrize(
    "coeffs, rates, a, xi",
    [PINCHED_FIVE, PINCHED_EIGHT, CLUSTER_TWELVE],
    ids=["PINCHED_FIVE", "PINCHED_EIGHT", "CLUSTER_TWELVE"],
)
def test_fused_block_matches_one_factor_solves_on_pinned_ladders(coeffs, rates, a, xi):
    _check_fused_block(ModePencil(a, xi, ExponentialKernel(coeffs, rates)))


def test_small_blocks_split_the_columns_and_keep_the_roots(monkeypatch):
    coeffs, rates, a, xi = CLUSTER_TWELVE
    p = ModePencil(a, xi, ExponentialKernel(coeffs, rates))
    whole = branch_and_stiffness_roots(p, 12)
    widths = []
    solve_block = real_branches._solve_block

    def spy(c, g, w, s, k):
        widths.append(k.size)
        return solve_block(c, g, w, s, k)

    monkeypatch.setattr(real_branches, "_solve_block", spy)
    monkeypatch.setattr(real_branches, "BLOCK_CELLS", 12 * 6)  # three branches a block
    assert branch_and_stiffness_roots(p, 12) == whole
    # 24 columns: each block holds both factors of three branches
    assert widths == [6, 6, 6, 6]
