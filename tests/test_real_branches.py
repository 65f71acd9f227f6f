"""Real branches: bracketing, interlaced roots, pole-approach rates."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings

from gpspectra import (
    ExponentialKernel,
    InadmissibleModeError,
    MaxIterationsError,
    ModePencil,
    aberth_roots,
    bracket_intervals,
    branch_convergence,
    branch_roots,
    solve_mode,
    stiffness_roots,
    to_polynomial,
)
from gpspectra import real_branches
from conftest import (
    CLUSTER_TWELVE, MU_1, PINCHED_EIGHT, PINCHED_FIVE, admissible_modes, recipe_pencil,
)


def test_bracket_intervals_single():
    kern = ExponentialKernel((1.0,), (2.0,))
    assert bracket_intervals(kern) == [(-2.0, 0.0)]


def test_bracket_intervals_three_terms():
    kern = ExponentialKernel((1.0, 0.5, 1.0 / 3.0), (1.0, 2.0, 3.0))
    assert bracket_intervals(kern) == [(-1.0, 0.0), (-2.0, -1.0), (-3.0, -2.0)]


def test_cubic_branch_root(cubic):
    (root,) = branch_roots(cubic)
    assert root.index == 1
    assert root.interval == (-2.0, 0.0)
    assert abs(root.value - MU_1) < 1e-12
    assert root.residual < 1e-8


def test_cubic_stiffness_root_closed_form(cubic):
    # f(z) = 1 - 0.1/(z+2) vanishes at exactly -1.9
    (x1,) = stiffness_roots(cubic)
    assert abs(x1.value - (-1.9)) < 1e-12


def test_strict_ordering_between_pole_symbol_and_stiffness(cubic):
    (mu,) = branch_roots(cubic)
    (x1,) = stiffness_roots(cubic)
    assert -2.0 < mu.value < x1.value < 0.0


def test_every_interval_holds_one_of_each():
    kern = ExponentialKernel((0.3, 0.2, 0.1), (1.0, 2.5, 6.0))
    p = ModePencil(frequency=12.0, xi=0.25, kernel=kern)
    mus = branch_roots(p)
    xs = stiffness_roots(p)
    edges = (0.0, 1.0, 2.5, 6.0)
    for k, (mu, x) in enumerate(zip(mus, xs), start=1):
        assert -edges[k] < mu.value < x.value < -edges[k - 1]


def test_overloaded_kernel_has_no_first_branch():
    # w*S = 1.5 pushes L(0) negative: no sign change left of the origin
    kern = ExponentialKernel((1.0, 1.0), (1.0, 2.0))
    p = ModePencil(frequency=1.0, xi=0.5, kernel=kern)  # weight is 1 at a=1
    for solve in (branch_roots, stiffness_roots):
        with pytest.raises(InadmissibleModeError) as info:
            solve(p)
        assert info.value.load == 1.5


def test_every_branch_solve_refuses_an_overloaded_ladder():
    # loads 3.5, 2.33 and 1.75: the one gate, ModePencil.check_load, runs on
    # every solve, so branch_convergence fails on it at k = 2 as at k = 1
    # rather than on a branch that does not approach its pole
    kern = ExponentialKernel((3.0, 2.0), (1.0, 4.0))
    pencils = [ModePencil(a, 0.5, kern) for a in (1.0, 1.5, 2.0)]
    assert [p.load for p in pencils] == [3.5, pytest.approx(3.5 / 1.5), 1.75]
    for p in pencils:
        for solve in (solve_mode, branch_roots, stiffness_roots):
            with pytest.raises(InadmissibleModeError) as info:
                solve(p)
            assert info.value.load == p.load
    for k in (1, 2):
        with pytest.raises(InadmissibleModeError) as info:
            branch_convergence(pencils, k)
        assert info.value.load == 3.5


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
    mus, xs = branch_roots(p), stiffness_roots(p)
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


@settings(max_examples=60, derandomize=True, deadline=None)
@given(admissible_modes())
def test_random_admissible_ladders_interlace_and_match_the_oracle(p):
    _check_branches(p)


@pytest.mark.parametrize("coeffs, rates, a, xi", [PINCHED_FIVE, PINCHED_EIGHT])
def test_roots_inside_the_pole_guard_are_resolved(coeffs, rates, a, xi):
    p = ModePencil(a, xi, ExponentialKernel(coeffs, rates))
    _check_branches(p)
    assert min(mu.offset for mu in branch_roots(p)) < 1e-13 * rates[-1]


# recipe_sample(11, 20)[151]: summing this ladder in another order along
# the ladder moves the first symbol root's offset by an ulp, so a solve of
# fewer branches that summed it differently would show here
ORDER_SENSITIVE_EIGHT = (
    (0.1928609044156368, 0.9921223386695047, 0.5158347768385911,
     0.25515415701397626, 0.04348770117300937, 0.22293706551692952,
     0.11818688168132498, 0.24647972753992345),
    (1.440579830670115, 1.8119008389537852, 7.374569404314937,
     7.748662123510909, 12.864825228118175, 15.120952669569323,
     15.933516831500917, 23.301937505008024),
    57.244487641812455, 0.6754167512910065,
)


def _check_one_factor_solves(p: ModePencil) -> None:
    """Every entry point reads the same one-factor solves, bit for bit."""
    n = p.kernel.size
    roots, stiff = branch_roots(p), stiffness_roots(p)
    full = solve_mode(p)
    assert list(full.real_roots) == roots and list(full.stiffness_roots) == stiff
    # as branch_convergence does, one branch of each factor alone
    for k in {1, n}:
        assert real_branches._solve(p, True, k, k) == [roots[k - 1]]
        assert real_branches._solve(p, False, k, k) == [stiff[k - 1]]
    # the numpy block pass and the column-by-column pass, bit for bit, per factor
    assert _block_and_columns(branch_roots, p) == (roots, roots)
    assert _block_and_columns(stiffness_roots, p) == (stiff, stiff)


def _block_and_columns(solve, p: ModePencil):
    """``solve(p)`` from the numpy block pass and from the column-by-column pass."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(real_branches, "SCALAR_MAX", 0)
        block = solve(p)
        patch.setattr(real_branches, "SCALAR_MAX", p.kernel.size)
        return block, solve(p)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(admissible_modes())
def test_one_factor_solves_agree(p):
    _check_one_factor_solves(p)


@pytest.mark.parametrize(
    "coeffs, rates, a, xi",
    [PINCHED_FIVE, PINCHED_EIGHT, CLUSTER_TWELVE, ORDER_SENSITIVE_EIGHT],
    ids=["PINCHED_FIVE", "PINCHED_EIGHT", "CLUSTER_TWELVE", "ORDER_SENSITIVE_EIGHT"],
)
def test_one_factor_solves_agree_on_pinned_ladders(coeffs, rates, a, xi):
    _check_one_factor_solves(ModePencil(a, xi, ExponentialKernel(coeffs, rates)))


def test_small_blocks_split_the_columns_and_keep_the_roots(monkeypatch):
    coeffs, rates, a, xi = CLUSTER_TWELVE
    p = ModePencil(a, xi, ExponentialKernel(coeffs, rates))
    whole = {solve: solve(p) for solve in (branch_roots, stiffness_roots)}
    widths = []
    solve_block = real_branches._solve_block

    def spy(c, g, w, s, k):
        widths.append(k.size)
        return solve_block(c, g, w, s, k)

    monkeypatch.setattr(real_branches, "_solve_block", spy)
    monkeypatch.setattr(real_branches, "SCALAR_MAX", 0)  # the numpy block pass, not columns
    monkeypatch.setattr(real_branches, "BLOCK_CELLS", 12 * 6)  # six branches a block
    for solve, roots in whole.items():
        widths.clear()
        assert solve(p) == roots
        # 12 columns, one per branch of the one factor solved
        assert widths == [6, 6]


def test_columns_match_the_block_either_side_of_the_crossover(monkeypatch):
    n = real_branches.SCALAR_MAX
    used = []
    for name in ("_solve_block", "_solve_columns"):
        solve = getattr(real_branches, name)
        monkeypatch.setattr(real_branches, name, lambda *a, f=solve: used.append(f.__name__) or f(*a))
    rng = random.Random(21)
    for size in (n, n + 1):
        for _ in range(3):
            p = recipe_pencil(size, rng.uniform)
            for solve in (branch_roots, stiffness_roots):
                used.clear()
                default = solve(p)
                # columns up to the crossover, the block above it
                assert used == ["_solve_columns" if size <= n else "_solve_block"]
                assert _block_and_columns(solve, p) == (default, default)


@pytest.mark.parametrize(
    "max_iter, unsettled",
    [(1, list(range(1, 13))), (4, [2, 3, 4, 5, 6, 8, 9, 11]), (5, [4, 5, 8, 9, 11])],
)
def test_both_paths_name_the_same_unsettled_branches(max_iter, unsettled, monkeypatch):
    coeffs, rates, a, xi = CLUSTER_TWELVE
    p = ModePencil(a, xi, ExponentialKernel(coeffs, rates))
    monkeypatch.setattr(real_branches, "MAX_ITER", max_iter)
    # each factor leaves the same branches unsettled
    for solve in (branch_roots, stiffness_roots):
        for crossover in (0, 12):
            monkeypatch.setattr(real_branches, "SCALAR_MAX", crossover)
            with pytest.raises(MaxIterationsError) as info:
                solve(p)
            assert str(info.value) == f"branches {unsettled} not settled in {max_iter} steps"


def test_a_column_that_divides_by_zero_is_left_to_the_block(monkeypatch):
    coeffs, rates, a, xi = PINCHED_EIGHT
    p = ModePencil(a, xi, ExponentialKernel(coeffs, rates))
    whole = branch_roots(p), stiffness_roots(p)

    def divide_by_zero(*args):
        return 1.0 / 0.0

    monkeypatch.setattr(real_branches, "_solve_column", divide_by_zero)
    assert (branch_roots(p), stiffness_roots(p)) == whole
