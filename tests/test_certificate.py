"""The counting certificate: proven brackets for the real roots, a disc for the pair."""

import dataclasses
import sys
import types
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

import gpspectra.cli
from gpspectra import (
    EnclosureError,
    ExponentialKernel,
    InadmissibleModeError,
    ModePencil,
    PowerLawFamily,
    aberth_roots,
    branch_roots,
    fixed_point_pair,
    kantorovich_ball,
    laplace_pass,
    materialize,
    pseudo_ladder,
    solve_mode,
    stiffness_roots,
    to_polynomial,
)
from gpspectra.kernels import FSUM_MAX
from gpspectra import solve
from conftest import (
    CLUSTER_TWELVE,
    CUBIC_CONFIG,
    PAIR,
    PINCHED_EIGHT,
    PINCHED_FIVE,
    admissible_modes,
    in_disc,
    wide_frequency_modes,
)

PINNED = [PINCHED_FIVE, PINCHED_EIGHT, CLUSTER_TWELVE]
PINNED_IDS = ["PINCHED_FIVE", "PINCHED_EIGHT", "CLUSTER_TWELVE"]


def _exact_secular(p: ModePencil, z: Fraction, inertia: bool) -> Fraction:
    """L/a**2 (the stiffness factor f without ``inertia``) at a rational z, exactly.

    The pencil's weight w is taken as the double it is, as in to_polynomial.
    """
    w = Fraction(p.memory_weight)
    memory = sum(Fraction(c) / (z + Fraction(g)) for c, g in zip(p.kernel.coeffs, p.kernel.rates))
    f = 1 - w * memory
    return f + z * z / Fraction(p.frequency) ** 2 if inertia else f


def _check_brackets(p: ModePencil) -> int:
    """Every certified bracket shows the certified signs in exact arithmetic."""
    n = p.kernel.size
    roots, stiff = branch_roots(p), stiffness_roots(p)
    assert all(r.sign_margin > 1.0 for r in roots)
    edges = (Fraction(0),) + tuple(Fraction(g) for g in p.kernel.rates)
    checked = 0
    for inertia, branch in ((True, roots), (False, stiff)):
        for r in branch:
            lo, hi = r.bracket
            assert 0.0 < lo < r.offset < hi
            g = edges[r.index]
            # strictly inside the pole interval, in exact arithmetic
            assert Fraction(hi) - g < -edges[r.index - 1]
            if r.sign_margin > 1.0:
                assert _exact_secular(p, Fraction(lo) - g, inertia) < 0
                assert _exact_secular(p, Fraction(hi) - g, inertia) > 0
                checked += 1
    return checked


def _check_pair_disc(p: ModePencil) -> None:
    """The oracle's pair lies in the certified disc and its conjugate."""
    cert = solve_mode(p).certificate
    assert cert.zeros_inferred == p.kernel.size + 2
    assert cert.kantorovich_h <= 0.5
    assert 1.0 + cert.pair_center.imag > cert.pair_radius
    reference = aberth_roots(to_polynomial(p))
    upper, lower = reference[np.argmax(reference.imag)], reference[np.argmin(reference.imag)]
    assert in_disc(complex(upper), p, cert.pair_center, cert.pair_radius)
    assert in_disc(complex(lower).conjugate(), p, cert.pair_center, cert.pair_radius)


@pytest.mark.parametrize("coeffs, rates, a, xi", PINNED, ids=PINNED_IDS)
def test_brackets_hold_their_signs_exactly_on_pinned_ladders(coeffs, rates, a, xi):
    p = ModePencil(a, xi, ExponentialKernel(coeffs, rates))
    assert _check_brackets(p) >= len(rates)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(admissible_modes())
def test_brackets_hold_their_signs_exactly(p):
    _check_brackets(p)


@pytest.mark.parametrize("coeffs, rates, a, xi", PINNED, ids=PINNED_IDS)
def test_pair_disc_holds_the_oracle_pair_on_pinned_ladders(coeffs, rates, a, xi):
    _check_pair_disc(ModePencil(a, xi, ExponentialKernel(coeffs, rates)))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(admissible_modes())
def test_pair_disc_holds_the_oracle_pair(p):
    _check_pair_disc(p)


# at a = 1e100 and xi = 0.05 the real roots sit about 1e-190 from their
# poles, where c/t**2 underflows before w scales it
LARGE = [(a, xi) for a in (1e18, 1e30) for xi in (0.05, 0.5, 0.95)] + [(1e100, xi) for xi in (0.05, 0.5, 0.95)]


@pytest.mark.parametrize("a, xi", LARGE)
def test_large_frequencies_are_counted(a, xi):
    # the contour walk cannot resolve these: ulp(a) outgrows the span over
    # which the symbol's phase turns on the rectangle's sides
    p = ModePencil(a, xi, ExponentialKernel((1.0, 0.5, 0.25), (2.0, 5.0, 11.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cert = solve_mode(p).certificate
    assert cert.zeros_inferred == 5
    assert cert.sign_margin > 1.0
    assert cert.kantorovich_h <= 0.5


@settings(max_examples=30, derandomize=True, deadline=None)
@given(wide_frequency_modes())
def test_every_admissible_mode_over_a_wide_frequency_range_is_certified(p):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            cert = solve_mode(p).certificate
        except InadmissibleModeError:
            assert p.overloaded
            return
    assert cert.zeros_inferred == p.kernel.size + 2
    assert cert.sign_margin > 1.0
    assert cert.kantorovich_h <= 0.5


def test_an_unproven_bracket_names_its_branch(cubic):
    result = solve_mode(cubic)
    weak = dataclasses.replace(result.real_roots[0], sign_margin=0.5)
    with pytest.raises(EnclosureError) as info:
        solve._count_roots((weak,), fixed_point_pair(cubic).disc)
    assert info.value.branch == 1
    assert info.value.bracket == weak.bracket
    assert "branch 1" in str(info.value)


def test_a_disc_far_from_the_root_is_refused(cubic):
    with pytest.raises(EnclosureError) as info:
        kantorovich_ball(cubic, PAIR + 10.0)
    assert info.value.branch is None
    assert "pair" in str(info.value)


def test_a_disc_whose_newton_step_is_too_long_is_refused(cubic):
    # five off the root the disc still clears the real axis, but the
    # Kantorovich quantity does not stay within 1/2
    with pytest.raises(EnclosureError, match=r"Kantorovich h = .* is above 1/2") as info:
        kantorovich_ball(cubic, PAIR + 5.0)
    assert info.value.branch is None


def test_the_disc_is_no_narrower_than_the_doubles_at_its_centre(cubic):
    _, radius, h = kantorovich_ball(cubic, PAIR)
    assert radius >= 2.0 * np.finfo(float).eps
    assert h <= 1e-15


def _counted_passes(monkeypatch) -> list:
    """Record the point of every ``laplace_pass`` call, wherever a module holds it."""
    original, points = laplace_pass, []

    def counted(kernel, z, ends=None):
        points.append(z)
        return original(kernel, z, ends)

    for name, module in list(sys.modules.items()):
        if name.startswith("gpspectra") and getattr(module, "laplace_pass", None) is original:
            monkeypatch.setattr(module, "laplace_pass", counted)
    return points


def _sqrt_family(count: int) -> ModePencil:
    return ModePencil(100.0, 0.5, materialize(PowerLawFamily(1.0, 1.0, 0.5, 1.0, count)))


@pytest.mark.parametrize("which", ["cubic", "sqrt_100"])
def test_solve_mode_passes_over_the_ladder_once_after_the_pair_solve(which, cubic, monkeypatch):
    # one pass per pair iteration, then one at the root for the residual and the disc
    p = cubic if which == "cubic" else _sqrt_family(100)
    points = _counted_passes(monkeypatch)
    result = solve_mode(p)
    assert len(points) == result.pair_iterations + 1
    assert points[-1] == result.pair_plus


#: a sweep of the cubic's kernel, and one of a family whose every mode
#: solves on its pseudo-ladder with its end corrections
SWEEPS = {
    "cubic": dict(CUBIC_CONFIG, modes={"a_min": 10.0, "factor": 10.0, "count": 4}),
    "family_head": {
        "kernel": {"family": {"amplitude": 1.0, "scale": 1.0, "alpha": 0.5, "beta": 1.0, "count": 10**5}},
        "xi": 0.5,
        "modes": {"a_min": 100.0, "factor": 5.0, "count": 4},
    },
}


@pytest.mark.parametrize("which", SWEEPS)
def test_a_sweep_mode_passes_over_the_ladder_only_in_its_pair_solve(which, run_cli, monkeypatch):
    # the disc reads the pair solve's last pass: each mode makes its pair's
    # iterations passes, the last at the iterate the disc is proven from,
    # and none after it
    points, spans = _counted_passes(monkeypatch), []
    solve = gpspectra.cli.fixed_point_pair

    def solve_spy(pencil, **kwargs):
        start = len(points)
        pair = solve(pencil, **kwargs)
        spans.append((start, len(points), pencil.frequency, pair, kwargs["ends"]))
        return pair

    monkeypatch.setattr(gpspectra.cli, "fixed_point_pair", solve_spy)
    code, _, err = run_cli("sweep", SWEEPS[which])
    assert code == 0, err
    assert len(spans) == 4 and spans[0][0] == 0
    for (start, stop, a, pair, ends), after in zip(spans, [s[0] for s in spans[1:]] + [len(points)]):
        assert stop - start == pair.iterations and stop == after
        last = points[stop - 1]
        assert pair.disc[0] == complex(last.real / a, last.imag / a - 1.0) and pair.disc[2] <= 0.5
        assert (ends is not None) == (which == "family_head")


def test_a_bare_disc_passes_over_the_ladder_once(cubic, monkeypatch):
    plus = solve_mode(cubic).pair_plus
    points = _counted_passes(monkeypatch)
    kantorovich_ball(cubic, plus)
    assert points == [plus]


def _newton_root(p: ModePencil, start: complex, family: PowerLawFamily | None = None) -> types.SimpleNamespace:
    """The upper root by Newton's method on L at 40 digits, every input the double it is.

    With ``family``, the ladder is every pole of that family at its exact
    value, as the kernel, a pseudo-ladder, and its end corrections stand
    for them.  Returned as exact binary rationals, ``real`` and ``imag``,
    for :func:`in_disc`.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a2, w = mpmath.mpf(p.frequency) ** 2, mpmath.mpf(p.memory_weight)
        ladder = [(mpmath.mpf(c), mpmath.mpf(g)) for c, g in zip(p.kernel.coeffs, p.kernel.rates)]
        if family is not None:
            amplitude, scale, alpha, beta = (mpmath.mpf(x) for x in (family.amplitude, family.scale, family.alpha, family.beta))
            ladder = [(amplitude / k**alpha, scale * k**beta) for k in map(mpmath.mpf, range(1, family.count + 1))]
        z = mpmath.mpc(start)
        for _ in range(20):
            value = z * z + a2 * (1 - w * mpmath.fsum(c / (z + g) for c, g in ladder))
            slope = 2 * z + a2 * w * mpmath.fsum(c / (z + g) ** 2 for c, g in ladder)
            step = value / slope
            z -= step
            if abs(step) < mpmath.mpf(10) ** -36 * abs(z):
                break
        else:
            raise AssertionError("Newton on L did not settle at 40 digits")
        real, imag = (Fraction(*mpmath.libmp.to_rational(part._mpf_)) for part in (z.real, z.imag))
    return types.SimpleNamespace(real=real, imag=imag)


@pytest.mark.parametrize("count", [100, 1024])
def test_the_disc_holds_a_40_digit_root_on_a_blocked_sum_ladder(count):
    # above FSUM_MAX the pass sums in blocks and s1 is a bound, not a sum;
    # the polynomial oracle stops at 64 terms, so the reference is Newton on L
    p = _sqrt_family(count)
    assert p.kernel.size > FSUM_MAX
    plus = fixed_point_pair(p).plus
    center, radius, h = kantorovich_ball(p, plus)
    assert h <= 0.5
    assert in_disc(_newton_root(p, plus), p, center, radius)


@pytest.mark.parametrize("xi", [0.5, 0.8])
def test_the_disc_holds_a_40_digit_root_of_a_whole_family_on_its_head(xi):
    # the 3000-term family solves on its pseudo-ladder, its first 63 poles
    # and 86 more, with its end corrections, so the disc rests on their
    # error bound; the reference sums every term of the family to 40 digits
    family = PowerLawFamily(1.0, 1.0, 0.5, 1.0, 3000)
    kernel, ends = pseudo_ladder(family)
    assert kernel.size == 149 and ends is not None
    p = ModePencil(100.0, xi, kernel)
    pair = fixed_point_pair(p, ends=ends)
    center, radius, h = pair.disc
    assert h <= 0.5
    assert in_disc(pair.plus, p, center, radius)
    assert in_disc(_newton_root(p, pair.plus, family=family), p, center, radius)
