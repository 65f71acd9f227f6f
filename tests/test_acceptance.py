"""Acceptance gate: the checks the package must pass before release.

Each test is numbered and self-contained in what it asserts; the shared
random corpus (checks 1-4) is solved once per session.  Tolerances are
stated inline next to each assertion.
"""

import cmath
import math
import time

import numpy as np
import pytest

from gpspectra import (
    ExponentialKernel,
    ModePencil,
    PowerLawFamily,
    aberth_roots,
    angular_integral,
    asymptotic_constant,
    continuum_laplace,
    count_zeros,
    empirical_order,
    fixed_point_pair,
    laplace,
    laplace_tail,
    match_roots,
    materialize,
    predict_finite_sum,
    simulate_decay,
    solve_mode,
    spectrum_contour,
    tail_bound,
    to_polynomial,
)
from conftest import CUBIC_CONFIG

CORPUS_SEED = 20250815
CORPUS_FREQUENCIES = (10.0, 100.0, 1000.0)
CORPUS_XIS = (0.25, 0.5, 0.75)

#: Re C(1/2): the universal decay prefactor for square-root families
SQRT_PREFACTOR = 1.1107207345395915


def _corpus_kernels():
    """50 admissible ladders, sizes 1-12, log-uniform gaps, strength < 0.9."""
    rng = np.random.default_rng(CORPUS_SEED)
    kernels = []
    for _ in range(50):
        n = int(rng.integers(1, 13))
        first = 10.0 ** rng.uniform(-1.0, 1.0)
        gaps = 10.0 ** rng.uniform(-1.0, 1.0, size=n - 1)
        rates = np.concatenate([[first], gaps]).cumsum()
        raw = 10.0 ** rng.uniform(-1.0, 1.0, size=n)
        strength = rng.uniform(0.2, 0.85)
        coeffs = raw * (strength / float(np.sum(raw / rates)))
        kernels.append(ExponentialKernel(tuple(coeffs.tolist()), tuple(rates.tolist())))
    return kernels


@pytest.fixture(scope="module")
def corpus():
    """450 solved instances: 50 kernels x 3 frequencies x 3 weights."""
    instances = []
    for kernel in _corpus_kernels():
        for a in CORPUS_FREQUENCIES:
            for xi in CORPUS_XIS:
                pencil = ModePencil(frequency=a, xi=xi, kernel=kernel)
                start = time.perf_counter()
                result = solve_mode(pencil)
                seconds = time.perf_counter() - start
                instances.append((pencil, result, seconds))
    return instances


def _family_with_tail_below(alpha, beta, moment, bound):
    """Smallest unit-amplitude, unit-scale family whose dropped tail moment
    falls below ``bound``."""
    probe = PowerLawFamily(amplitude=1.0, scale=1.0, alpha=alpha, beta=beta, count=1)
    hi = 1
    while tail_bound(probe, hi, moment=moment) >= bound:
        hi *= 2
    lo = max(1, hi // 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if tail_bound(probe, mid, moment=moment) < bound:
            hi = mid
        else:
            lo = mid + 1
    return PowerLawFamily(amplitude=1.0, scale=1.0, alpha=alpha, beta=beta, count=lo)


# ---------------------------------------------------------------- checks 1-4


def test_01_corpus_matches_polynomial_oracle(corpus):
    worst = 0.0
    slowest = 0.0
    for pencil, result, seconds in corpus:
        reference = aberth_roots(to_polynomial(pencil))
        deviation = match_roots(result.all_roots, reference).max_relative_deviation
        worst = max(worst, deviation)
        slowest = max(slowest, seconds)
    assert worst <= 1e-8
    assert slowest < 1.0


def test_02_corpus_interlacing_never_fails(corpus):
    violations = [r.interlacing_margin for _, r, _ in corpus if r.interlacing_margin <= 0]
    assert violations == []


def test_03_corpus_vieta_identities(corpus):
    for pencil, result, _ in corpus:
        rate_sum = math.fsum(pencil.kernel.rates)
        root_sum = math.fsum(b.value for b in result.real_roots)
        root_sum += 2.0 * result.pair_plus.real
        assert abs(root_sum + rate_sum) / max(1.0, rate_sum) <= 1e-12

        ws = pencil.memory_weight * pencil.kernel.l1_norm
        lhs = math.fsum(math.log(abs(b.value)) for b in result.real_roots)
        lhs += 2.0 * math.log(abs(result.pair_plus))
        rhs = 2.0 * math.log(pencil.frequency)
        rhs += math.fsum(math.log(g) for g in pencil.kernel.rates)
        rhs += math.log1p(-ws)
        assert abs(lhs - rhs) / max(1.0, abs(rhs)) <= 1e-10


def test_04_corpus_contour_counts(corpus):
    for pencil, result, _ in corpus:
        n = pencil.kernel.size
        contour = count_zeros(pencil, spectrum_contour(pencil))
        assert contour.zeros_inferred == n + 2
        assert contour.max_quadrature_defect < 0.25
        # the solver's own count: n brackets and one disc, each proven
        certificate = result.certificate
        assert certificate.zeros_inferred == n + 2
        assert len(certificate.brackets) == n
        assert certificate.sign_margin > 1.0
        assert certificate.kantorovich_h <= 0.5


# ------------------------------------------------------- asymptotic regimes


def test_05_finite_sum_remainder_orders():
    start = time.perf_counter()
    kernel = ExponentialKernel((1.0,), (2.0,))
    re_points, im_points = [], []
    for a in (1e1, 1e2, 1e3, 1e4, 1e5):
        pair = fixed_point_pair(ModePencil(frequency=a, xi=0.5, kernel=kernel)).plus
        predicted = predict_finite_sum(a, 0.5, kernel.initial_value).value
        re_points.append((a, abs(pair.real - predicted.real)))
        im_points.append((a, abs(pair.imag - predicted.imag)))
    assert empirical_order(re_points).slope <= -0.9
    assert empirical_order(im_points).slope <= 0.05
    assert time.perf_counter() - start < 10.0


def test_06_sqrt_family_decay_law():
    start = time.perf_counter()
    # ladder long enough that the dropped second tail moment cannot move
    # the decay rate at the 1e-8 level
    family = _family_with_tail_below(alpha=0.5, beta=1.0, moment=2, bound=1e-8)
    kernel = materialize(family)
    points = []
    for j in range(6):
        a = 100.0 * 10.0 ** (0.4 * j)
        pair = fixed_point_pair(ModePencil(frequency=a, xi=0.5, kernel=kernel)).plus
        points.append((a, abs(pair.real)))
    fit = empirical_order(points)
    assert abs(fit.slope - (-0.5)) <= 0.15
    a_max, decay_max = points[-1]
    prefactor = decay_max * math.sqrt(a_max)
    assert abs(prefactor - SQRT_PREFACTOR) <= 0.2 * SQRT_PREFACTOR
    assert time.perf_counter() - start < 60.0


def test_07_log_family_decay_law():
    family = _family_with_tail_below(alpha=1.0, beta=1.0, moment=1, bound=1e-6)
    kernel = materialize(family)
    a = 1e4
    pair = fixed_point_pair(ModePencil(frequency=a, xi=0.5, kernel=kernel)).plus
    ratio = abs(pair.real) * a / math.log(a)
    assert abs(ratio - 0.5) <= 0.1 * 0.5


def test_08_constant_closed_form_vs_quadrature():
    for k in range(1, 10):
        r = 0.1 * k
        gap = abs(asymptotic_constant(r) - 0.5j * angular_integral(r, math.pi / 2))
        assert gap < 1e-8
    c = asymptotic_constant(0.5)
    assert c.real == pytest.approx(SQRT_PREFACTOR, abs=1e-12)
    assert c.imag == pytest.approx(SQRT_PREFACTOR, abs=1e-12)


def test_09_weight_exponent_sorts_the_regimes():
    family = PowerLawFamily(amplitude=1.0, scale=1.0, alpha=0.5, beta=1.0, count=80000)
    kernel = materialize(family)
    ladder = [100.0 * 10.0 ** (0.4 * j) for j in range(6)]

    def decay_rates(xi):
        return [
            abs(fixed_point_pair(ModePencil(frequency=a, xi=xi, kernel=kernel)).plus.real)
            for a in ladder
        ]

    falling = decay_rates(0.3)
    assert all(x > y for x, y in zip(falling, falling[1:]))
    rising = decay_rates(0.9)
    assert all(x < y for x, y in zip(rising, rising[1:]))
    frozen = decay_rates(0.75)  # xi = (r+1)/2: the constant-offset boundary
    assert abs(frozen[-1] - SQRT_PREFACTOR) <= 0.25 * SQRT_PREFACTOR


# ------------------------------------------------------- independent oracles


DECAY_SUITE = (
    ((1.0,), (2.0,), 10.0, 0.5, 2000.0, 1e-3),
    ((0.5, 0.3), (1.0, 3.0), 10.0, 0.5, 2000.0, 1e-3),
    ((1.0,), (2.0,), 20.0, 0.25, 1200.0, 2e-3),
    ((2.0,), (5.0,), 15.0, 0.75, 60.0, 3e-3),
    ((0.2, 0.2, 0.2), (0.5, 2.0, 6.0), 8.0, 0.5, 2000.0, 5e-3),
    ((1.5,), (2.5,), 12.0, 0.6, 150.0, 4e-3),
)


def test_10_time_domain_decay_matches_abscissa():
    for coeffs, rates, a, xi, horizon, dt in DECAY_SUITE:
        pencil = ModePencil(frequency=a, xi=xi, kernel=ExponentialKernel(coeffs, rates))
        result = solve_mode(pencil)
        estimate = simulate_decay(pencil, horizon=horizon, dt=dt)
        abscissa = result.spectral_abscissa
        assert abs(estimate.rate - abscissa) <= 0.05 * abs(abscissa)


def test_11_ladder_transform_tracks_the_continuum():
    family = PowerLawFamily(amplitude=1.0, scale=1.0, alpha=0.5, beta=1.0, count=100000)
    kernel = materialize(family)
    direction = cmath.exp(1j * math.pi / 4.0)
    points = []
    for j in range(7):
        radius = 10.0 * 10.0 ** (0.5 * j)
        zeta = radius * direction
        ladder = laplace(kernel, zeta) + laplace_tail(family, zeta)
        continuum = continuum_laplace(family, zeta)
        points.append((radius, radius * abs(ladder - continuum)))
    fit = empirical_order(points)
    assert fit.slope <= 0.1


# ----------------------------------------------------------------- the CLI


def test_12_cli_runs_are_byte_identical(run_cli):
    jobs = {
        "spectrum": CUBIC_CONFIG,
        "verify": CUBIC_CONFIG,
        "oracle-check": CUBIC_CONFIG,
        "sweep": dict(CUBIC_CONFIG, modes={"a_min": 10.0, "factor": 10.0, "count": 4}),
        "asymptote": {
            "kernel": {"family": {
                "amplitude": 1.0, "scale": 1.0, "alpha": 0.5, "beta": 1.0, "count": 100,
            }},
            "xi": 0.5,
            "modes": [10.0, 100.0],
        },
    }
    for job, config in jobs.items():
        first = run_cli(job, config)
        second = run_cli(job, config)
        assert first[0] == 0, f"{job} exited {first[0]}"
        assert first == second, f"{job} output is not reproducible"
