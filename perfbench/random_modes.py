"""Workload ``random_modes``: everyday small-ladder traffic.

Each operation builds one admissible mode, solves it with its contour
certificate (``solve_mode``) and cross-checks the roots against the
polynomial oracle (``to_polynomial`` + ``aberth_roots`` + ``match_roots``).
Real-branch bisection and the oracle's multiprecision polish do nearly all
of the work.

Inputs come from a fixed pool of POOL_PER_SIZE ladders per size 1..12,
drawn with the standard library's generator from POOL_SEED, so the pool does
not depend on numpy or on the program.  Pool entries on which the program
fails today are listed in ``pool_failures.json`` (written by
``screen_pool.py``).  ``--seed`` draws PICK_PER_SIZE passing ladders of each
size and FAILING_PICKS of the failing ones, so every round has the same mix
of sizes and the same share of failing modes, about their share in
unscreened traffic, at every seed; over the seeds every pool entry is drawn.
The failing modes are the operations counted in ``failed``.
"""

from __future__ import annotations

import json
import math
import random
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

import gpspectra
from gpspectra.errors import GPSpectraError
from stats import median, tail

POOL_SEED = 14034382
POOL_SIZES = tuple(range(1, 13))
POOL_PER_SIZE = 64
PICK_PER_SIZE = 24
FAILING_PICKS = 21

FAILURES_FILE = Path(__file__).with_name("pool_failures.json")

#: solver residual target, as solve_mode's default
RESIDUAL_TOL = 1e-10

#: root agreement with the oracle and the Vieta identities (relative)
AGREEMENT_TOL = 1e-8


@dataclass(frozen=True)
class Draw:
    index: int
    coeffs: tuple[float, ...]
    rates: tuple[float, ...]
    frequency: float
    xi: float


def pool() -> list[Draw]:
    """Admissible ladders with log-uniform gaps, memory strength 0.2-0.85,
    frequency log-uniform over [1, 1e6] and xi uniform over [0.05, 0.95]."""
    rng = random.Random(POOL_SEED)
    out = []
    for n in POOL_SIZES:
        for _ in range(POOL_PER_SIZE):
            rates = [10.0 ** rng.uniform(-1.0, 1.0)]
            for _ in range(n - 1):
                rates.append(rates[-1] + 10.0 ** rng.uniform(-1.0, 1.0))
            raw = [10.0 ** rng.uniform(-1.0, 1.0) for _ in range(n)]
            strength = rng.uniform(0.2, 0.85)
            scale = strength / math.fsum(r / g for r, g in zip(raw, rates))
            frequency = 10.0 ** rng.uniform(0.0, 6.0)
            xi = rng.uniform(0.05, 0.95)
            out.append(
                Draw(len(out), tuple(r * scale for r in raw), tuple(rates), frequency, xi)
            )
    return out


def load_failures() -> dict[int, str]:
    with FAILURES_FILE.open(encoding="utf-8") as fh:
        return {int(k): v for k, v in json.load(fh).items()}


def select(seed: int) -> list[Draw]:
    """The round: seeded passing picks per size and seeded failing picks, in seeded order."""
    entries = pool()
    failures = load_failures()
    rng = random.Random(seed)
    chosen = [entries[i] for i in rng.sample(sorted(failures), FAILING_PICKS)]
    for n in POOL_SIZES:
        candidates = [d for d in entries if len(d.rates) == n and d.index not in failures]
        chosen.extend(rng.sample(candidates, PICK_PER_SIZE))
    rng.shuffle(chosen)
    return chosen


def symbol_value(d: Draw, z: complex) -> complex:
    """L(z) = z^2 + a^2 - a^(2 xi) sum c_k/(z + g_k), evaluated independently."""
    terms = [c / (z + g) for c, g in zip(d.coeffs, d.rates)]
    memory = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    return z * z + d.frequency**2 - d.frequency ** (2.0 * d.xi) * memory


def check(d: Draw, result, deviation: float) -> list[str]:
    """Properties the structure theorem fixes, computed from the kernel alone."""
    problems = []
    n = len(d.rates)
    a, g = d.frequency, d.rates
    tag = f"pool entry {d.index}"
    if len(result.real_roots) != n or len(result.stiffness_roots) != n:
        return [f"{tag}: expected {n} real and stiffness roots"]
    # the root-to-stiffness-root gap closes like a**(2 xi - 4), below one ulp
    # at large a, so interlacing is checked as root <= stiffness root
    edges = (0.0,) + g
    for k, (mu, x) in enumerate(zip(result.real_roots, result.stiffness_roots), start=1):
        if not -edges[k] < mu.value <= x.value < -edges[k - 1]:
            problems.append(f"{tag}: branch {k} breaks -g_k < root <= stiffness root < -g_(k-1)")
    plus = complex(result.pair_plus)
    if not plus.imag > 0 or result.pair_minus != plus.conjugate():
        problems.append(f"{tag}: pair is not an upper root with its conjugate")
    reals = [mu.value for mu in result.real_roots]
    rate_sum = math.fsum(g)
    sum_dev = abs(math.fsum(reals + [2.0 * plus.real]) + rate_sum) / max(1.0, rate_sum)
    if not sum_dev <= AGREEMENT_TOL:
        problems.append(f"{tag}: Vieta sum off by {sum_dev:.3e}")
    # P(0) = a^2 prod g_k (1 - w sum c_k/g_k), compared in log space
    w = a ** (-2.0 * (1.0 - d.xi))
    load = w * math.fsum(c / r for c, r in zip(d.coeffs, g))
    lhs = math.fsum([math.log(abs(r)) for r in reals] + [2.0 * math.log(abs(plus))])
    rhs = math.fsum([2.0 * math.log(a), math.log1p(-load)] + [math.log(r) for r in g])
    prod_dev = abs(lhs - rhs) / max(1.0, abs(rhs))
    if not prod_dev <= AGREEMENT_TOL:
        problems.append(f"{tag}: Vieta log-product off by {prod_dev:.3e}")
    cert = result.certificate
    if cert is None or cert.zeros_inferred != n + 2:
        problems.append(f"{tag}: contour count is not n+2 = {n + 2}")
    residual = abs(symbol_value(d, plus))
    if not residual <= RESIDUAL_TOL * a * a:
        problems.append(f"{tag}: pair residual {residual:.3e} above {RESIDUAL_TOL} a^2")
    if not deviation <= AGREEMENT_TOL:
        problems.append(f"{tag}: oracle deviation {deviation:.3e}")
    return problems


def operate(d: Draw):
    """One operation: (solve ns, oracle ns, result, oracle deviation)."""
    pencil = gpspectra.ModePencil(
        frequency=d.frequency, xi=d.xi, kernel=gpspectra.ExponentialKernel(d.coeffs, d.rates)
    )
    t0 = perf_counter_ns()
    result = gpspectra.solve_mode(pencil)
    t1 = perf_counter_ns()
    reference = gpspectra.aberth_roots(gpspectra.to_polynomial(pencil))
    match = gpspectra.match_roots(result.all_roots, reference)
    t2 = perf_counter_ns()
    return t1 - t0, t2 - t1, result, match.max_relative_deviation


class Workload:
    units = {"op"}
    min_rounds = 1

    def __init__(self, seed: int, workdir: Path):
        self.draws = select(seed)
        self.problems: set[str] = set()
        self.errors: dict[str, int] = {}
        self.solve_ns: list[float] = []
        self.oracle_ns: list[float] = []
        self.failed_ns: list[float] = []

    def round(self, record, tracer) -> None:
        for d in self.draws:
            start = perf_counter_ns()
            try:
                with tracer.span("op", 1) if tracer is not None else nullcontext():
                    solve_ns, oracle_ns, result, deviation = operate(d)
            except GPSpectraError as exc:
                elapsed = perf_counter_ns() - start
                record(False, elapsed, 1)
                self.failed_ns.append(elapsed)
                name = type(exc).__name__
                self.errors[name] = self.errors.get(name, 0) + 1
                continue
            record(True, perf_counter_ns() - start, 1)
            self.solve_ns.append(solve_ns)
            self.oracle_ns.append(oracle_ns)
            self.problems.update(check(d, result, deviation))

    def report(self) -> list[tuple[str, float, str]]:
        solved = len(self.solve_ns)
        # a failed solve counts as missing every latency limit
        latency = self.solve_ns + [math.inf] * len(self.failed_ns)
        attempted_ns = sum(self.solve_ns) + sum(self.failed_ns)
        lines = [
            ("solve_modes_per_s", solved / (attempted_ns / 1e9), "modes/s"),
            ("solve_ms_p50", median(latency) / 1e6, "ms"),
            ("oracle_modes_per_s", solved / (sum(self.oracle_ns) / 1e9), "modes/s"),
        ]
        top = tail(latency)
        if top is not None:
            lines.append((f"solve_ms_p{top[0]:g}", top[1] / 1e6, "ms"))
        for name, count in sorted(self.errors.items()):
            lines.append((f"failed.{name}", count, "count"))
        return lines
