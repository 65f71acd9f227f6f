"""Independent cross-checks: polynomial roots and time-domain decay.

None of the machinery here reuses the bracketing/fixed-point solvers, so
agreement is evidence rather than tautology:

* :func:`aberth_roots` finds all roots of the cleared polynomial at once
  (Aberth-Ehrlich simultaneous iteration started at the eigenvalues of
  the polynomial's companion matrix);
* :func:`build_mode_system` realises a mode as the first-order linear
  system whose eigenvalues are exactly the symbol roots, with the
  characteristic polynomial recovered by the Faddeev-LeVerrier recursion;
* :func:`simulate_decay` integrates that system (classical fourth-order
  one-step matrix, fixed step) and reads the slowest decay rate off the
  oscillation envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import MaxIterationsError, NumericalError
from .pencil import ModePencil, common_denominator

#: largest mode system materialised as a dense matrix
ODE_MAX = 32

#: residual acceptance for the simultaneous root finder
ABERTH_RESIDUAL = 1e-10

#: bits kept, relative to the larger component, of a point fed to the exact
#: Newton step; finer grids only make the integers longer (imaginary parts
#: of ~1e-78 on real roots would otherwise cost hundreds of bits)
QUANT_BITS = 60


def _working_value(x) -> np.clongdouble:
    """Convert one coefficient to extended precision without losing bits.

    numpy's own object-array casts go through ``float`` and would round
    exact rationals to 53 bits; splitting into a double head plus exact
    remainder keeps the full 64-bit longdouble mantissa.  Both parts are
    correctly rounded integer true divisions: hi = n/d, and lo the
    remainder n/d - hn/hd = (n*hd - hn*d)/(d*hd) with hi = hn/hd.
    """
    if isinstance(x, Fraction):
        n, d = x.numerator, x.denominator
        hi = n / d
        hn, hd = hi.as_integer_ratio()
        lo = (n * hd - hn * d) / (d * hd)
        return np.clongdouble(hi) + np.clongdouble(lo)
    return np.clongdouble(x)


def _powers(z: np.ndarray, degree: int) -> np.ndarray:
    """The power table V[:, j] = z**j, j = 0..degree, from one cumulative product.

    P(z) = V @ c for ascending coefficients c, and P'(z) = V[:, :-1] @ dc.
    """
    v = np.empty((z.size, degree + 1), dtype=z.dtype)
    v[:, 0] = 1.0
    v[:, 1:] = z[:, None]
    return np.multiply.accumulate(v, axis=1, out=v)


def _exact(x) -> Fraction:
    """The exact rational value of one real int, float, longdouble or Fraction."""
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    return x if isinstance(x, Fraction) else Fraction(*x.as_integer_ratio())


def _gaussian_numerators(exacts: list) -> list[tuple[int, int]]:
    """Coefficients as Gaussian-integer numerators over one common denominator.

    The denominator itself is dropped: it scales P and P' alike, so Newton
    steps do not see it.
    """
    parts = []
    for x in exacts:
        if isinstance(x, (complex, np.complexfloating)):
            parts += [_exact(x.real), _exact(x.imag)]
        else:
            parts += [_exact(x), Fraction(0)]
    nums, _ = common_denominator(parts)
    return list(zip(nums[::2], nums[1::2]))


def _newton_iterate(nums: list[tuple[int, int]], root: complex) -> complex | None:
    """One exact Newton step z - P(z)/P'(z), rounded once to a complex double.

    The point is first put on the grid 2**(e - QUANT_BITS), e the binary
    exponent of its larger component, and written as Z/s with Gaussian
    integer Z and s = 2**t.  Horner's rule on the homogenised polynomial
    Q(Z) = sum N_k Z**k s**(deg-k) = s**deg P(Z/s) carries Q and Q'
    exactly, and the iterate Z/s - Q/(s Q') = (Z Q' - Q)/(s Q') is rounded
    by integer true division.  Returns None where Q' vanishes.
    """
    _, e = math.frexp(max(abs(root.real), abs(root.imag)))
    t = QUANT_BITS - e
    x, y = round(math.ldexp(root.real, t)), round(math.ldexp(root.imag, t))
    if t < 0:
        x, y, t = x << -t, y << -t, 0
    deg = len(nums) - 1
    qr = qi = er = ei = 0
    for k in range(deg, -1, -1):
        nr, ni = nums[k]
        shift = t * (deg - k)
        er, ei = er * x - ei * y + qr, er * y + ei * x + qi
        qr, qi = qr * x - qi * y + (nr << shift), qr * y + qi * x + (ni << shift)
    dr, di = er << t, ei << t
    norm = dr * dr + di * di
    if norm == 0:
        return None
    pr, pi = x * er - y * ei - qr, x * ei + y * er - qi
    return complex((pr * dr + pi * di) / norm, (pi * dr - pr * di) / norm)


def _polish_roots(z: np.ndarray, exacts: list, steps: int = 4) -> np.ndarray:
    """Newton-polish converged iterates with P and P' evaluated exactly.

    The simultaneous iteration leaves every iterate deep inside its own
    Newton basin; what still limits it is evaluation noise at working
    precision, which for badly conditioned monomial bases (condition
    numbers around 1e10 for pinched roots) costs ~1e-9 of forward
    accuracy.  Every coefficient is an exact rational and every iterate a
    binary rational, so each Newton step is formed exactly in Python
    integers (:func:`_newton_iterate`) and rounded once.  From a point
    within about 2**-60 of a root the exact step lands within round-off of
    it, so iterates stop as soon as they repeat, or after ``steps``.
    """
    nums = _gaussian_numerators(exacts)
    out = []
    for seed in z.astype(complex):
        root = complex(seed)
        for _ in range(steps):
            step = _newton_iterate(nums, root)
            if step is None or step == root:
                break
            root = step
        out.append(root)
    return np.array(out, dtype=complex)


def _companion_start(c: np.ndarray) -> np.ndarray:
    """Eigenvalues of the companion matrix of the monic polynomial ``c``.

    The matrix is formed in complex double from the ascending monic
    coefficients (ones on the subdiagonal, -c_0..-c_{n-1} in the last
    column) and handed to LAPACK's balanced QR, whose eigenvalues are
    backward stable for the balanced matrix.  They start the Aberth sweeps
    near every root, so the sweeps only polish; equal eigenvalues are
    separated by the sweep loop's collision nudge.
    """
    n = c.size - 1
    companion = np.zeros((n, n), dtype=complex)
    companion[1:, :-1] = np.eye(n - 1)
    companion[:, -1] = -c[:-1]
    try:
        return np.linalg.eigvals(companion)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"companion eigenvalues failed: {exc}") from exc


def aberth_roots(coeffs: Sequence[float] | np.ndarray, max_sweeps: int = 500) -> np.ndarray:
    """All complex roots of a polynomial given by ascending coefficients.

    Starts from the double-precision eigenvalues of the companion matrix
    of the monic polynomial (:func:`_companion_start`), which read only the
    coefficients, and applies Aberth-Ehrlich corrections until the steps
    flatline: either the largest relative step is machine-size, or the
    steps have stopped shrinking for several sweeps while every residual
    sits within a small factor of the round-off floor of evaluating P
    there (eps * sum (2k+1)|c_k||z|^k).  That plateau is the evaluation-noise
    limit cycle, the accuracy ceiling of the data; stopping on small
    residuals alone would quit a sweep or two earlier, which for pinched
    roots (tiny |P'|) costs a decade of forward accuracy.  Each sweep
    reads P and P' off one power table of its iterates
    (:func:`_powers`), as do the noise-floor test and the final gate.
    The whole iteration is carried in extended precision (clongdouble):
    ill-conditioned clusters — pinched roots of cleared pencils have
    monomial-basis condition numbers around 1e10 — would otherwise limit
    forward accuracy to ~1e-6 even at full convergence.  Every returned
    root must have backward error
    |P(root)| <= ABERTH_RESIDUAL * sum |c_k||root|^k, i.e. be an exact
    root of a polynomial whose coefficients differ relatively by at most
    ABERTH_RESIDUAL; anything worse is reported as non-convergence rather
    than returned.  Exact coefficient values (Fraction values, as the
    cleared-pencil expansion produces, or the exact binary values of int,
    float, longdouble and complex entries) are honoured end to end: the
    converged iterates get a final Newton polish with P and P' evaluated
    exactly in integers, so the returned roots are correct to double
    precision regardless of monomial-basis conditioning, and real roots of
    real polynomials come back with an imaginary part of exactly zero.
    """
    raw = np.asarray(coeffs)
    if raw.ndim != 1 or raw.size < 2:
        raise ValueError("need a polynomial of degree >= 1")
    exacts = list(raw)
    if raw.dtype == object:
        c = np.array([_working_value(x) for x in raw], dtype=np.clongdouble)
    else:
        c = raw.astype(np.clongdouble)
    if c[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    c = c / c[-1]

    zeros_at_origin = 0
    while exacts[0] == 0:
        zeros_at_origin += 1
        exacts = exacts[1:]
        c = c[1:]
    n = c.size - 1
    dc = c[1:] * np.arange(1, n + 1)
    if n == 0:
        return np.zeros(zeros_at_origin, dtype=complex)

    z = _companion_start(c).astype(np.clongdouble)

    eps = float(np.finfo(np.longdouble).eps)
    noise_weights = (2.0 * np.arange(c.size) + 1.0) * np.abs(c)

    def at_noise_floor(factor: float) -> bool:
        v = _powers(z, n)
        floor = eps * (np.abs(v) @ noise_weights)
        return bool(np.all(np.abs(v @ c) <= factor * floor))

    converged = False
    best_step = np.inf
    stale = 0
    for _ in range(max_sweeps):
        v = _powers(z, n)
        pz = v @ c
        dz = v[:, :-1] @ dc
        ratio = np.where(dz != 0, pz / np.where(dz != 0, dz, 1.0), 0.0)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        if np.any(diff == 0):  # collided iterates: nudge apart
            z = z * (1.0 + 1e-12 * np.arange(1, n + 1))
            continue
        repulsion = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - ratio * repulsion
        w = np.where(denom != 0, ratio / np.where(denom != 0, denom, 1.0), ratio)
        z = z - w
        relstep = float(np.max(np.abs(w) / (1.0 + np.abs(z))))
        if relstep < 1e-16:
            converged = True
            break
        if relstep < 0.5 * best_step:
            best_step = relstep
            stale = 0
            continue
        stale += 1
        if stale >= 4:
            # steps plateaued: either the noise-ball limit cycle (accept)
            # or a slow early phase (keep sweeping)
            if at_noise_floor(8.0):
                converged = True
                break
            stale = 0
    if not converged and not at_noise_floor(8.0):
        raise MaxIterationsError(f"Aberth sweeps exhausted ({max_sweeps})")

    z = _polish_roots(z, exacts).astype(np.clongdouble)
    v = _powers(z, n)
    backward = np.abs(v @ c) / (np.abs(v) @ np.abs(c))
    worst = float(np.max(backward))
    if worst > ABERTH_RESIDUAL:
        raise NumericalError(
            f"root backward error {worst:.3e} exceeds {ABERTH_RESIDUAL:.1e}"
        )
    out = z.astype(complex)
    if zeros_at_origin:
        out = np.concatenate([out, np.zeros(zeros_at_origin, dtype=complex)])
    return out


@dataclass(frozen=True)
class ModeSystem:
    """First-order realisation of one mode with memory stages.

    State (u, u', w_1..w_n):
        u'   = u'
        u''  = -a**2 u + a**(2 xi) sum_k c_k w_k
        w_k' = -g_k w_k + u.
    Eigenvalues of ``matrix`` coincide with the symbol roots.
    """

    matrix: np.ndarray
    frequency: float
    xi: float

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def char_coefficients(self) -> np.ndarray:
        """Ascending monic characteristic coefficients via Faddeev-LeVerrier.

        The recursion runs exactly: the entries are binary rationals, so
        M = A/d with an integer matrix A, whose characteristic coefficients
        C_k are integers (the trace divisions are exact) and give those of
        M as C_k / d**(n-k), each rounded once.  Products with A use only
        its nonzero entries; the arrow layout has about 3n of them.
        """
        n = self.dimension
        ints, d = common_denominator([Fraction(x) for x in self.matrix.flat])
        rows = [
            [(j, v) for j, v in enumerate(ints[i * n : (i + 1) * n]) if v]
            for i in range(n)
        ]
        coeffs = [0] * (n + 1)
        coeffs[n] = 1
        work = [[0] * n for _ in range(n)]
        for k in range(1, n + 1):
            for i in range(n):
                work[i][i] += coeffs[n - k + 1]
            work = [
                [sum(v * work[j][col] for j, v in row) for col in range(n)]
                for row in rows
            ]
            coeffs[n - k] = -sum(work[i][i] for i in range(n)) // k
        return np.array([c / d ** (n - k) for k, c in enumerate(coeffs)])


def build_mode_system(p: ModePencil) -> ModeSystem:
    """Assemble the (n+2)-dimensional companion system for one mode."""
    p.kernel.require_every_pole("the companion system")
    n = p.kernel.size
    if n + 2 > ODE_MAX:
        raise ValueError(f"system dimension {n + 2} exceeds cap {ODE_MAX}")
    a = p.frequency
    mat = np.zeros((n + 2, n + 2))
    mat[0, 1] = 1.0
    mat[1, 0] = -(a**2)
    mat[1, 2:] = a ** (2.0 * p.xi) * np.asarray(p.kernel.coeffs)
    for i, g in enumerate(p.kernel.rates):
        mat[2 + i, 0] = 1.0
        mat[2 + i, 2 + i] = -g
    return ModeSystem(matrix=mat, frequency=a, xi=p.xi)


@dataclass(frozen=True)
class DecayEstimate:
    """Envelope decay rate fitted over the second half of a simulation."""

    rate: float
    half_width: float
    peak_count: int
    window: tuple[float, float]


def simulate_decay(p: ModePencil, horizon: float, dt: float) -> DecayEstimate:
    """Integrate the mode from u(0)=1 at rest and fit the envelope decay.

    Classical fourth-order one-step integration with fixed step ``dt``; the
    explicit scheme needs dt <= 0.05 / max(frequency, largest rate), which
    is enforced.  The envelope |u| + |u'|/a is sampled roughly 24 times per
    oscillation period, its local maxima over [horizon/2, horizon] are
    collected, and log-peaks are fitted linearly; the slope estimates the
    slowest decay rate among the excited roots.
    """
    system = build_mode_system(p)
    a = p.frequency
    limit = 0.05 / max(a, p.kernel.rates[-1])
    if dt > limit:
        raise ValueError(f"step {dt} exceeds stability limit {limit:.3e}")
    if horizon <= 0:
        raise ValueError("horizon must be positive")

    # one RK4 step of u' = M u is the fixed matrix sum_{j<=4} (M dt)^j / j!
    m = system.matrix
    dim = system.dimension
    step = np.eye(dim)
    term = np.eye(dim)
    for fact in (1.0, 2.0, 3.0, 4.0):
        term = term @ (m * dt) / fact
        step = step + term

    period = 2.0 * math.pi / a
    stride = max(1, int(round(period / 24.0 / dt)))
    hop = np.linalg.matrix_power(step, stride)
    out_dt = stride * dt
    n_out = int(horizon / out_dt)
    if n_out < 16:
        raise ValueError("horizon too short for the requested step")

    state = np.zeros(dim)
    state[0] = 1.0
    envelope = np.empty(n_out)
    for j in range(n_out):
        envelope[j] = abs(state[0]) + abs(state[1]) / a
        state = hop @ state
    times = out_dt * np.arange(n_out)

    half = times >= 0.5 * horizon
    e, t = envelope[half], times[half]
    interior = (e[1:-1] > e[:-2]) & (e[1:-1] >= e[2:]) & (e[1:-1] > 0.0)
    peak_t = t[1:-1][interior]
    peak_e = e[1:-1][interior]
    if peak_t.size < 8:
        raise ValueError(
            f"degenerate fit window: only {peak_t.size} envelope peaks"
        )
    x = peak_t - peak_t[0]
    y = np.log(peak_e)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    sxx = float(np.sum((x - x.mean()) ** 2))
    variance = float(np.sum(resid**2)) / max(1, len(x) - 2)
    return DecayEstimate(
        rate=float(slope),
        half_width=2.0 * math.sqrt(variance / sxx),
        peak_count=int(peak_t.size),
        window=(float(t[0]), float(t[-1])),
    )


def _min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Column assigned to each row of a square cost matrix, minimising the sum.

    Shortest augmenting paths with dual potentials (the Jonker-Volgenant
    form of the Hungarian method): each row in turn is routed along the
    cheapest reduced-cost path to a free column, O(n**3) in all.  Index 0
    of the column arrays is the virtual start column of each search.
    """
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    owner = np.zeros(n + 1, dtype=int)  # 1-based row holding each column, 0 if free
    via = np.zeros(n + 1, dtype=int)  # previous column on the shortest path
    for row in range(1, n + 1):
        owner[0] = row
        col = 0
        dist = np.full(n + 1, np.inf)
        done = np.zeros(n + 1, dtype=bool)
        while owner[col] != 0:
            done[col] = True
            i = owner[col]
            reduced = cost[i - 1] - u[i] - v[1:]
            closer = ~done[1:] & (reduced < dist[1:])
            dist[1:][closer] = reduced[closer]
            via[1:][closer] = col
            open_dist = np.where(done[1:], np.inf, dist[1:])
            nxt = int(np.argmin(open_dist)) + 1
            delta = open_dist[nxt - 1]
            u[owner[done]] += delta
            v[done] -= delta
            dist[1:][~done[1:]] -= delta
            col = nxt
        while col:
            prev = via[col]
            owner[col] = owner[prev]
            col = prev
    assigned = np.empty(n, dtype=int)
    assigned[owner[1:] - 1] = np.arange(n)
    return assigned


@dataclass(frozen=True)
class MatchResult:
    """Pairing of two root multisets with the worst relative deviation."""

    pairs: tuple[tuple[complex, complex], ...]
    max_relative_deviation: float


def match_roots(
    computed: Sequence[complex] | np.ndarray,
    reference: Sequence[complex] | np.ndarray,
) -> MatchResult:
    """Pair each computed root with a distinct reference root.

    Greedy nearest-neighbour matching is used when unambiguous; if any
    root's second-best candidate comes within a factor two of its best,
    the pairing is redone as an optimal assignment.  A cardinality mismatch
    is an error, never a silent truncation.
    """
    a = np.asarray(computed, dtype=complex)
    b = np.asarray(reference, dtype=complex)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"multiset sizes differ: {a.shape} vs {b.shape}")
    n = a.size
    dist = np.abs(a[:, None] - b[None, :])

    ambiguous = False
    order = np.argsort(dist, axis=1)
    if n > 1:
        best = dist[np.arange(n), order[:, 0]]
        second = dist[np.arange(n), order[:, 1]]
        ambiguous = bool(np.any(second < 2.0 * best))
    taken = np.zeros(n, dtype=bool)
    pairing = np.full(n, -1)
    if not ambiguous:
        for i in range(n):
            for j in order[i]:
                if not taken[j]:
                    taken[j] = True
                    pairing[i] = j
                    break
        if np.any(pairing < 0):
            ambiguous = True
    if ambiguous:
        pairing = _min_cost_assignment(dist)

    pairs = tuple((complex(a[i]), complex(b[pairing[i]])) for i in range(n))
    deviation = max(
        abs(x - y) / max(1.0, abs(x)) for x, y in pairs
    )
    return MatchResult(pairs=pairs, max_relative_deviation=float(deviation))
