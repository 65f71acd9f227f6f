"""Independent cross-checks: polynomial roots and time-domain decay.

None of the machinery here reuses the bracketing/fixed-point solvers, so
agreement is evidence rather than tautology:

* :func:`aberth_roots` finds all roots of the cleared polynomial at once
  by Aberth-Ehrlich sweeps in complex double, from the eigenvalues of the
  real companion matrix (each conjugate pair near the real line and each
  pair of nearly equal real eigenvalues pushed off its symmetry).  The
  sweeps read the polynomial only through the Newton ratio P/P' at each
  iterate, formed exactly in integers and rounded once, so they end at
  the double next to every root however badly the monomial basis is
  conditioned;
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
from typing import Sequence

import numpy as np

from .asymptotics import fit_slope
from .errors import MaxIterationsError, NumericalError
from .pencil import ModePencil

#: largest mode system materialised as a dense matrix
ODE_MAX = 32

#: residual acceptance for the simultaneous root finder
ABERTH_RESIDUAL = 1e-10

#: bits kept, relative to the larger component, of a point at which the
#: Newton ratio is formed exactly; finer grids only make the integers longer
#: (imaginary parts of ~1e-78 on real roots would otherwise cost hundreds
#: of bits)
QUANT_BITS = 60

#: cap on the Aberth sweeps (pool ladders take 1 to 7 from the companion start)
ABERTH_MAX_SWEEPS = 500

#: a conjugate pair of companion eigenvalues with |Im| below this share of
#: |Re| is pushed apart along the real line by its own imaginary part before
#: the sweeps (see :func:`_companion_start`); on the pool ladders such pairs
#: reach a share of 0.02 and true pairs start above 2
NEAR_REAL = 0.1

#: relative distance below which two real companion eigenvalues cannot be
#: told from a double root or a close conjugate pair: the square root of
#: the double epsilon, as an eigenvalue of multiplicity two moves by the
#: square root of a backward error; such real eigenvalues start the sweeps
#: off the real line (see :func:`_companion_start`)
COMPANION_RESOLUTION = 2.0**-26

#: binary exponents of the double range: a nonzero coefficient ratio must
#: lie in [2**EXP_MIN, 2**EXP_MAX) to be carried as a normal double
EXP_MIN, EXP_MAX = -1022, 1024


def _numerators(coeffs) -> tuple[list[int], int]:
    """Real coefficients as integer numerators over their least common denominator.

    Each entry is read at its exact binary or rational value: int, float,
    numpy longdouble (all 64 mantissa bits, never through ``float``),
    Fraction, or a complex-typed entry whose imaginary part is zero.  A
    nonzero imaginary part or a non-finite entry raises ValueError.
    """
    ratios = []
    for x in coeffs:
        if isinstance(x, (complex, np.complexfloating)):
            if x.imag != 0:
                raise ValueError(f"coefficient {x!r} is not real")
            x = x.real
        try:
            ratios.append((int(x), 1) if isinstance(x, (int, np.integer)) else x.as_integer_ratio())
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"coefficient {x!r} is not finite") from exc
    den = math.lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


def _outside_double_range(nums: list[int], den: int) -> int | None:
    """Index of the first nonzero N_k whose N_k/den or N_k/N_deg may leave
    the normal doubles, or None.

    The bit lengths bound each ratio within a factor of two either way, so
    this is read off the integers without dividing.
    """
    scales = (den.bit_length(), abs(nums[-1]).bit_length())
    low, high = max(scales) + EXP_MIN, min(scales) + EXP_MAX - 1
    return next((k for k, v in enumerate(nums) if v and not low < abs(v).bit_length() < high), None)


def _powers(z: np.ndarray, degree: int) -> np.ndarray:
    """The power table V[:, j] = z**j, j = 0..degree, from one cumulative product.

    P(z) = V @ c for ascending coefficients c.
    """
    v = np.empty((z.size, degree + 1), dtype=z.dtype)
    v[:, 0] = 1.0
    v[:, 1:] = z[:, None]
    return np.multiply.accumulate(v, axis=1, out=v)


def _newton_ratio(nums: list[int], z: complex) -> tuple[complex, complex]:
    """The Newton ratio P(g)/P'(g), rounded once to a complex double, and
    the grid point g next to ``z`` at which it is formed.

    ``nums`` are the integer numerators N_k of :func:`_numerators`; their
    common denominator cancels in the ratio.  The point is put on the grid
    2**(e - QUANT_BITS), e the binary exponent of its larger component, as
    g = Z/s with Gaussian integer Z = x + iy and s = 2**t (g is a complex
    double).  Horner's rule on Q(Z) = sum N_k Z**k s**(deg-k) = s**deg P(Z/s)
    carries Q and Q' exactly, and Q/(s Q') is rounded by integer true
    division.  Where Q' vanishes the ratio is 0: g is a multiple root, or
    a stationary point that the backward-error gate refuses.  A real g
    takes a real-only pass.  Otherwise Q, whose coefficients are real, is
    divided by the real quadratic
    D = (Z' - Z)(Z' - conj Z) = Z'**2 - 2x Z' + x**2 + y**2, which vanishes
    at Z: Q = D B + b_1 Z' + b_0 gives Q(Z) = b_1 Z + b_0 and
    Q'(Z) = D'(Z) B(Z) + b_1 = 2iy B(Z) + b_1, with B(Z) from a second such
    division, so each coefficient costs four integer products rather than
    the eight of complex Horner.
    """
    _, e = math.frexp(max(abs(z.real), abs(z.imag)))
    t = QUANT_BITS - e
    x, y = round(math.ldexp(z.real, t)), round(math.ldexp(z.imag, t))
    grid = complex(math.ldexp(x, -t), math.ldexp(y, -t))
    if t < 0:
        x, y, t = x << -t, y << -t, 0
    shift = 0
    if y == 0:
        q = dq = 0
        for v in reversed(nums):
            dq = dq * x + q
            q = q * x + (v << shift)
            shift += t
        return (complex(q / (dq << t), 0.0) if dq else 0j), grid
    # D = Z'**2 - p Z' - r; b_m = a_m + p b_(m+1) + r b_(m+2) for m = deg..1,
    # and the same recursion over b_deg..b_3 gives c_1, c_2 of B
    p, r = 2 * x, -(x * x + y * y)
    b1 = b2 = c1 = c2 = 0
    for m in range(len(nums) - 1, 0, -1):
        b1, b2 = (nums[m] << shift) + p * b1 + r * b2, b1
        if m >= 3:
            c1, c2 = b1 + p * c1 + r * c2, c1
        shift += t
    qr, qi = b1 * x + (nums[0] << shift) + r * b2, b1 * y
    br, bi = c1 * x + b2 + r * c2, c1 * y
    er, ei = b1 - 2 * y * bi, 2 * y * br
    norm = (er * er + ei * ei) << t
    if norm == 0:
        return 0j, grid
    # Q conj(Q') with three products
    k = er * (qr + qi)
    return complex((k - qi * (er - ei)) / norm, (k - qr * (er + ei)) / norm), grid


def _companion_start(c: np.ndarray) -> np.ndarray:
    """Eigenvalues of the companion matrix of the monic polynomial ``c``,
    with near-real conjugate pairs and nearly equal real ones pushed apart.

    The matrix is formed in double (ones on the subdiagonal, -c_0..-c_{n-1}
    in the last column) and handed to LAPACK's real balanced QR: real
    eigenvalues come out exactly real, complex ones in exact conjugate
    pairs, and both lie near the roots.  The sweeps keep both symmetries,
    so the start breaks them where they may mislead.  A pair x +- iy with
    |y| < NEAR_REAL |x| may stand for two close real roots x -+ d that
    rounding made complex; a pair slightly off its symmetry moves like the
    angle of y/d under tripling (a tilt of 1e-12 takes some 30 sweeps to
    grow into a split), so each member moves along the real line by its
    own imaginary part, to x + y + iy and x - y - iy, from where a true
    close pair is reached in a few sweeps as well.  Conversely, real
    iterates stay real, so neighbouring real eigenvalues closer than
    COMPANION_RESOLUTION times the larger modulus, which the double
    eigensolve cannot tell from a close conjugate pair, take the same
    diagonal shape: each such m moves to m - h + ih or m + h - ih,
    h = COMPANION_RESOLUTION |m| / 2, the signs alternating along the
    sorted real eigenvalues (which then follow the others), from where
    the sweeps reach a conjugate pair or a real pair alike.
    """
    n = c.size - 1
    companion = np.zeros((n, n))
    companion[1:, :-1] = np.eye(n - 1)
    companion[:, -1] = -c[:-1]
    try:
        eigenvalues = np.linalg.eigvals(companion)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"companion eigenvalues failed: {exc}") from exc
    x, y = eigenvalues.real, eigenvalues.imag
    start = eigenvalues + np.where(np.abs(y) < NEAR_REAL * np.abs(x), y, 0.0)
    real = sorted(x[y == 0].tolist())
    close = [b - a < COMPANION_RESOLUTION * max(abs(a), abs(b)) for a, b in zip(real, real[1:])]
    if not any(close):
        return start
    close = [False, *close, False]
    lifted = []
    for k, v in enumerate(real):
        h = 0.5 * COMPANION_RESOLUTION * abs(v) if close[k] or close[k + 1] else 0.0
        h = -h if k % 2 else h
        lifted.append(complex(v - h, h))
    return np.concatenate([start[y != 0], lifted])


def aberth_roots(coeffs: Sequence[float] | np.ndarray) -> np.ndarray:
    """All complex roots of a polynomial given by ascending coefficients.

    The coefficients must be real.  Each is read once at its exact value
    (:func:`_numerators`): int, float and numpy longdouble entries at
    their binary value, Fraction entries (as the cleared-pencil expansion
    produces) as the rational they are, and complex-typed entries whose
    imaginary part is zero as their real part; a nonzero imaginary part or
    a non-finite entry raises ValueError, and so does a coefficient whose
    ratio to the denominator or to the leading coefficient leaves the
    normal doubles.

    The iterates start at the eigenvalues of the real companion matrix of
    the monic polynomial in double, near-real conjugate pairs and nearly
    equal real eigenvalues pushed apart (:func:`_companion_start`), and
    take Aberth-Ehrlich sweeps in complex double,
    z_i <- g_i - N_i / (1 - N_i sum_(j != i) 1/(g_i - g_j)),
    where g_i is z_i on the grid of :func:`_newton_ratio` and N_i the
    Newton ratio P(g_i)/P'(g_i), formed exactly in integers and rounded
    once.  That ratio is all the sweeps read of the polynomial, so they
    are not limited by evaluation noise however badly the monomial basis
    is conditioned, and they stop when no iterate moves, as a rule at the
    double next to each root, clustered or not; a component far below
    the other is resolved as far as one Newton step from the grid
    reaches.  An iterate whose grid point is real takes the real part of its step, so
    real roots come back with an imaginary part of exactly zero.  Only
    the iterates that moved in the last sweep are evaluated again, and a
    lower iterate on the exact conjugate of an upper one takes the
    conjugate ratio.  Iterates that meet anywhere but at a multiple root
    are moved apart, the others kept: by a relative nudge, or from 0, which
    a nudge leaves where it is, to the Cauchy lower bound
    |c_0| / (|c_0| + max_(k>0) |c_k|) on the root moduli of the monic
    polynomial, each on its own ray, none of them real.  A sweep count past
    ABERTH_MAX_SWEEPS raises MaxIterationsError.

    Exactly one root is returned per degree, and every returned root must
    have backward error |P(root)| <= ABERTH_RESIDUAL * sum |c_k||root|^k
    (read off a longdouble power table, :func:`_powers`, which does not
    overflow where a double one would), i.e. be an exact root of a
    polynomial whose coefficients differ relatively by at most
    ABERTH_RESIDUAL; anything worse, NaN included, raises NumericalError
    rather than being returned.  The order of the roots is not part of
    the contract; compare them as multisets (:func:`match_roots`, or after
    sorting).
    """
    raw = np.asarray(coeffs)
    if raw.ndim != 1 or raw.size < 2:
        raise ValueError("need a polynomial of degree >= 1")
    nums, den = _numerators(raw)
    if nums[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    zeros_at_origin = next(k for k, v in enumerate(nums) if v)
    nums = nums[zeros_at_origin:]
    n = len(nums) - 1
    if n == 0:
        return np.zeros(zeros_at_origin, dtype=complex)
    bad = _outside_double_range(nums, den)
    if bad is not None:
        raise ValueError(
            f"coefficient {bad + zeros_at_origin} is too far out of the others' double range"
        )
    c = np.array([v / nums[-1] for v in nums])

    points = _companion_start(c)
    z = np.empty(n, dtype=complex)
    ratio = np.empty(n, dtype=complex)
    todo = range(n)
    for _ in range(ABERTH_MAX_SWEEPS):
        # the upper half plane first: a lower point on the exact conjugate of
        # an upper one takes the conjugates of that one's ratio and grid
        # point, bit for bit its own, as the coefficients are real
        seeds = points.tolist()
        upper = {p: j for j, p in enumerate(seeds) if p.imag > 0}
        for i in sorted(todo, key=lambda i: seeds[i].imag < 0):
            j = upper.get(seeds[i].conjugate()) if seeds[i].imag < 0 else None
            if j is None:
                ratio[i], z[i] = _newton_ratio(nums, seeds[i])
            else:
                ratio[i], z[i] = ratio[j].conjugate(), z[j].conjugate()
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        if not diff.all():
            # iterates on one point share its ratio: at a multiple root it
            # is zero and they stay; anywhere else they are moved apart
            hit = diff == 0
            meet = hit.any(axis=1)
            if ratio[meet].any():
                i, zero = np.flatnonzero(meet), np.flatnonzero(meet & (z == 0))
                points = points.astype(complex)
                points[i] = z[i] * (1.0 + 1e-12 * (i + 1))
                bound = abs(c[0]) / (abs(c[0]) + np.abs(c[1:]).max())
                points[zero] = bound * np.exp(2j * np.pi * (np.arange(zero.size) + 0.25) / zero.size)
                todo = i.tolist()
                continue
            diff[hit] = np.inf
        denom = 1.0 - ratio * (1.0 / diff).sum(axis=1)
        step = np.divide(ratio, denom, out=ratio.copy(), where=denom != 0)
        # an iterate whose grid point is real stays on the real line
        moved = z - np.where(z.imag == 0, step.real, step)
        todo = np.flatnonzero(moved != points).tolist()
        points = moved
        if not todo:
            break
    else:
        raise MaxIterationsError(f"Aberth sweeps exhausted ({ABERTH_MAX_SWEEPS})")

    v = _powers(points.astype(np.clongdouble), n)
    backward = np.abs(v @ c) / (np.abs(v) @ np.abs(c))
    worst = float(backward.max())
    if not worst <= ABERTH_RESIDUAL:
        raise NumericalError(
            f"root backward error {worst:.3e} exceeds {ABERTH_RESIDUAL:.1e}"
        )
    if zeros_at_origin:
        points = np.concatenate([points, np.zeros(zeros_at_origin, dtype=complex)])
    return points


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
        ints, d = _numerators(self.matrix.flat)
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
    return ModeSystem(matrix=mat)


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
    collected, and log-peaks are fitted linearly (:func:`fit_slope`); the
    slope estimates the slowest decay rate among the excited roots.
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
    fit = fit_slope(peak_t, np.log(peak_e))
    return DecayEstimate(
        rate=fit.slope,
        half_width=fit.half_width,
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
    """Pair each computed root with a distinct reference root at the least total distance.

    Each computed root takes its nearest reference root when those are all
    distinct, which is then the minimum, since every pair sits at its own
    smallest distance; otherwise :func:`_min_cost_assignment` pairs them.
    A cardinality mismatch is an error, never a silent truncation, and so
    is a non-finite root, whose distances would compare false with every
    bound and read as agreement.
    """
    a = np.asarray(computed, dtype=complex)
    b = np.asarray(reference, dtype=complex)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"multiset sizes differ: {a.shape} vs {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("roots must be finite")
    n = a.size
    dist = np.abs(a[:, None] - b[None, :])
    pairing = np.argmin(dist, axis=1)
    if len(set(pairing.tolist())) < n:
        pairing = _min_cost_assignment(dist)

    pairs = tuple((complex(a[i]), complex(b[pairing[i]])) for i in range(n))
    deviation = max(
        abs(x - y) / max(1.0, abs(x)) for x, y in pairs
    )
    return MatchResult(pairs=pairs, max_relative_deviation=float(deviation))
