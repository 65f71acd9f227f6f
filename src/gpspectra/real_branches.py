"""Real spectral branches between consecutive kernel poles.

On each interval (-g_k, -g_{k-1}) (with g_0 = 0) the mode symbol L runs
from -inf at the left pole to +inf at the right one (to L(0) > 0 on the
first interval), and so does the stiffness factor f(z) = 1 - w*Khat(z),
whose root sits strictly right of the symbol root.  Divided by a**2 both
are secular equations in the offset delta = z + g_k from the left pole,

    1 + s*(delta - g_k)**2 - w * sum_j c_j/(delta + (g_j - g_k)) = 0,

with s = 1/a**2 for L and s = 0 for f, so a root pinched against its pole
keeps full relative accuracy.  A solve finds the roots of one factor, one
column per branch: :func:`branch_roots` those of L, whose brackets the
counting certificate reads, and :func:`stiffness_roots` those of f, which
only the interlacing check reads.  The columns of a block are solved at
once by rational interpolation.  Each step fits
(alpha + beta*delta) / (delta*(1 - delta/D)), poles at both interval ends
(D = g_k - g_{k-1}), to the value and slope at the iterate and moves to
its root -- Newton on the pole-cleared function, started at delta = 0 and
held inside a sign-change bracket.  An overloaded mode, whose first
interval holds no sign change, raises InadmissibleModeError before any
branch is solved.

Ladders of up to SCALAR_MAX poles iterate their columns one at a time in
Python floats, with the block's operations in the block's order, so the
roots are bit for bit the same; each column stops at its own test, as
LAPACK's dlaed4 solves each secular root alone.  There a numpy call costs
more than its arithmetic: for the symbol's roots of pool-style ladders on
a 2-vCPU VM, the block takes about 150 us a mode at n = 1 and the columns
4 us, at n = 12 about 210 and 100 us, at n = 24 about 370 and 550 us.
The residual and bracket passes stay vectorised over all columns.

Every located root also gets a proven bracket: F is evaluated at offsets
just either side of it together with a running bound on the rounding
error of that evaluation, and the bracket counts only where the two signs
stand clear of their bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NoReturn, Sequence

import numpy as np

from .errors import MaxIterationsError, PoleProximityError
from .kernels import _EPS, ExponentialKernel
from .pencil import ModePencil

#: entries of a work array (ladder size * columns solved together)
BLOCK_CELLS = 1 << 16

#: largest ladder whose columns are solved one by one in Python floats
SCALAR_MAX = 12

#: iteration cap; the bracket alone converges within it
MAX_ITER = 100


@dataclass(frozen=True)
class BranchRoot:
    """A located real root of branch ``index`` (1-based).

    ``offset`` = value + g_k is what the solver computes.  ``residual`` is
    |L| (|f| for a stiffness root) and ``root_error`` the Newton step
    |L/L'|, both evaluated at that offset.  ``bracket`` holds two offsets
    lo < offset < hi inside the interval, and ``sign_margin`` the smaller
    of -F(lo)/bound(lo) and F(hi)/bound(hi), F = L/a**2 (F = f for a
    stiffness root) and bound its rounding-error bound there.  Above 1,
    L changes sign on the bracket for certain, so a root lies inside it.
    """

    index: int
    value: float
    interval: tuple[float, float]
    residual: float
    offset: float
    root_error: float
    bracket: tuple[float, float]
    sign_margin: float

    @property
    def relative_error(self) -> float:
        """The branch quality gate: |L/L'| / max(1, |root|).

        Root-error based because the raw residual blows up with L' near a
        pole without the root being any worse.
        """
        return self.root_error / max(1.0, abs(self.value))


def bracket_intervals(kernel: ExponentialKernel) -> list[tuple[float, float]]:
    """Every pole-to-pole interval (-g_k, -g_{k-1}), g_0 = 0, for k = 1..n in order.

    Branch k's interval is entry k-1.
    """
    edges = (0.0,) + kernel.rates
    return [(-edges[k], -edges[k - 1]) for k in range(1, kernel.size + 1)]


def _ladder_sum(a: np.ndarray) -> np.ndarray:
    """Each column summed over the poles in ladder order, as ``a.sum(axis=0)`` sums two or more.

    A lone column of 8 or more entries numpy would sum pairwise.
    """
    return a.sum(axis=0) if a.shape[1] > 1 else np.add.accumulate(a, axis=0)[-1]


def _solve_block(c, g, w: float, s: float, k: np.ndarray) -> np.ndarray:
    """Offsets of the 0-based branches ``k`` of the factor with inertia weight ``s``."""
    gk, wck, first = g[k], w * c[k], k == 0
    D = np.where(first, np.inf, gk - g[k - 1])
    wcr = np.where(first, 0.0, w * c[k - 1] / D)
    rows = np.arange(g.size)[:, None]
    # the poles other than the two interval ends, in offset coordinates
    shift = np.where((rows == k) | (rows == k - 1), np.inf, g[:, None] - gk)
    d, lo, hi = np.zeros(k.size), np.zeros(k.size), np.where(first, gk, D)
    done = np.zeros(k.size, dtype=bool)
    for _ in range(MAX_ITER):
        t = d + shift
        terms = c[:, None] / t
        x = d - gk
        A = 1.0 + s * x * x - w * _ladder_sum(terms)
        Q, R = d * A - wck, 1.0 - d / D
        P = R * Q + d * wcr  # delta*(1 - delta/D)*F, finite at both interval ends
        dP = R * (A + d * (2.0 * s * x + w * _ladder_sum(terms / t))) + wcr - Q / D
        floor = _EPS * (d * (1.0 + s * x * x + w * _ladder_sum(np.abs(terms))) + wck + d * wcr)
        lo, hi = np.where(P < 0, d, lo), np.where(P > 0, d, hi)
        step = P / dP
        # a Newton step from the rounding floor of P ends the iteration
        small = (np.abs(P) <= floor) | (np.abs(step) <= 2.0 * _EPS * d)
        new = d - step
        fallback = np.where(small, d, np.where(lo > 0, np.sqrt(lo * hi), 0.5 * hi))
        d = np.where(done, d, np.where((new > lo) & (new < hi), new, fallback))
        done |= small
        if done.all():
            return d
    _unsettled((k[~done] + 1).tolist())


def _unsettled(branches: list[int]) -> NoReturn:
    raise MaxIterationsError(f"branches {branches} not settled in {MAX_ITER} steps")


def _solve_column(c: list, g: list, w: float, s: float, k: int) -> float | None:
    """One column of :func:`_solve_block` in Python floats; None if unsettled.

    The same operations in the same order: each sum runs over the poles
    in ladder order, as :func:`_ladder_sum` does, and the interval ends,
    which the block masks to zero terms, are left out.  The column
    returns at its own stopping test.
    """
    gk, wck = g[k], w * c[k]
    if k == 0:
        D, wcr, hi = math.inf, 0.0, gk
    else:
        D = gk - g[k - 1]
        wcr, hi = w * c[k - 1] / D, D
    poles = [(c[j], g[j] - gk) for j in range(len(g)) if j != k and j != k - 1]
    d = lo = 0.0
    for _ in range(MAX_ITER):
        total = slope = size = 0.0
        for cj, shift in poles:
            t = d + shift
            term = cj / t
            total += term
            slope += term / t
            size += abs(term)
        x = d - gk
        inertia = s * x * x
        A = 1.0 + inertia - w * total
        Q, R = d * A - wck, 1.0 - d / D
        P = R * Q + d * wcr
        dP = R * (A + d * (2.0 * s * x + w * slope)) + wcr - Q / D
        floor = _EPS * (d * (1.0 + inertia + w * size) + wck + d * wcr)
        if P < 0:
            lo = d
        elif P > 0:
            hi = d
        step = P / dP
        new = d - step
        if abs(P) <= floor or abs(step) <= 2.0 * _EPS * d:
            return new if lo < new < hi else d
        d = new if lo < new < hi else (math.sqrt(lo * hi) if lo > 0 else 0.5 * hi)
    return None


def _solve_columns(c, g, w: float, s: float, k: np.ndarray) -> np.ndarray:
    """:func:`_solve_block`'s offsets, bit for bit, one column at a time.

    On small ladders numpy's per-call cost, not the arithmetic, sets the
    block's time, and every column there iterates until the slowest one
    settles.  Where a pole term or a Newton step divides by zero, which
    numpy carries on through as inf and then falls back to bisection,
    the block solves the columns instead.
    """
    cs, gs = c.tolist(), g.tolist()
    try:
        d = [_solve_column(cs, gs, w, s, ki) for ki in k.tolist()]
    except ZeroDivisionError:
        return _solve_block(c, g, w, s, k)
    if None in d:
        _unsettled([ki + 1 for ki, di in zip(k.tolist(), d) if di is None])
    return np.array(d)


def _secular(c, g, w: float, s: float, k: np.ndarray, d: np.ndarray):
    """F at the offsets ``d`` of the branches ``k``, its rounding bound, terms, t and x.

    F = 1 + s*x**2 - w*sum c_j/t_j with x = d - g_k, t_j = d + (g_j - g_k)
    and terms c_j/t_j, one row per pole, one column per offset.
    To first order its rounding error is at most u times
    (n+2) * (1 + s*x**2 + w*sum |c_j/t_j|) for the n+2 rounded terms, plus
    6 s*x**2 for the rounded 1/a**2 and the square, plus
    (2 + |g_j - g_k|/|t_j|) * w|c_j/t_j| for each memory term's rounded
    shift and quotient.  The bound counts each u as eps = 2u, which covers
    the second-order terms and the rounding of the bound itself.
    """
    shift = g[:, None] - g[k]
    t = d + shift
    terms = c[:, None] / t
    x = d - g[k]
    inertia = s * x * x
    F = 1.0 + inertia - w * _ladder_sum(terms)
    n = g.size
    spread = (np.abs(shift) / np.abs(t) + (n + 4)) * np.abs(terms)
    bound = _EPS * ((n + 2) + (n + 8) * inertia + w * _ladder_sum(spread))
    return F, bound, terms, t, x


def _brackets(c, g, w: float, s: float, k, d, root_error, bound, slope):
    """Offsets lo < d < hi either side of each root, and their sign margins.

    The half-width is h = max(4*root_error, 8*bound/|F'|), clamped to half
    the way from the root to either end of its interval.  The margin is
    the smaller of -F(lo)/bound(lo) and F(hi)/bound(hi); both ends are
    evaluated in one pass.
    """
    right = np.where(k == 0, g[k], g[k] - g[k - 1])
    h = np.maximum(4.0 * root_error, 8.0 * bound / np.abs(slope))
    lo = np.maximum(d - h, 0.5 * d)
    hi = np.minimum(d + h, d + 0.5 * (right - d))
    F, bound, *_ = _secular(c, g, w, s, np.concatenate([k, k]), np.concatenate([lo, hi]))
    margin = np.minimum(-F[: d.size] / bound[: d.size], F[d.size :] / bound[d.size :])
    return lo, hi, margin


def _solve(p: ModePencil, symbol: bool, first: int, last: int) -> list[BranchRoot]:
    """Branches first..last of the symbol, or of the stiffness factor if not ``symbol``.

    Every block holds one column per branch, a work array at most
    BLOCK_CELLS entries.  No column's root depends on the others in its
    block.  Every root leaves with its proven bracket, taken after the
    roots are final, so the bracket pass moves none.  A mode whose load
    ``p.load`` is not below 1 raises :class:`InadmissibleModeError`,
    whichever branches are asked for; a frequency whose square overflows
    raises :class:`NumericalError` in the symbol's solve; and a root whose
    offset from its pole rounds to 0, as where w*c underflows, raises
    :class:`PoleProximityError` naming its branch and factor.
    """
    kern = p.kernel
    c, g = kern._c, kern._g
    scale = p.frequency_squared if symbol else 1.0  # |L| = a**2 |F|, |f| = |F|
    s = 1.0 / scale if symbol else 0.0  # the inertia weight of F = L/a**2, or of F = f
    w = p.memory_weight
    intervals = bracket_intervals(kern)
    p.check_load()
    out = []
    block = max(1, BLOCK_CELLS // g.size)
    solve_block = _solve_columns if g.size <= SCALAR_MAX else _solve_block
    for start in range(first - 1, last, block):
        k = np.arange(start, min(start + block, last))
        d = solve_block(c, g, w, s, k)
        if not (d > 0.0).all():  # the passes below divide by the offsets
            col = int(np.argmin(d > 0.0))
            raise PoleProximityError(
                f"branch {k[col] + 1} root of the {'symbol' if symbol else 'stiffness factor'} "
                f"lies on its pole: offset {float(d[col])!r} is not above 0"
            )
        # F and F' at the offsets, every pole included, for residual and step
        F, bound, terms, t, x = _secular(c, g, w, s, k, d)
        dF = 2.0 * s * x + _ladder_sum(terms * w / t)
        step = np.abs(F / dF)
        lo, hi, margin = _brackets(c, g, w, s, k, d, step, bound, dF)
        brackets = zip(lo.tolist(), hi.tolist())
        cols = zip(k.tolist(), x.tolist(), d.tolist(), F.tolist(), step.tolist(), brackets, margin.tolist())
        for i, value, offset, f, err, bracket, m in cols:
            out.append(BranchRoot(i + 1, value, intervals[i], scale * abs(f), offset, err, bracket, m))
    return out


def branch_roots(p: ModePencil) -> list[BranchRoot]:
    """Real roots of the mode symbol, one per branch.

    Each root carries its proven bracket and sign margin (see :class:`BranchRoot`).
    """
    return _solve(p, True, 1, p.kernel.size)


def stiffness_roots(p: ModePencil) -> list[BranchRoot]:
    """Real roots of the stiffness factor f, one per branch, bracketed as :func:`branch_roots`'."""
    return _solve(p, False, 1, p.kernel.size)


@dataclass(frozen=True)
class ConvergenceRecord:
    """How the k-th branch approaches its pole as the frequency grows."""

    index: int
    frequencies: tuple[float, ...]
    roots: tuple[float, ...]
    stiffness_values: tuple[float, ...]
    pole_deviations: tuple[float, ...]  # |root + g_k|: shrinks like the weight
    gaps: tuple[float, ...]  # |root - stiffness root|: strictly faster
    deviation_slope: float  # fitted log-log order of pole_deviations
    gap_slope: float  # fitted log-log order of gaps


def branch_convergence(pencils: Sequence[ModePencil], k: int) -> ConvergenceRecord:
    """Track branch k across a frequency ladder sharing kernel and xi.

    Asserts the monotone approach of the root to -g_k; when the ladder
    supports a fit (4+ points over 2+ decades) it also asserts that the
    root/stiffness-root gap closes no slower than the memory weight
    a**(-2(1-xi)).  The deviation |root + g_k| is what tracks the weight
    order exactly; the gap contracts two extra powers (like a**(2 xi - 4)),
    because the stiffness slope blows up as the root pinches its pole.
    An overloaded pencil raises :class:`InadmissibleModeError` at every k.
    """
    if len(pencils) < 2:
        raise ValueError("need at least two pencils to compare")
    kern, xi = pencils[0].kernel, pencils[0].xi
    freqs = [p.frequency for p in pencils]
    if any(p.kernel is not kern and p.kernel != kern for p in pencils):
        raise ValueError("pencils must share one kernel")
    if any(p.xi != xi for p in pencils):
        raise ValueError("pencils must share xi")
    if any(b <= a for a, b in zip(freqs, freqs[1:])):
        raise ValueError("frequencies must increase strictly")
    if not 1 <= k <= kern.size:
        raise ValueError(f"branch index {k} outside 1..{kern.size}")

    mu = [_solve(p, True, k, k)[0] for p in pencils]
    x = [_solve(p, False, k, k)[0] for p in pencils]
    dev = [m.offset for m in mu]
    gaps = [s.offset - m.offset for m, s in zip(mu, x)]
    if any(b > a * (1 + 1e-9) for a, b in zip(dev, dev[1:])):
        raise ValueError(
            f"branch {k} does not approach its pole monotonically: {dev}"
        )
    from .asymptotics import empirical_order

    # the slope fits need four points over two decades; shorter ladders
    # still get the monotonicity check above, just no fitted orders
    if len(freqs) >= 4 and max(freqs) / min(freqs) >= 100.0:
        gap_slope = empirical_order(list(zip(freqs, gaps))).slope
        deviation_slope = empirical_order(list(zip(freqs, dev))).slope
        weight_order = -2.0 * (1.0 - xi)
        if gap_slope > weight_order + 0.25:
            raise ValueError(
                f"branch {k} gap decays with order {gap_slope:.3f}, slower "
                f"than the weight order {weight_order:.3f}"
            )
    else:
        gap_slope = math.nan
        deviation_slope = math.nan
    return ConvergenceRecord(
        index=k,
        frequencies=tuple(freqs),
        roots=tuple(m.value for m in mu),
        stiffness_values=tuple(s.value for s in x),
        pole_deviations=tuple(dev),
        gaps=tuple(gaps),
        deviation_slope=deviation_slope,
        gap_slope=gap_slope,
    )
