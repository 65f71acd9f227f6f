"""Real spectral branches between consecutive kernel poles.

On each interval (-g_k, -g_{k-1}) (with g_0 = 0) the mode symbol L runs
from -inf at the left pole to +inf at the right one (to L(0) > 0 on the
first interval), and so does the stiffness factor f(z) = 1 - w*Khat(z),
whose root sits strictly right of the symbol root.  Divided by a**2 both
are secular equations in the offset delta = z + g_k from the left pole,

    1 + s*(delta - g_k)**2 - w * sum_j c_j/(delta + (g_j - g_k)) = 0,

with s = 1/a**2 for L and s = 0 for f, so a root pinched against its pole
keeps full relative accuracy.  The solver works on (factor, k) columns,
each with its own inertia weight s, so one block holds the symbol and the
stiffness roots of the same branches.  All columns of a block are solved
at once by rational interpolation: each step fits (alpha + beta*delta) /
(delta*(1 - delta/D)), poles at both interval ends (D = g_k - g_{k-1}), to
the value and slope at the iterate and moves to its root -- Newton on the
pole-cleared function, started at delta = 0 and held inside a sign-change
bracket.  A missing sign change (the first interval of an overloaded
kernel) is reported, never papered over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import MaxIterationsError, NoSignChangeError
from .kernels import ExponentialKernel
from .pencil import ModePencil

#: entries of a work array (ladder size * columns solved together)
BLOCK_CELLS = 1 << 16

#: iteration cap; the bracket alone converges within it
MAX_ITER = 100

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class BranchRoot:
    """A located real root of branch ``index`` (1-based).

    ``offset`` = value + g_k is what the solver computes.  ``residual`` is
    |L| (|f| for a stiffness root) and ``root_error`` the Newton step
    |L/L'|, both evaluated at that offset.
    """

    index: int
    value: float
    interval: tuple[float, float]
    residual: float
    offset: float
    root_error: float

    @property
    def relative_error(self) -> float:
        """The branch quality gate: |L/L'| / max(1, |root|).

        Root-error based because the raw residual blows up with L' near a
        pole without the root being any worse.
        """
        return self.root_error / max(1.0, abs(self.value))


def bracket_intervals(kernel: ExponentialKernel, count: int) -> list[tuple[float, float]]:
    """First ``count`` pole-to-pole intervals (-g_k, -g_{k-1}), g_0 = 0."""
    if not 1 <= count <= kernel.size:
        raise ValueError(f"count {count} outside 1..{kernel.size}")
    edges = (0.0,) + kernel.rates
    return [(-edges[k], -edges[k - 1]) for k in range(1, count + 1)]


def _solve_block(c, g, w: float, s: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Offsets of the columns (``s``, ``k``): inertia weight, 0-based branch."""
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
        A = 1.0 + s * x * x - w * terms.sum(axis=0)
        Q, R = d * A - wck, 1.0 - d / D
        P = R * Q + d * wcr  # delta*(1 - delta/D)*F, finite at both interval ends
        dP = R * (A + d * (2.0 * s * x + w * (terms / t).sum(axis=0))) + wcr - Q / D
        floor = _EPS * (d * (1.0 + s * x * x + w * np.abs(terms).sum(axis=0)) + wck + d * wcr)
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
    raise MaxIterationsError(
        f"branches {(np.unique(k[~done]) + 1).tolist()} not settled in {MAX_ITER} steps"
    )


def _solve(p: ModePencil, first: int, last: int, inertia: tuple[bool, ...]) -> list[list[BranchRoot]]:
    """Branches first..last of each factor: the symbol (True) or the stiffness factor.

    Every block holds the same branches of each factor, side by side, and
    a work array at most BLOCK_CELLS entries.  The columns are independent:
    each root is the one a solve of its factor alone finds, bit for bit,
    as long as both blocks hold more than one column (numpy sums a lone
    column along the ladder in another order).
    """
    kern = p.kernel
    kern.require_every_pole("the real branches")
    c, g = kern._c, kern._g
    w, a2 = p.memory_weight, p.frequency**2
    scales = [a2 if f else 1.0 for f in inertia]
    weights = [1.0 / a2 if f else 0.0 for f in inertia]
    intervals = bracket_intervals(kern, last)
    if first == 1 and not p.load < 1.0:
        # F(0) = 1 - w*sum c_j/g_j: no sign change left of the origin
        raise NoSignChangeError(*intervals[0], -math.inf, scales[0] * (1.0 - p.load))
    out: list[list[BranchRoot]] = [[] for _ in inertia]
    block = max(1, BLOCK_CELLS // (len(inertia) * g.size))
    for start in range(first - 1, last, block):
        branches = np.arange(start, min(start + block, last))
        k = np.tile(branches, len(inertia))
        s = np.repeat(weights, branches.size)
        d = _solve_block(c, g, w, s, k)
        # F and F' at the offsets, every pole included, for residual and step
        t = d + (g[:, None] - g[k])
        x = d - g[k]
        F = 1.0 + s * x * x - w * (c[:, None] / t).sum(axis=0)
        dF = 2.0 * s * x + w * (c[:, None] / (t * t)).sum(axis=0)
        cols = zip(k.tolist(), x.tolist(), d.tolist(), F.tolist(), dF.tolist())
        for col, (i, value, offset, f, df) in enumerate(cols):
            j = col // branches.size
            out[j].append(BranchRoot(i + 1, value, intervals[i], scales[j] * abs(f), offset, abs(f / df)))
    return out


def branch_roots(p: ModePencil, count: int) -> list[BranchRoot]:
    """Real roots of the mode symbol, one per pole interval, k = 1..count."""
    return _solve(p, 1, count, (True,))[0]


def stiffness_roots(p: ModePencil, count: int) -> list[BranchRoot]:
    """Real roots of the stiffness factor f, one per pole interval."""
    return _solve(p, 1, count, (False,))[0]


def branch_and_stiffness_roots(p: ModePencil, count: int) -> tuple[list[BranchRoot], list[BranchRoot]]:
    """(:func:`branch_roots`, :func:`stiffness_roots`) from one block pass."""
    roots, stiff = _solve(p, 1, count, (True, False))
    return roots, stiff


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

    solved = [_solve(p, k, k, (True, False)) for p in pencils]
    mu = [m for (m,), _ in solved]
    x = [f for _, (f,) in solved]
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
