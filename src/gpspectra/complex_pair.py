"""The oscillatory conjugate root pair and contour certification.

Away from the real axis the mode symbol keeps exactly one conjugate pair
of roots near +/- i*a.  Writing the upper root as lam = i*a + tau*a turns
L(lam) = 0 into the fixed-point problem

    tau = Khat(i*a + tau*a) / (a**(2*(1-xi)) * (tau + 2*i)),

whose right-hand side is a contraction once the frequency is moderately
large; iteration from tau = 0 plus a Newton polish pins the root to the
working-precision floor.  Root counts inside axis-aligned rectangles are
certified independently by argument-continuation winding counts.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ContourError,
    DivergenceError,
    MaxIterationsError,
    NonContractionError,
)
from .kernels import laplace_with_deriv
from .pencil import ModePencil, symbol, symbol_with_deriv

#: winding counts must land within this distance of an integer
MAX_QUADRATURE_DEFECT = 0.25

#: poles/roots may not sit closer to the contour than this fraction of a side
EDGE_GUARD_FACTOR = 1e-3

#: hard cap on symbol evaluations per contour side during refinement
MAX_SAMPLES_PER_SIDE = 1 << 17

#: largest phase step accepted without bisecting (quarter turn)
_PHASE_STEP_LIMIT = 0.5 * math.pi

#: largest |log| magnitude jump accepted without bisecting
_MAG_STEP_LIMIT = 1.5

#: a segment still ambiguous after this many bisections pins a root on it
_MAX_BISECT_DEPTH = 48


@dataclass(frozen=True)
class FixedPointPair:
    """Conjugate pair located by the fixed-point map, plus convergence data.

    :func:`fixed_point_pair` returns the map's own iterate;
    :func:`solve_pair` returns it Newton-polished, with ``plus`` in the upper
    half plane and ``minus`` its conjugate.  ``iterations`` and
    ``derivative_bound`` always describe the fixed-point map.
    """

    plus: complex
    minus: complex
    iterations: int
    derivative_bound: float  # |g'| at the final iterate; < 1 when trusted


@dataclass(frozen=True)
class RectContour:
    """Axis-aligned rectangle traversed counterclockwise."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    samples_per_side: int = 256

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("degenerate rectangle")
        if self.samples_per_side < 8:
            raise ValueError("need at least 8 samples per side")

    @property
    def corners(self) -> tuple[complex, complex, complex, complex]:
        return (
            complex(self.x_min, self.y_min),
            complex(self.x_max, self.y_min),
            complex(self.x_max, self.y_max),
            complex(self.x_min, self.y_max),
        )

    def boundary_distance(self, point: complex) -> float:
        """Distance from a point to the rectangle's boundary curve."""
        dx = max(self.x_min - point.real, 0.0, point.real - self.x_max)
        dy = max(self.y_min - point.imag, 0.0, point.imag - self.y_max)
        if dx > 0.0 or dy > 0.0:  # outside
            return float(np.hypot(dx, dy))
        return min(
            point.real - self.x_min,
            self.x_max - point.real,
            point.imag - self.y_min,
            self.y_max - point.imag,
        )


@dataclass(frozen=True)
class CountCertificate:
    winding: int
    poles_inside: int
    zeros_inferred: int
    max_quadrature_defect: float
    samples_per_side: int


def fixed_point_pair(
    p: ModePencil, tol: float = 1e-14, max_iter: int = 200
) -> FixedPointPair:
    """Iterate the contraction for the upper root; the lower is its conjugate.

    Raises :class:`NonContractionError` the moment the local derivative of
    the map reaches modulus one — the result would not be trustworthy — and
    :class:`MaxIterationsError` if the tolerance is not met within the cap.
    """
    a = p.frequency
    weight = a ** (2.0 * (1.0 - p.xi))  # a**(2(1-xi)) divides the map
    tau = 0.0 + 0.0j
    for it in range(1, max_iter + 1):
        z = 1j * a + tau * a
        khat, dkhat = laplace_with_deriv(p.kernel, z)
        denom = weight * (tau + 2j)
        tau_next = khat / denom
        deriv = (dkhat * a * (tau + 2j) - khat) / (weight * (tau + 2j) ** 2)
        if abs(deriv) >= 1.0:
            raise NonContractionError(
                f"fixed-point map has |g'| = {abs(deriv):.3f} at iterate {it}"
            )
        if abs(tau_next - tau) < tol * (1.0 + abs(tau_next)):
            plus = 1j * a + tau_next * a
            return FixedPointPair(
                plus=plus,
                minus=plus.conjugate(),
                iterations=it,
                derivative_bound=abs(deriv),
            )
        tau = tau_next
    raise MaxIterationsError(f"pair iteration did not settle in {max_iter} steps")


def newton_refine(
    p: ModePencil,
    seed: complex,
    residual_tol: float = 1e-10,
    max_steps: int = 50,
) -> complex:
    """Polish a root seed by Newton's method on the mode symbol.

    Each iterate costs one pass over the ladder, which gives L and L'
    together (:func:`symbol_with_deriv`).  Keeps the best iterate seen;
    stops on a machine-size step, or once the residual grows after the
    best iterate has met the target.  Two consecutive increases before
    that are treated as divergence (the seed was outside the basin), and
    the returned root must satisfy |L(root)| <= residual_tol * a**2.
    """
    scale = residual_tol * p.frequency**2
    z = complex(seed)
    value, d = symbol_with_deriv(p, z)
    res = abs(value)
    best, best_res = z, res
    increases = 0
    for _ in range(max_steps):
        if d == 0:
            break
        step = value / d
        z = z - step
        value, d = symbol_with_deriv(p, z)
        res_new = abs(value)
        if res_new < best_res:
            best, best_res = z, res_new
        if res_new > res:
            if best_res <= scale:
                break  # growth at the rounding floor, with the target met
            increases += 1
            if increases >= 2:
                raise DivergenceError(
                    f"residual grew twice consecutively (now {res_new:.3e})"
                )
        else:
            increases = 0
        res = res_new
        if abs(step) <= 1e-16 * (1.0 + abs(z)) or res_new == 0.0:
            break
    if best_res > scale:
        raise DivergenceError(
            f"refined residual {best_res:.3e} misses target {scale:.3e}"
        )
    return best


def solve_pair(p: ModePencil, residual_tol: float = 1e-10) -> FixedPointPair:
    """The oscillatory pair: the fixed-point map's root polished by Newton.

    The polished upper root must satisfy |L| <= residual_tol * a**2 (see
    :func:`newton_refine`); a polish that lands in the lower half plane is
    flipped to its conjugate, so ``plus`` is always the upper root.
    """
    fp = fixed_point_pair(p)
    plus = newton_refine(p, fp.plus, residual_tol=residual_tol)
    if plus.imag < 0:
        plus = plus.conjugate()
    return replace(fp, plus=plus, minus=plus.conjugate())


def _segment_phase(
    p: ModePencil,
    z0: complex,
    z1: complex,
    v0: complex,
    v1: complex,
    budget: list,
) -> float:
    """Continuous phase change of the symbol along one straight segment.

    The principal-value step angle(v1/v0) equals the true phase change
    only when the step is unambiguous, so any step whose phase jump
    exceeds a quarter turn or whose magnitude jumps by more than
    exp(_MAG_STEP_LIMIT) is bisected until every piece is tame.  A piece
    that stays ambiguous through _MAX_BISECT_DEPTH bisections has a root
    on (or indistinguishably close to) the segment itself.
    """
    total = 0.0
    stack = [(z0, z1, v0, v1, 0)]
    while stack:
        a0, a1, w0, w1, depth = stack.pop()
        ratio = w1 / w0
        if (
            abs(cmath.phase(ratio)) <= _PHASE_STEP_LIMIT
            and abs(math.log(abs(ratio))) <= _MAG_STEP_LIMIT
        ):
            total += cmath.phase(ratio)
            continue
        if depth >= _MAX_BISECT_DEPTH:
            raise ContourError(
                f"phase step near {a0:.6g} still ambiguous after "
                f"{_MAX_BISECT_DEPTH} bisections; a root sits on the contour"
            )
        budget[0] -= 1
        if budget[0] < 0:
            raise ContourError(
                f"contour refinement exceeded {MAX_SAMPLES_PER_SIDE} "
                "evaluations on one side"
            )
        mid = 0.5 * (a0 + a1)
        vm = complex(symbol(p, mid))
        if vm == 0.0:
            raise ContourError(f"symbol vanishes on the contour at {mid:.6g}")
        stack.append((mid, a1, vm, w1, depth + 1))
        stack.append((a0, mid, w0, vm, depth + 1))
    return total


def _winding(p: ModePencil, contour: RectContour) -> tuple[float, int]:
    """Winding number of the symbol around the rectangle.

    Returns the accumulated phase change over 2*pi (a near-exact integer)
    and the largest number of evaluations any one side needed.  The base
    grid puts ``samples_per_side`` points on the longest side and
    proportionally fewer on the others, so spacing stays uniform on
    elongated rectangles; all four sides' grids are evaluated in one call.
    Each side then sums its phase steps and bisects its ambiguous steps
    locally, with a refinement budget of its own.
    """
    cs = contour.corners
    longest = max(contour.x_max - contour.x_min, contour.y_max - contour.y_min)
    sides = []
    for i in range(4):
        edge = cs[(i + 1) % 4] - cs[i]
        count = max(16, int(round(contour.samples_per_side * abs(edge) / longest)))
        sides.append(cs[i] + (np.arange(count + 1) / count) * edge)
    pts = np.concatenate(sides)
    vals = np.asarray(symbol(p, pts))
    if np.any(vals == 0):
        raise ContourError("symbol vanishes exactly on the contour")
    # steps across a corner join two sides and are never read
    ratios = vals[1:] / vals[:-1]
    dphi = np.angle(ratios)
    dmag = np.abs(np.log(np.abs(ratios)))
    ok = (np.abs(dphi) <= _PHASE_STEP_LIMIT) & (dmag <= _MAG_STEP_LIMIT)
    total = 0.0
    most = 0
    start = 0
    for side in sides:
        stop = start + side.size
        steps = slice(start, stop - 1)
        total += float(np.sum(dphi[steps][ok[steps]]))
        budget = [MAX_SAMPLES_PER_SIDE]
        for j in np.nonzero(~ok[steps])[0] + start:
            total += _segment_phase(
                p, complex(pts[j]), complex(pts[j + 1]),
                complex(vals[j]), complex(vals[j + 1]), budget,
            )
        most = max(most, side.size + MAX_SAMPLES_PER_SIDE - budget[0])
        start = stop
    return total / (2.0 * math.pi), most


def count_zeros(p: ModePencil, contour: RectContour) -> CountCertificate:
    """Certify the zero count inside a rectangle by the argument principle.

    The winding number comes from continuous phase tracking: every step of
    the boundary walk must turn the symbol by less than a quarter turn
    (ambiguous steps are bisected on the spot), after which the summed
    phase telescopes to a 2*pi multiple up to round-off.  Kernel poles
    inside the rectangle then convert the winding number into a zero
    count.  Poles hugging the boundary (within EDGE_GUARD_FACTOR of the
    shorter side) are rejected up front.
    """
    p.kernel.require_every_pole("a zero count")
    guard = EDGE_GUARD_FACTOR * min(
        contour.x_max - contour.x_min, contour.y_max - contour.y_min
    )
    for g in p.kernel.rates:
        if contour.boundary_distance(complex(-g, 0.0)) < guard:
            raise ContourError(
                f"kernel pole at {-g} lies within {guard:.3e} of the contour"
            )
    poles_inside = sum(
        1
        for g in p.kernel.rates
        if contour.x_min < -g < contour.x_max and contour.y_min < 0.0 < contour.y_max
    )
    raw, evaluations = _winding(p, contour)
    nearest = int(round(raw))
    defect = float(abs(raw - nearest))
    if defect >= MAX_QUADRATURE_DEFECT:
        raise ContourError(
            f"winding {raw:.6f} is no closer than {MAX_QUADRATURE_DEFECT} "
            "to an integer; phase tracking lost a turn"
        )
    return CountCertificate(
        winding=nearest,
        poles_inside=poles_inside,
        zeros_inferred=nearest + poles_inside,
        max_quadrature_defect=defect,
        samples_per_side=evaluations,
    )


def spectrum_contour(p: ModePencil, window: int, samples_per_side: int = 256) -> RectContour:
    """Rectangle expected to enclose the first ``window`` real branches plus the pair.

    The right/left edges sit at the midpoint between rates number ``window``
    and ``window``+1; when the window uses up the whole ladder a synthetic
    next rate extends the last gap (at least 10% of the top rate) so every
    real branch stays strictly inside.  The height exceeds the pair by
    construction: Y = 1.1 * a * sqrt(1 + K(0) * w).
    """
    p.kernel.require_every_pole("the spectrum contour")
    n = p.kernel.size
    if not 1 <= window <= n:
        raise ValueError(f"window {window} outside 1..{n}")
    rates = p.kernel.rates
    if window < n:
        x_edge = 0.5 * (rates[window - 1] + rates[window])
    else:
        top = rates[-1]
        last_gap = top - rates[-2] if n >= 2 else top
        x_edge = top + 0.5 * max(last_gap, 0.1 * top)
    y_edge = 1.1 * p.frequency * np.sqrt(
        1.0 + p.kernel.initial_value * p.memory_weight
    )
    return RectContour(
        x_min=-x_edge,
        x_max=x_edge,
        y_min=-float(y_edge),
        y_max=float(y_edge),
        samples_per_side=samples_per_side,
    )
