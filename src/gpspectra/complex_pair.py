"""The oscillatory conjugate root pair and contour certification.

Away from the real axis the mode symbol keeps exactly one conjugate pair
of roots near +/- i*a.  Writing the upper root as lam = i*a + tau*a turns
L(lam) = 0 into the fixed-point problem

    tau = Khat(i*a + tau*a) / (a**(2*(1-xi)) * (tau + 2*i)),

whose right-hand side g is a contraction once the frequency is moderately
large.  Newton's method on tau - g(tau), from tau = 0, pins the root to
the working-precision floor in a few passes over the ladder, each of
which gives g and g' together; :func:`newton_refine` polishes any other
seed on L itself.  :func:`kantorovich_ball` proves a disc around that
root by the Newton-Kantorovich theorem.  Root counts inside
axis-aligned rectangles are certified independently by
argument-continuation winding counts.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContourError,
    DivergenceError,
    EnclosureError,
    MaxIterationsError,
    NonContractionError,
)
from .kernels import _EPS, FSUM_MAX, EndCorrections, laplace_pass
from .pencil import ModePencil, symbol, symbol_with_deriv

#: winding counts must land within this distance of an integer
MAX_QUADRATURE_DEFECT = 0.25

#: poles/roots may not sit closer to the contour than this fraction of a side
EDGE_GUARD_FACTOR = 1e-3

#: base grid points on a contour's longest side, before refinement
SAMPLES_PER_SIDE = 256

#: hard cap on symbol evaluations per contour side during refinement
MAX_SAMPLES_PER_SIDE = 1 << 17

#: largest phase step accepted without bisecting (quarter turn)
_PHASE_STEP_LIMIT = 0.5 * math.pi

#: largest |log| magnitude jump accepted without bisecting
_MAG_STEP_LIMIT = 1.5

#: a segment still ambiguous after this many bisections pins a root on it
_MAX_BISECT_DEPTH = 48

#: the pair's Newton loop stops on a step below PAIR_STEP_TOL * (1 + |tau|),
#: the noise of evaluating its map, and gives up after PAIR_MAX_PASSES passes
#: (it takes at most 6 on pool ladders and power-law sweeps)
PAIR_STEP_TOL = 4.0 * _EPS
PAIR_MAX_PASSES = 50

#: the pair's last step on a whole ladder of at most FSUM_MAX terms reads
#: f(tau) on the grid 2**-PAIR_GRID_BITS times the size of its parts
#: (:func:`_rounded_root`)
PAIR_GRID_BITS = 80

#: the residual target: the default of fixed_point_pair, solve_mode and a job
#: config's tolerances.residual, and newton_refine's gate |L| <= RESIDUAL_TOL
#: * a**2, which a seed inside its basin meets in well under REFINE_MAX_STEPS
RESIDUAL_TOL = 1e-10
REFINE_MAX_STEPS = 50


@dataclass(frozen=True)
class FixedPointPair:
    """Conjugate pair located by Newton's method on the fixed-point map, with its proven disc.

    ``plus`` is the upper root and ``minus`` its conjugate (see
    :func:`fixed_point_pair`).  ``iterations`` counts passes over the
    ladder, ``derivative_bound`` is the map's |g'| at the last iterate,
    and ``residual`` is |L|/a**2 there, one Newton step before ``plus``.
    ``disc`` is (center, radius, h) as :func:`kantorovich_ball` returns
    it, proven from the pass at that last iterate.
    """

    plus: complex
    iterations: int
    derivative_bound: float  # |g'| at the final iterate; < 1 when trusted
    residual: float
    disc: tuple[complex, float, float]

    @property
    def minus(self) -> complex:
        """The lower root, the conjugate of ``plus``."""
        return self.plus.conjugate()


@dataclass(frozen=True)
class RectContour:
    """Axis-aligned rectangle traversed counterclockwise."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("degenerate rectangle")

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
    p: ModePencil, residual_tol: float = RESIDUAL_TOL, ends: EndCorrections | None = None
) -> FixedPointPair:
    """The oscillatory pair by Newton's method on the fixed-point map, gated and proven by its disc.

    Each pass over the ladder gives Khat and Khat' at z = i*a + tau*a, so
    the map g(tau) = w*Khat/(tau + 2i) and its derivative g' together;
    from tau = 0 the step tau <- tau - (tau - g)/(1 - g') converges
    quadratically.  It stops once the step is within PAIR_STEP_TOL*(1 + |tau|)
    and applies that last step; on a whole ladder of at most FSUM_MAX
    terms the last step is formed exactly and the root rounded once
    (:func:`_rounded_root`), so that its error is not the noise of the
    map's double evaluation.  ``residual`` is |L|/a**2 =
    |tau*(tau + 2i) - w*Khat| at the last evaluated iterate, one step
    short of ``plus``; above ``residual_tol`` it raises
    :class:`DivergenceError`.  A root in the lower half plane is flipped
    to the upper one, and that iterate's pass with it (the transform has
    real coefficients, so the pass at the conjugate point is the conjugate
    pass).  ``disc`` is then proven from that pass, as
    :func:`kantorovich_ball` proves it, so no pass is spent on it; a disc
    that cannot be proven raises :class:`EnclosureError`.  Raises
    :class:`NonContractionError` the moment |g'| reaches one at an
    iterate — the map is then no contraction there, and 1 - g' is no
    longer kept from zero — and :class:`MaxIterationsError` if the step
    does not settle within the cap.

    When ``p.kernel`` is a family's pseudo-ladder, ``ends`` are its end
    corrections (:func:`pseudo_ladder`), which join each pass
    (:func:`laplace_pass`), and the disc reads their error bound from the
    last one; an iterate where that bound is not small raises
    :class:`NumericalError`.
    """
    a, w = p.frequency, p.memory_weight
    tau = 0.0 + 0.0j
    for it in range(1, PAIR_MAX_PASSES + 1):
        z = 1j * a + tau * a
        at_z = laplace_pass(p.kernel, z, ends)
        khat, dkhat = at_z[:2]
        shift = tau + 2j
        image = w * khat / shift
        deriv = w * (dkhat * a * shift - khat) / (shift * shift)
        if abs(deriv) >= 1.0:
            raise NonContractionError(
                f"fixed-point map has |g'| = {abs(deriv):.3f} at iterate {it}"
            )
        step = (tau - image) / (1.0 - deriv)
        if abs(step) <= PAIR_STEP_TOL * (1.0 + abs(tau)):
            if ends is None and p.kernel.size <= FSUM_MAX:
                scale = abs(tau) * abs(shift) + w * at_z[2]
                plus = _rounded_root(p, tau, shift * (1.0 - deriv), scale)
            else:
                plus = 1j * a + (tau - step) * a
            residual = abs(tau * shift - w * khat)
            if not residual <= residual_tol:
                raise DivergenceError(
                    f"pair residual {residual:.3e} * a**2 misses target {residual_tol:.3e} * a**2"
                )
            if plus.imag < 0:
                plus, z = plus.conjugate(), z.conjugate()
                at_z = (khat.conjugate(), dkhat.conjugate(), *at_z[2:])
            return FixedPointPair(
                plus=plus,
                iterations=it,
                derivative_bound=abs(deriv),
                residual=residual,
                disc=_disc(p, z, at_z),
            )
        tau = tau - step
    raise MaxIterationsError(f"pair iteration did not settle in {PAIR_MAX_PASSES} steps")


def _rounded_root(p: ModePencil, tau: complex, slope: complex, scale: float) -> complex:
    """The root a*(i + tau - f(tau)/slope), with f formed exactly and the root rounded once.

    f(tau) = tau*(tau + 2i) - w*Khat(a*(i + tau)) is the map's residual at
    the double tau, read at the exact point a*(i + tau), not at its
    rounding.  Every input is a double, a dyadic rational, so each z + g
    is (x + iy)/q for Gaussian integers x + iy over one power of two q;
    each term w*c/(z + g) and the polynomial part are floored onto the
    grid 2**-PAIR_GRID_BITS times ``scale``, the size of f's parts (each
    floor errs by less than one grid step), and f is rounded once.  tau
    lies within PAIR_STEP_TOL of the root, so this Newton step leaves an
    error of order eps**2, and the root a*(i + tau) - a*step, summed
    exactly in integers and rounded once, lies within about half an ulp
    in each part of the root of f with w the double ``memory_weight``.
    """
    ma, da = p.frequency.as_integer_ratio()
    mr, dr = tau.real.as_integer_ratio()
    mi, di = tau.imag.as_integer_ratio()
    mw, dw = p.memory_weight.as_integer_ratio()
    rates = [g.as_integer_ratio() for g in p.kernel._g.tolist()]
    q = max(da * dr, da * di, *(d for _, d in rates))
    x, y = ma * mr * (q // (da * dr)), ma * (q // da) + ma * mi * (q // (da * di))
    yy, top = y * y, max(PAIR_GRID_BITS - math.frexp(scale)[1], 0)
    # kr and ki are Re and -Im of w*Khat on the grid 2**-top
    kr = ki = 0
    for c, (mg, dg) in zip(p.kernel._c.tolist(), rates):
        mc, dc = c.as_integer_ratio()
        xg = x + mg * (q // dg)
        num, den = (mw * mc * q) << top, dw * dc * (xg * xg + yy)
        kr += num * xg // den
        ki += num * y // den
    fr = (mr * mr << top) // (dr * dr) - (mi * mi << top) // (di * di) - (mi << top + 1) // di - kr
    fi = (mr * mi << top + 1) // (dr * di) + (mr << top + 1) // dr + ki
    grid = 1 << top
    step = complex(fr / grid, fi / grid) / slope
    (sr, dsr), (si, dsi) = step.real.as_integer_ratio(), step.imag.as_integer_ratio()
    er, ei = max(dr, dsr), max(di, dsi)
    return complex(
        ma * (mr * (er // dr) - sr * (er // dsr)) / (da * er),
        ma * (ei + mi * (ei // di) - si * (ei // dsi)) / (da * ei),
    )


def newton_refine(p: ModePencil, seed: complex) -> complex:
    """Polish a root seed by Newton's method on the mode symbol.

    Each iterate costs one pass over the ladder, which gives L and L'
    together (:func:`symbol_with_deriv`).  Keeps the best iterate seen;
    stops on a machine-size step, or once the residual grows after the
    best iterate has met the target.  Two consecutive increases before
    that are treated as divergence (the seed was outside the basin), and
    the returned root must satisfy |L(root)| <= RESIDUAL_TOL * a**2.
    """
    scale = RESIDUAL_TOL * p.frequency_squared
    z = complex(seed)
    value, d = symbol_with_deriv(p, z)
    res = abs(value)
    best, best_res = z, res
    increases = 0
    for _ in range(REFINE_MAX_STEPS):
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


def kantorovich_ball(p: ModePencil, plus: complex) -> tuple[complex, float, float]:
    """Prove a Newton-Kantorovich disc around the upper root ``plus``.

    Returns (center, radius, h): the upper root lies in
    |z/a - i - center| <= radius and the lower root in the conjugate disc;
    h is the Kantorovich quantity beta*gamma*eta.  The proof reads one
    :func:`laplace_pass` at ``plus`` (:func:`fixed_point_pair` reads the one
    at its last iterate instead).  In tau = z/a - i the scaled symbol
    is f = L/a**2 = tau*(tau + 2i) - w*Khat(z), f' = 2(tau + i) - w*a*Khat'.
    Both are formed at tau0, the rounded tau* = plus/a - i, and bounded
    against their values at tau*.  The pass's terms lie within 4 and 8 eps
    of c/|z + g| and c/|z + g|**2, and n terms summed in any order within
    n*eps of the sum of their moduli, so the memory parts carry
    (n + 16)*eps times m1 = w*s1 and m2 = w*a*s2, products included, and
    w and w*a times the pass's error bound on a pseudo-ladder; the
    polynomial parts carry 4 eps of their size plus their change over
    gap = eps*(|tau0| + |1 + Im tau0|/2) >= |tau0 - tau*|.  With eta >=
    |f/f'| and beta >= 1/|f'| at tau*, and gamma >= sup |f''| on the disc
    of radius 2*eta around it, h = beta*gamma*eta <= 1/2 puts a root in
    that disc, so within radius = 2*eta + gap of tau0.  Every pole is
    real, so there |z + g| >= Im z >= a*low, low = Im(i + tau0) - radius,
    and |z + g| keeps low/(low + 2*eta) of its value at plus: one term
    bounds the whole ladder,

        |f''| = |2 - 2w*a**2 * sum c/(z + g)**3| <= 2 + 2*m2*((low + 2*eta)/low)**2/low.

    The disc must clear the real axis, low > 0, and with it every pole and
    its conjugate.  eta is floored at eps: a disc narrower than the spacing
    of doubles at tau0 would hold the root but not the doubles that round
    it.  s1 and s2 are inflated by 1 + (n + 16)*eps, the scalar steps by
    16 eps, for their own rounding.  Raises :class:`EnclosureError` if not.
    """
    return _disc(p, plus, laplace_pass(p.kernel, plus))


def _disc(p: ModePencil, point: complex, at_point: tuple) -> tuple[complex, float, float]:
    """:func:`kantorovich_ball` around ``point`` from the :func:`laplace_pass` already taken there."""
    khat, dkhat, s1, s2, error, deriv_error = at_point
    a, w, sums = p.frequency, p.memory_weight, (p.kernel.size + 16) * _EPS
    tau = complex(point.real / a, point.imag / a - 1.0)
    gap = _EPS * (abs(tau) + 0.5 * abs(1.0 + tau.imag))
    m1, m2 = w * s1 * (1.0 + sums), w * a * s2 * (1.0 + sums)
    f, df = tau * (tau + 2j) - w * khat, 2.0 * (tau + 1j) - w * a * dkhat
    f_bound = 4.0 * _EPS * abs(tau) * abs(tau + 2j) + gap * (2.0 * abs(tau + 1j) + gap) + sums * m1 + w * error
    df_bound = 4.0 * _EPS * abs(tau + 1j) + 2.0 * gap + sums * m2 + w * a * deriv_error
    inflate = 1.0 + 16.0 * _EPS  # covers the scalar steps below
    reach = abs(df) - df_bound
    if not reach > 0.0:
        raise EnclosureError(None, (tau, math.inf), f"|f'| = {abs(df):.3e} is within its bound {df_bound:.3e}")
    beta = inflate / reach
    eta = max(inflate * beta * (abs(f) + f_bound), _EPS)
    radius = 2.0 * eta + gap
    low = (1.0 + tau.imag) * (1.0 - 2.0 * _EPS) - radius
    if not low > 0.0:
        raise EnclosureError(None, (tau, radius), f"the disc reaches the real axis, Im(i + tau0) = {1.0 + tau.imag:.3e}")
    shrink = (low + 2.0 * eta) / low
    gamma = inflate * (2.0 + 2.0 * m2 * shrink * shrink / low)
    h = inflate * beta * gamma * eta
    if not h <= 0.5:
        raise EnclosureError(None, (tau, radius), f"Kantorovich h = {h:.3e} is above 1/2")
    return tau, radius, h


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
    grid puts SAMPLES_PER_SIDE points on the longest side and
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
        count = max(16, int(round(SAMPLES_PER_SIDE * abs(edge) / longest)))
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


def spectrum_contour(p: ModePencil) -> RectContour:
    """Rectangle expected to enclose every real branch plus the pair.

    A synthetic next rate extends the ladder's last gap (at least 10% of
    the top rate), and the right/left edges sit at the midpoint between
    the top rate and it, so every real branch stays strictly inside.  The
    height exceeds the pair by construction: Y = 1.1 * a * sqrt(1 + K(0) * w).
    """
    rates = p.kernel.rates
    top = rates[-1]
    last_gap = top - rates[-2] if len(rates) >= 2 else top
    x_edge = top + 0.5 * max(last_gap, 0.1 * top)
    y_edge = 1.1 * p.frequency * np.sqrt(
        1.0 + p.kernel.initial_value * p.memory_weight
    )
    return RectContour(
        x_min=-x_edge,
        x_max=x_edge,
        y_min=-float(y_edge),
        y_max=float(y_edge),
    )
