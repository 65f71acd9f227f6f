"""One-call spectrum of a single mode: branches, pair, certificate."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .complex_pair import RESIDUAL_TOL, fixed_point_pair
from .errors import EnclosureError, NumericalError
from .pencil import ModePencil, symbol
from .real_branches import BranchRoot, branch_roots, stiffness_roots


@dataclass(frozen=True)
class CountingCertificate:
    """n + 2 disjoint regions, each proven to hold a root of the mode symbol.

    The cleared polynomial P = L * prod (z + g_k) has degree n + 2, so each
    region holds exactly one root and there is none anywhere else.
    ``brackets`` are the real branches' (lo, hi) offsets from their left
    poles, the roots lying in (lo - g_k, hi - g_k); ``sign_margin`` is the
    smallest |F|/bound over their ends (above 1 on every one).  The upper
    root lies in |z/a - i - pair_center| <= pair_radius, with Kantorovich
    quantity ``kantorovich_h`` <= 1/2; the lower root in the conjugate disc.
    """

    zeros_inferred: int
    brackets: tuple[tuple[float, float], ...]
    sign_margin: float
    pair_center: complex
    pair_radius: float
    kantorovich_h: float


@dataclass(frozen=True)
class SpectrumResult:
    """Complete root set of one mode symbol.

    ``stiffness_roots``, the real roots of the stiffness factor f, are
    solved on first read of them or of ``interlacing_margin``, not by
    :func:`solve_mode`, so an error of that solve is raised there.
    ``interlacing_margin`` is the smallest of the gaps that the ordering
    -g_k < root_k < stiffness_root_k < -g_{k-1} must keep positive; a
    negative margin means the ordering failed and verification should say
    so.  ``pair_iterations`` counts the pair's passes over the ladder and
    ``contraction_bound`` is the fixed-point map's |g'| at its last iterate
    (see :func:`fixed_point_pair`).  ``certificate`` proves that the n + 2
    roots found are all the roots.
    """

    pencil: ModePencil
    real_roots: tuple[BranchRoot, ...]
    pair_plus: complex
    pair_residual: float
    pair_iterations: int
    contraction_bound: float
    certificate: CountingCertificate

    @cached_property
    def stiffness_roots(self) -> tuple[BranchRoot, ...]:
        return tuple(stiffness_roots(self.pencil))

    @cached_property
    def interlacing_margin(self) -> float:
        # gaps taken between offsets from the left pole, which stay resolved
        # after root and stiffness root round to the same double
        margin = float("inf")
        for mu, x in zip(self.real_roots, self.stiffness_roots):
            lo, hi = mu.interval
            margin = min(margin, mu.offset, x.offset - mu.offset, (hi - lo) - x.offset)
        return margin

    @property
    def pair_minus(self) -> complex:
        """The lower root of the pair, the conjugate of ``pair_plus``."""
        return self.pair_plus.conjugate()

    @property
    def all_roots(self) -> tuple[complex, ...]:
        """Real branches followed by the pair (upper first)."""
        return tuple(complex(r.value) for r in self.real_roots) + (
            self.pair_plus,
            self.pair_minus,
        )

    @property
    def spectral_abscissa(self) -> float:
        return max(r.real for r in self.all_roots)


def _count_roots(real: tuple[BranchRoot, ...], disc: tuple[complex, float, float]) -> CountingCertificate:
    """The certificate from the branches' brackets and the pair's proven disc (center, radius, h)."""
    for r in real:
        if not r.sign_margin > 1.0:
            raise EnclosureError(r.index, r.bracket, f"sign margin {r.sign_margin:.3g} is not above 1")
    center, radius, h = disc
    return CountingCertificate(
        zeros_inferred=len(real) + 2,
        brackets=tuple(r.bracket for r in real),
        sign_margin=min(r.sign_margin for r in real),
        pair_center=center,
        pair_radius=radius,
        kantorovich_h=h,
    )


def solve_mode(p: ModePencil, residual_tol: float = RESIDUAL_TOL) -> SpectrumResult:
    """Locate every root of the mode symbol and prove that they are all of them.

    All kernel poles bracket one real branch; the conjugate pair comes from
    Newton's method on the fixed-point map (:func:`fixed_point_pair`).  A
    branch root must pass its gate ``BranchRoot.relative_error <=
    residual_tol`` and the pair must satisfy |L| <= residual_tol * a**2.
    The result carries a :class:`CountingCertificate`: every branch bracket
    must show a sign change clear of its rounding bound, and the pair a
    Newton-Kantorovich disc clear of the real axis, which
    :func:`fixed_point_pair` proves from its last pass, or
    :class:`EnclosureError` names the branch or disc that failed.  So an overdamped mode, whose two extra roots are
    real, is refused rather than reported with a "pair" that is one of
    them.  The printed residual |L(plus)| is the one pass over the ladder
    after the pair solve.  No contour is walked; :func:`count_zeros`
    remains the independent check.  A mode whose load ``p.load`` is not
    below 1 lies outside the theorem: the branch solve raises
    :class:`InadmissibleModeError` before anything is solved.
    """
    real = tuple(branch_roots(p))
    for r in real:
        if r.relative_error > residual_tol:
            raise NumericalError(
                f"branch {r.index} root-error estimate {r.root_error:.3e} exceeds "
                f"{residual_tol * max(1.0, abs(r.value)):.3e}"
            )

    pair = fixed_point_pair(p, residual_tol=residual_tol)
    return SpectrumResult(
        pencil=p,
        real_roots=real,
        pair_plus=pair.plus,
        pair_residual=abs(symbol(p, pair.plus)),
        pair_iterations=pair.iterations,
        contraction_bound=pair.derivative_bound,
        certificate=_count_roots(real, pair.disc),
    )
