"""One-call spectrum of a single mode: branches, pair, certificate."""

from __future__ import annotations

from dataclasses import dataclass

from .complex_pair import CountCertificate, count_zeros, solve_pair, spectrum_contour
from .errors import InadmissibleModeError, NumericalError
from .pencil import ModePencil, symbol
from .real_branches import BranchRoot, branch_and_stiffness_roots
# solve_mode no longer calls these two, but perfbench/test_bench.py checks
# that its tracer wraps them in this module too
from .real_branches import branch_roots, stiffness_roots  # noqa: F401


@dataclass(frozen=True)
class SpectrumResult:
    """Complete root set of one mode symbol.

    ``interlacing_margin`` is the smallest of the gaps that the ordering
    -g_k < root_k < stiffness_root_k < -g_{k-1} must keep positive; a
    negative margin means the ordering failed and verification should say
    so.  ``certificate`` is the argument-principle count over the enclosing
    rectangle (None when not requested).
    """

    pencil: ModePencil
    real_roots: tuple[BranchRoot, ...]
    stiffness_roots: tuple[BranchRoot, ...]
    pair_plus: complex
    pair_minus: complex
    pair_residual: float
    pair_iterations: int
    contraction_bound: float
    interlacing_margin: float
    certificate: CountCertificate | None

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


def _interlacing_margin(
    roots: tuple[BranchRoot, ...],
    stiff: tuple[BranchRoot, ...],
) -> float:
    # gaps taken between offsets from the left pole, which stay resolved
    # after root and stiffness root round to the same double
    margin = float("inf")
    for mu, x in zip(roots, stiff):
        lo, hi = mu.interval
        margin = min(margin, mu.offset, x.offset - mu.offset, (hi - lo) - x.offset)
    return margin


def solve_mode(
    p: ModePencil,
    residual_tol: float = 1e-10,
    certify: bool = True,
) -> SpectrumResult:
    """Locate every root of the mode symbol and bundle the evidence.

    All kernel poles bracket one real branch; the conjugate pair comes from
    the fixed-point map polished by Newton.  A branch root must pass its
    gate ``BranchRoot.relative_error <= residual_tol`` and the pair must
    satisfy |L| <= residual_tol * a**2.  With ``certify`` the rectangle
    count is attached — the certificate is stored either way, the
    assertion belongs to the verification layer.  A mode whose load
    ``p.load`` is not below 1 lies outside the theorem and raises
    :class:`InadmissibleModeError` before anything is solved.
    """
    if not p.load < 1.0:
        raise InadmissibleModeError(p.load)
    n = p.kernel.size
    real, stiff = map(tuple, branch_and_stiffness_roots(p, n))
    for r in real:
        if r.relative_error > residual_tol:
            raise NumericalError(
                f"branch {r.index} root-error estimate {r.root_error:.3e} exceeds "
                f"{residual_tol * max(1.0, abs(r.value)):.3e}"
            )

    pair = solve_pair(p, residual_tol=residual_tol)

    certificate = None
    if certify:
        certificate = count_zeros(p, spectrum_contour(p, n))

    return SpectrumResult(
        pencil=p,
        real_roots=real,
        stiffness_roots=stiff,
        pair_plus=pair.plus,
        pair_minus=pair.minus,
        pair_residual=abs(symbol(p, pair.plus)),
        pair_iterations=pair.iterations,
        contraction_bound=pair.derivative_bound,
        interlacing_margin=_interlacing_margin(real, stiff),
        certificate=certificate,
    )
