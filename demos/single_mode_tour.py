"""Tour of one mode: every root, every piece of evidence.

The workhorse example everywhere in this repo: a single memory stage
c = 1, g = 2 at frequency a = 10 with weight exponent xi = 1/2.  Clearing
the denominator turns the symbol into z^3 + 2z^2 + 100z + 190, so every
number printed below can be checked against a cubic by hand.
"""

import numpy as np

from gpspectra import (
    ExponentialKernel,
    ModePencil,
    aberth_roots,
    match_roots,
    solve_mode,
    to_polynomial,
)

kernel = ExponentialKernel(coeffs=(1.0,), rates=(2.0,))
mode = ModePencil(frequency=10.0, xi=0.5, kernel=kernel)
# the theorem's condition, per mode: load = a**(-2(1-xi)) * sum c/g < 1
print(f"memory load {mode.load} (overloaded: {mode.overloaded})")
result = solve_mode(mode)

print("\nreal branch, bracketed between the pole and the origin:")
for b in result.real_roots:
    lo, hi = b.interval
    print(f"  mu_{b.index} = {b.value:.15f}   in ({lo}, {hi}),  |L| = {b.residual:.2e}")

print("stiffness root (always to the right of the branch):")
for s in result.stiffness_roots:
    print(f"  x_{s.index}  = {s.value:.15f}")
print(f"interlacing margin: {result.interlacing_margin:.6f}")

print("\noscillatory pair:")
print(f"  lam+ = {result.pair_plus:.15f}")
print(f"  lam- = {result.pair_minus:.15f}")
print(f"  Newton passes on the fixed-point map {result.pair_iterations}, "
      f"contraction bound {result.contraction_bound:.3f}")

cert = result.certificate
(lo, hi), = cert.brackets
print(f"\ncounting certificate: {cert.zeros_inferred} zeros, one in each of "
      f"{cert.zeros_inferred} disjoint enclosures")
print(f"  mu_1 + 2 in [{lo!r}, {hi!r}], sign change proven "
      f"(margin {cert.sign_margin:.1f} rounding bounds)")
print(f"  lam+ within {cert.pair_radius * mode.frequency:.1e} of its disc centre "
      f"(Kantorovich h = {cert.kantorovich_h:.1e} <= 1/2), lam- in the mirror disc")

# cross-check against simultaneous iteration on the cleared polynomial
coeffs = to_polynomial(mode)
print("\ncleared polynomial (ascending):", [str(c) for c in coeffs])
oracle = aberth_roots(coeffs)
dev = match_roots(result.all_roots, oracle).max_relative_deviation
print(f"worst deviation from the polynomial oracle: {dev:.2e}")

assert dev < 1e-10
print("\nslowest decay in the whole mode:", result.spectral_abscissa)
