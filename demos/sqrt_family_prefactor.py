"""Recover the universal 1.1107... prefactor of square-root families.

Take c_k = 1/sqrt(k), g_k = k.  Regularity r = (alpha+beta-1)/beta = 1/2,
so at xi = 1/2 the pair's decay rate should fall like

    |Re lam| ~ Re C(1/2) * a^(-1/2),   Re C(1/2) = (pi/2)/sqrt(2) = 1.1107...

The only subtlety is how long a ladder to materialize.  The decay rate
feels the dropped tail through its second moment (each distant stage
contributes ~ c_k/g_k^2 to the rate), so we pick the shortest ladder whose
second tail moment is below 1e-8 and solve with that.
"""

import math

from gpspectra import (
    ModePencil,
    PowerLawFamily,
    asymptotic_constant,
    empirical_order,
    fixed_point_pair,
    materialize,
    tail_bound,
)

probe = PowerLawFamily(amplitude=1.0, scale=1.0, alpha=0.5, beta=1.0, count=1)
count = 1
while tail_bound(probe, count, moment=2) >= 1e-8:
    count *= 2
lo = count // 2
while lo < count:
    mid = (lo + count) // 2
    if tail_bound(probe, mid, moment=2) < 1e-8:
        count = mid
    else:
        lo = mid + 1
print(f"ladder length for a 1e-8 second tail moment: N = {count}")

family = PowerLawFamily(amplitude=1.0, scale=1.0, alpha=0.5, beta=1.0, count=count)
kernel = materialize(family)

points = []
for j in range(6):
    a = 100.0 * 10.0 ** (0.4 * j)
    p = ModePencil(frequency=a, xi=0.5, kernel=kernel)
    lam = fixed_point_pair(p).plus
    points.append((a, abs(lam.real)))
    print(f"  a = {a:12.1f}   |Re lam| = {abs(lam.real):.6e}"
          f"   x sqrt(a) = {abs(lam.real) * math.sqrt(a):.6f}")

slope = empirical_order(points).slope
target = asymptotic_constant(0.5).real
measured = points[-1][1] * math.sqrt(points[-1][0])
print(f"\nfitted decay order {slope:.4f} (theory: -0.5)")
print(f"prefactor at the top of the ladder {measured:.5f} vs Re C(1/2) = {target:.5f} "
      f"({100 * abs(measured - target) / target:.1f}% off)")
