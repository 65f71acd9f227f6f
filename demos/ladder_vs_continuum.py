"""How badly does a truncated ladder approximate its continuum transform?

The continuum limit replaces the ladder sum  sum_k c_k/(z + g_k)  by an
integral; for c_k = 1/sqrt(k), g_k = k that integral is known in closed
form.  Along the ray arg z = pi/4 the two should agree to o(1/|z|) -- the
scaled product |z| * |ladder - continuum| should stay flat as |z| grows.

It only does if you account for the stages you didn't materialize.  The
raw 100000-stage sum drifts away from the continuum once |z| is within a
couple of decades of the truncation rate g_N = 100000; the analytic tail
closure (the dropped stages summed to a start that grows with beta, then
closed by Euler-Maclaurin) pins it back.
"""

import cmath
import math

from gpspectra import (
    PowerLawFamily,
    continuum_laplace,
    empirical_order,
    laplace,
    laplace_tail,
    materialize,
)

family = PowerLawFamily(amplitude=1.0, scale=1.0, alpha=0.5, beta=1.0, count=100000)
kernel = materialize(family)
direction = cmath.exp(1j * math.pi / 4.0)

print(f"ladder: c_k = k^-0.5, g_k = k, N = {family.count}")
print(f"{'|z|':>12}  {'|z||khat-h| raw':>16}  {'with tail':>12}")

raw_points = []
closed_points = []
for j in range(7):
    radius = 10.0 * 10.0 ** (0.5 * j)
    z = radius * direction
    head = laplace(kernel, z)
    tail = laplace_tail(family, z)
    h = continuum_laplace(family, z)
    raw_points.append((radius, radius * abs(head - h)))
    closed_points.append((radius, radius * abs(head + tail - h)))
    print(f"{radius:12.1f}  {raw_points[-1][1]:16.4e}  {closed_points[-1][1]:12.4e}")

raw_fit = empirical_order(raw_points)
closed_fit = empirical_order(closed_points)
print(f"\nscaled-gap growth order: raw {raw_fit.slope:+.3f}, "
      f"with tail closure {closed_fit.slope:+.4f}")
print("the raw truncation grows roughly like |z|^1 once the ray passes the")
print("materialized stages; the closure keeps the product flat, which is what")
print("lets finite ladders stand in for the continuum in the sweeps above.")
