"""Sanity-check the spectrum against an actual time-domain simulation.

Everything else in this package reasons about roots of the mode symbol.
Here we close the loop: integrate the underlying ODE system, fit the
decay rate of the oscillation envelope, and compare against the spectral
abscissa the solver reports.  A few percent of disagreement is expected
(the envelope fit is crude); an order of magnitude would mean a bug.
"""

from gpspectra import ExponentialKernel, ModePencil, simulate_decay, solve_mode

CASES = (
    ((1.0,), (2.0,), 10.0, 0.5, 2000.0, 1e-3),
    ((0.5, 0.3), (1.0, 3.0), 10.0, 0.5, 2000.0, 1e-3),
    ((0.2, 0.2, 0.2), (0.5, 2.0, 6.0), 8.0, 0.5, 2000.0, 5e-3),
)

for coeffs, rates, a, xi, horizon, dt in CASES:
    pencil = ModePencil(frequency=a, xi=xi, kernel=ExponentialKernel(coeffs, rates))
    result = solve_mode(pencil)
    est = simulate_decay(pencil, horizon=horizon, dt=dt)
    abscissa = result.spectral_abscissa
    err = abs(est.rate - abscissa) / abs(abscissa)
    print(f"kernel c={coeffs} g={rates}  a={a}  xi={xi}")
    print(f"  spectral abscissa  {abscissa:+.6f}")
    print(f"  envelope fit       {est.rate:+.6f}   "
          f"({est.peak_count} peaks over t in "
          f"[{est.window[0]:.0f}, {est.window[1]:.0f}])")
    print(f"  relative gap       {100 * err:.2f}%")
    print()

print("note: the envelope fit needs an oscillation to ride on.  A pencil whose")
print("slowest root is real decays monotonically after the pair dies out, the")
print("peak detector finds nothing, and simulate_decay raises instead of")
print("guessing -- see tests/test_oracle.py for that case.")
