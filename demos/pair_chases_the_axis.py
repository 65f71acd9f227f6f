"""How fast does the pair forget its damping?

For a finite-sum kernel the upper root is i*a - K(0)/(2*a^(2(1-xi))) plus
smaller terms.  Sweep a over four decades and watch the residual error
against that closed form die off one power faster.
"""

from gpspectra import (
    ExponentialKernel,
    ModePencil,
    empirical_order,
    fixed_point_pair,
    predict_finite_sum,
)

kernel = ExponentialKernel((1.0,), (2.0,))

points_re, points_im = [], []
print(f"{'a':>9}  {'Re lam+':>13}  {'predicted':>13}  {'|err Re|':>9}  {'|err Im|':>9}")
for a in (1e1, 1e2, 1e3, 1e4, 1e5):
    p = ModePencil(frequency=a, xi=0.5, kernel=kernel)
    lam = fixed_point_pair(p).plus
    pred = predict_finite_sum(a, 0.5, kernel.initial_value).value
    err_re, err_im = abs(lam.real - pred.real), abs(lam.imag - pred.imag)
    points_re.append((a, err_re))
    points_im.append((a, err_im))
    print(f"{a:9.0f}  {lam.real:13.6e}  {pred.real:13.6e}  {err_re:9.2e}  {err_im:9.2e}")

fit_re = empirical_order(points_re)
fit_im = empirical_order(points_im)
print(f"\nfitted orders: Re error ~ a^{fit_re.slope:+.3f}, Im error ~ a^{fit_im.slope:+.3f}")
print("(the declared remainder exponents at xi = 1/2 are upper bounds, -1 and 0;")
print(" this kernel happens to beat them — don't count on that for other kernels)")
