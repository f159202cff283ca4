"""Touchard polynomials and the large-coherent-state limit.

T_j(x) = e^-x sum_k k^j x^k / k! is the j'th moment of a Poisson
distribution with mean x.  As x grows, x^-j T_j(x) -> 1 + j(j-1)/(2x) with
an O(x^-2) error, which is the combinatorial engine behind the collapse of
the Kraus sum onto a single semi-classical propagator.

T_j is the finite polynomial sum_k S(j, k) x^k with Stirling numbers of the
second kind, evaluated by Horner's rule on its positive integer
coefficients, so each value below is exact to a few ulp: the residuals are
the O(x^-2) terms themselves, not summation noise.
"""

import numpy as np

from covlind import touchard, touchard_asymptotic

print("Bell numbers (T_j at x = 1):",
      [round(touchard(j, 1.0)) for j in range(9)])

print("\n   j      x        x^-j T_j(x)    1 + j(j-1)/(2x)    residual")
for j in (2, 3, 4, 5, 6):
    for x in (1e2, 1e3, 1e4):
        scaled = touchard(j, x) / x ** j
        asym = touchard_asymptotic(j, x) / x ** j
        print(f"  {j}   {x:8.0f}   {scaled:.10f}   {asym:.10f}   "
              f"{abs(scaled - asym):.2e}")

print("\nlog-log slope of the residual over two decades:")
xs = np.array([1e2, 1e3, 1e4])
for j in (3, 4, 5, 6):
    resid = [abs(touchard(j, x) / x ** j - 1 - j * (j - 1) / (2 * x)) for x in xs]
    slope = np.polyfit(np.log(xs), np.log(resid), 1)[0]
    print(f"  j = {j}: {slope:+.3f}   (the correction term is O(x^-2))")
print("  j = 2: exact -- T_2(x) = x^2 + x, so the asymptotic form has no error\n"
      "         and its residual above is exactly zero")
