"""Build the orthogonal family at one parameter point and watch its moments
land on the closed form.

The family s_n lives on the recurrence s_{n+1} = (x - b_n) s_n - lambda_n
s_{n-1}; its moment functional L is pinned down by L(1) = 1, L(s_n) = 0.
The punchline is that the power moments mu_n = L(x^n) coincide with the
normalized q-Hermite values P_n(a), exactly, at every admissible (q, a).
"""

from fractions import Fraction as F

from qmoments import (
    PointContext,
    QPoint,
    coeff_b,
    coeff_lambda,
    moment_closed_form,
    s_polynomials,
    value,
)

point = QPoint(F(1, 2), F(2))
print(f"parameter point: {point}\n")

print("recurrence coefficients:")
for n in range(5):
    # Each coefficient comes as a reduced pair (num, den); value() reads it.
    lam = value(coeff_lambda(n, point)) if n >= 1 else "-"
    print(f"  b_{n} = {value(coeff_b(n, point))}    lambda_{n} = {lam}")

print("\nfirst orthogonal polynomials:")
for n, poly in enumerate(s_polynomials(4, point)):
    print(f"  s_{n} = {poly}")

N = 10
mu = [value(m) for m in PointContext(point).moments(N)]
print(f"\nmoments by the power table against the closed form, n <= {N}:")
for n in range(N + 1):
    closed = value(moment_closed_form(n, point))
    marker = "ok" if mu[n] == closed else "MISMATCH"
    print(f"  mu_{n:<2} = {str(mu[n]):>22}  = P_{n}(a): {marker}")

print("\nEvery equality above is exact rational arithmetic; no tolerances.")
