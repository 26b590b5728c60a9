"""Expand the even product basis in the orthogonal family.

pi_n(x) = prod_{i<n} (x^2 - a^2 q^{2i}) has an explicit expansion
pi_n = sum_k e_k s_{2n-k}, and because L kills every s_m with m >= 1, the
constant-term coefficient e_{2n} IS the moment L(pi_n).  The five-term
relation that pushes the coefficients from level n to n+1 is what proves
the expansion by induction; both are checked here at a sample point.
"""

from fractions import Fraction as F

from qmoments import (
    Polynomial,
    QPoint,
    expansion_coeffs,
    induction_sides,
    product_basis,
    product_moment_sides,
    s_polynomials,
    same,
    value,
)

point = QPoint(F(1, 2), F(2))
n = 2

print(f"point {point}, level n = {n}")
# Each side comes split: integer coefficients over one denominator.
coeffs, den = product_basis(n, point)
pi = Polynomial(value((c, den)) for c in coeffs)
print(f"pi_{n} = {pi}")

row = expansion_coeffs(n, point)
print(f"expansion coefficients e_0..e_{2*n}: {[str(c) for c in row]}")

family = s_polynomials(2 * n, point)
rebuilt = sum((family[2 * n - k] * row[k] for k in range(2 * n + 1)), start=family[0] * 0)
print(f"sum_k e_k s_{{2n-k}} = {rebuilt}")
print(f"coefficientwise match: {rebuilt == pi}\n")

print("constant term vs closed-form product moment:")
print(f"  e_{2*n} = {row[2*n]}")
direct, closed = product_moment_sides(n, point)[0]
print(f"  L(pi_{n}) closed  = {value(closed)}")
print(f"  L(pi_{n}) direct  = {value(direct)}\n")

print("five-term induction relation at every admissible k:")
for level in range(4):
    verdicts = [same(lhs, rhs) for lhs, rhs in induction_sides(level, point)]
    print(f"  n={level}: {'all hold' if all(verdicts) else verdicts}")
