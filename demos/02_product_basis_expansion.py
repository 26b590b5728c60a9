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
    induction_sides,
    product_basis,
    product_moment_sides,
    same,
    value,
)

point = QPoint(F(1, 2), F(2))
n = 2

print(f"point {point}, level n = {n}")
coeffs, den = product_basis(n, point)
print(f"pi_{n} = {Polynomial(value((c, den)) for c in coeffs)}")

# pi_n in the s-basis, (x^2 - a^2 q^{2n-2}) pi_{n-1} stepped by the
# recurrence, against the closed-form e^{(n)}: one pair per s_{2n-k}.
pairs = induction_sides(n - 1, point)
row = [value(e) for e, _ in pairs]
print(f"expansion coefficients e_0..e_{2*n}: {[str(c) for c in row]}")
stepped = [str(value(side)) for _, side in pairs]
print(f"pi_{n} in the s-basis, s_{2*n}..s_0:   {stepped}")
print(f"coefficientwise match: {all(same(*pair) for pair in pairs)}\n")

print("constant term vs closed-form product moment:")
print(f"  e_{2*n} = {row[2*n]}")
direct, closed = product_moment_sides(n, point)[0]
print(f"  L(pi_{n}) closed  = {value(closed)}")
print(f"  L(pi_{n}) direct  = {value(direct)}\n")

print("five-term induction relation at every admissible k:")
for level in range(4):
    verdicts = [same(lhs, rhs) for lhs, rhs in induction_sides(level, point)]
    print(f"  n={level}: {'all hold' if all(verdicts) else verdicts}")
