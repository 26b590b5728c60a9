"""Continuous q-Hermite polynomials in Laurent form and their tie to the moments.

With t standing for the unit-circle variable, H_n(t) = sum_k [n k]_q t^{2k-n}
is palindromic, satisfies H_{n+1} = (t + 1/t) H_n - (1 - q^n) H_{n-1}, and
rescales into the closed-form moments through a = t^2:

    (q;q^2)_{floor((n+1)/2)} P_n(t^2) = t^n H_n(t).
"""

from fractions import Fraction as F

from qmoments import (
    QPoint,
    connection_sides,
    hermite_laurent,
    hermite_recurrence_sides,
    same,
)

q = F(1, 2)
point = QPoint(q, 0)  # these functions read q alone
print(f"q = {q}\n")
for n in range(5):
    poly = hermite_laurent(n, point)
    palindromic = all(c == poly.coefficient(-e) for e, c in poly.coeffs.items())
    print(f"  H_{n}(t) = {poly}   palindromic: {palindromic}")


def recurrence_holds(n):
    # The right side comes as one split pair per power of t.
    lhs, rhs = hermite_recurrence_sides(n, point)
    exponents = lhs.coeffs.keys() | rhs.keys()
    return all(same(lhs.coefficient(e), rhs.get(e, 0)) for e in exponents)


holds = all(recurrence_holds(n) for n in range(1, 13))
print("\nthree-term recurrence, n = 1..12:", holds)

t0 = F(2)
print(f"\nconnection identity at t = {t0}:")
for n in range(6):
    lhs, rhs = connection_sides(n, t0, point)
    print(f"  n={n}: normalized P_{n}(t^2) = {str(lhs):>12}   t^n H_n(t) = {str(rhs):>12}")
