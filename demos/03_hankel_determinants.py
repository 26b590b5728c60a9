"""Hankel determinants of the closed-form moments collapse to a lambda product.

det(P_{i+j}(a))_{0<=i,j<=n} = prod_{i=1}^{n} lambda_i^{n+1-i}; the demo
evaluates both sides exactly, including the degenerate slice a = -q where
lambda_1 = 0 wipes out every determinant with n >= 1.
"""

from fractions import Fraction as F

from qmoments import QPoint, coeff_lambda, hankel_sides, moment_closed_form

point = QPoint(F(1, 2), F(2))
print(f"point {point}")
print("moments P_0..P_6:", [str(moment_closed_form(m, point)) for m in range(7)])
print()
for n in range(5):
    det, product = hankel_sides(n, point)
    print(f"  n={n}: det = {str(det):>28}  lambda-product = {str(product):>28}  equal: {det == product}")

degenerate = QPoint(F(3, 7), F(-3, 7))
print(f"\ndegenerate point {degenerate} (a = -q, so lambda_1 = {coeff_lambda(1, degenerate)}):")
for n in range(4):
    det, product = hankel_sides(n, degenerate)
    print(f"  n={n}: det = {det}, product = {product}, equal: {det == product}")
