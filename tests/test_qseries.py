from fractions import Fraction

import pytest

from qmoments import (
    InvalidInputError,
    QPoint,
    binom2,
    pochhammer,
    qbinom,
    qbinomial_theorem_sides,
    qvandermonde_limit_sides,
    same,
    value,
)

F = Fraction

SAMPLE_BASES = [F(1, 2), F(-3, 5), F(7, 3), F(2), F(-2)]


def test_pochhammer_examples():
    assert pochhammer(F(1, 3), F(1, 2), 0) == 1
    assert pochhammer(-2, F(1, 2), 2) == 6
    assert pochhammer(F(1, 2), F(1, 4), 2) == F(7, 16)


def test_pochhammer_errors():
    with pytest.raises(InvalidInputError):
        pochhammer(1, 0, 3)
    with pytest.raises(InvalidInputError):
        pochhammer(1, F(1, 2), -1)


def test_pochhammer_splits_multiplicatively():
    c, base = F(2, 3), F(1, 2)
    for m in range(5):
        for n in range(5):
            assert pochhammer(c, base, m + n) == pochhammer(c, base, m) * pochhammer(
                c * base**m, base, n
            )


def test_qbinom_examples():
    assert qbinom(5, 0, F(1, 2)) == 1
    assert qbinom(2, 1, F(1, 2)) == F(3, 2)
    assert qbinom(3, 1, F(1, 2)) == F(7, 4)
    assert qbinom(3, -1, F(1, 2)) == 0
    assert qbinom(3, 4, F(1, 2)) == 0


def test_qbinom_errors():
    for bad in (0, 1, -1):
        with pytest.raises(InvalidInputError):
            qbinom(3, 1, bad)
    with pytest.raises(InvalidInputError):
        qbinom(-1, 0, F(1, 2))


@pytest.mark.parametrize("base", SAMPLE_BASES)
def test_qbinom_symmetry(base):
    for n in range(21):
        for k in range(n + 1):
            assert qbinom(n, k, base) == qbinom(n, n - k, base)


@pytest.mark.parametrize("base", SAMPLE_BASES)
def test_qbinom_pascal(base):
    for n in range(1, 21):
        for k in range(1, n + 1):
            assert qbinom(n, k, base) == qbinom(n - 1, k - 1, base) + base**k * qbinom(
                n - 1, k, base
            )


@pytest.mark.parametrize("base", [2, 3, 5])
def test_qbinom_integer_base_gives_integers(base):
    for n in range(13):
        for k in range(n + 1):
            assert qbinom(n, k, F(base)).denominator == 1


def test_qbinomial_theorem_hand_example():
    point = QPoint(F(1, 2), F(2))
    lhs, rhs = map(value, qbinomial_theorem_sides(2, point))
    assert lhs == rhs == 6
    assert tuple(map(value, qbinomial_theorem_sides(0, point))) == (1, 1)


def test_qbinomial_theorem_sampled(small_points):
    for point in small_points:
        for m in range(21):
            lhs, rhs = qbinomial_theorem_sides(m, point)
            assert same(lhs, rhs)


@pytest.mark.parametrize(
    "point",
    [
        QPoint(F(1, 2), F(2)),
        QPoint(F(-3, 4), F(0)),
        QPoint(F(5, 7), F(-9, 4)),
        QPoint(F(-736, 549), F(-546, 521)),
    ],
    ids=["reference", "a=0", "negative a", "height 1000"],
)
def test_qbinomial_theorem_each_side_matches_oracle(point):
    # Each side on its own, so a denominator shared wrongly by both fails.
    q, a = point.q, point.a
    for m in range(31):
        lhs, rhs = map(value, qbinomial_theorem_sides(m, point))
        terms = (qbinom(m, p, q) * q ** binom2(p) * a**p for p in range(m + 1))
        assert lhs == sum(terms, F(0)), m
        assert rhs == pochhammer(-a, q, m), m


def test_qvandermonde_hand_example():
    point = QPoint(F(1, 2), 0)
    lhs, rhs = map(value, qvandermonde_limit_sides(2, point))
    assert lhs == rhs == F(4, 3)
    assert tuple(map(value, qvandermonde_limit_sides(0, point))) == (1, 1)


def test_qvandermonde_sampled(small_points):
    for point in small_points:
        for p in range(21):
            lhs, rhs = map(value, qvandermonde_limit_sides(p, point))
            assert lhs == rhs


def test_qvandermonde_closed_form_brute_force_p6():
    # Re-derivation of the right side by direct summation before relying on it.
    for q in (F(1, 2), F(-2, 7), F(5, 3), F(-4)):
        for p in range(7):
            total = F(0)
            for k in range(p // 2 + 1):
                term = q ** (2 * binom2(k)) / (
                    pochhammer(q * q, q * q, k) * pochhammer(q, q, p - 2 * k)
                )
                total += -term if k % 2 else term
            assert total == q ** binom2(p) / pochhammer(q, q, p)


def _series_with_inner_sum(n, eps, q, a):
    # (q^2;q^2)_n sum_p a^p / (q;q)_{2n+eps-p} * (inner alternating k-sum)
    q2 = q * q
    total = F(0)
    for p in range(2 * n + eps + 1):
        inner = F(0)
        for k in range(p // 2 + 1):
            term = q ** (2 * binom2(k)) / (
                pochhammer(q2, q2, k) * pochhammer(q, q, p - 2 * k)
            )
            inner += -term if k % 2 else term
        total += a**p / pochhammer(q, q, 2 * n + eps - p) * inner
    return pochhammer(q2, q2, n) * total


def _series_with_closed_sum(n, eps, q, a):
    # (1/(q;q^2)_{n+eps}) sum_p a^p [2n+eps p]_q q^{C(p,2)}
    total = F(0)
    for p in range(2 * n + eps + 1):
        total += a**p * qbinom(2 * n + eps, p, q) * q ** binom2(p)
    return total / pochhammer(q, q * q, n + eps)


def test_qvandermonde_closed_form_matches_series_rewrite():
    # The two ways of organizing the double series agree, which is what
    # forces the closed form for the inner k-sum.
    for q, a in ((F(1, 2), F(2)), (F(-2, 3), F(3, 4)), (F(3), F(-5))):
        for n in range(4):
            for eps in (0, 1):
                assert _series_with_inner_sum(n, eps, q, a) == _series_with_closed_sum(
                    n, eps, q, a
                )


def test_checker_preconditions():
    with pytest.raises(InvalidInputError):
        qvandermonde_limit_sides(3, QPoint(1, 0))
    with pytest.raises(InvalidInputError):
        qvandermonde_limit_sides(-1, QPoint(F(1, 2), 0))
    with pytest.raises(InvalidInputError):
        qbinomial_theorem_sides(-1, QPoint(F(1, 2), F(2)))
