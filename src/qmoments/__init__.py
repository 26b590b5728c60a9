"""Exact-arithmetic verification of a q-Hermite moment family.

The library constructs a monic orthogonal polynomial family from an explicit
three-term recurrence in two rational parameters (q, a), computes its moment
functional two independent ways, and machine-verifies, over exact rational
points, that the moments equal normalized continuous q-Hermite values:

    mu_n = P_n(a) = (1 / (q;q^2)_{floor((n+1)/2)}) sum_k [n k]_q a^k.

Supporting identities are verified the same way: the expansion of the even
product basis prod (x^2 - a^2 q^{2i}) in the family, the five-term relation
that proves it by induction, the resulting closed forms for the product
moments, the Hankel determinant evaluation det(P_{i+j}) = prod lambda_i^{n+1-i},
and the q-Hermite three-term recurrence and connection identity.

Every input becomes an exact ``fractions.Fraction`` once, at the boundary
(``QPoint``, ``parse_rational``), and the evaluation code runs on whatever
scalar its point holds (see ``qmoments.context``).  There is no floating
point and no tolerance anywhere, so each passing check is an exact proof at
its point, and a degree-bound grid of passing points proves an identity as a
rational function (see ``qmoments.degrees``).
"""

from ._version import __version__
from .context import PointContext, QTables, same, value
from .degrees import Budget, IDENTITY_IDS, degree_bound
from .errors import InvalidInputError
from .expansion import (
    expansion_coeffs,
    expansion_sides,
    induction_sides,
    theorem_identities,
)
from .hankel import exact_determinant, hankel_sides
from .moments import (
    moment_closed_form,
    moments_via_basis,
    product_basis,
    product_moment_sides,
)
from .points import QPoint, validate_q
from .polynomials import LaurentPolynomial, Polynomial
from .qhermite import (
    connection_sides,
    hermite_laurent,
    hermite_recurrence_sides,
)
from .qseries import (
    binom2,
    pochhammer,
    qbinom,
    qbinomial_theorem_sides,
    qvandermonde_limit_sides,
)
from .rationals import as_rational, parse_rational
from .recurrence import coeff_b, coeff_lambda, s_polynomial, s_polynomials
from .report import (
    Counterexample,
    IdentityRecord,
    SuiteConfig,
    VerificationReport,
    emit_report,
)
from .sampling import SplitMix64, sample_points
from .suites import DEFAULT_NMAX, SUITE_IDS, run_suite

__all__ = [
    "__version__",
    "Budget",
    "Counterexample",
    "DEFAULT_NMAX",
    "IDENTITY_IDS",
    "IdentityRecord",
    "InvalidInputError",
    "LaurentPolynomial",
    "PointContext",
    "Polynomial",
    "QPoint",
    "QTables",
    "SUITE_IDS",
    "SplitMix64",
    "SuiteConfig",
    "VerificationReport",
    "as_rational",
    "binom2",
    "coeff_b",
    "coeff_lambda",
    "connection_sides",
    "degree_bound",
    "emit_report",
    "exact_determinant",
    "expansion_coeffs",
    "expansion_sides",
    "hankel_sides",
    "hermite_laurent",
    "hermite_recurrence_sides",
    "induction_sides",
    "moment_closed_form",
    "moments_via_basis",
    "parse_rational",
    "pochhammer",
    "product_basis",
    "product_moment_sides",
    "qbinom",
    "qbinomial_theorem_sides",
    "qvandermonde_limit_sides",
    "run_suite",
    "s_polynomial",
    "s_polynomials",
    "same",
    "sample_points",
    "theorem_identities",
    "validate_q",
    "value",
]
