"""Polynomial positivity certificates and log-rational derivative algebra.

The reference factorizations in ``TestDerivativeCrossChecks`` are fixed
closed forms of the derivatives of the five auxiliary comparison functions;
the certifier must reproduce each one exactly (as a canonical rational
function) from the unfactored expression tree.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from psicert import (
    LogRationalExpr,
    Polynomial,
    RationalFunction,
    certify_negative_on_ray,
    logexpr_derivative,
    logexpr_limit_at_infinity,
    poly_taylor_shift,
    positivity_on_ray,
    rational_from_expansion,
    trigamma_expansion,
)
from psicert.expressions import evaluate
from psicert.polycert import LimitClass, PositivityVerdict
from psicert.theorems import (
    _r1u_branch,
    _thm1_branches,
    _thm2_branches,
    _thm3a_lower_branch,
    entry,
)

F = Fraction


def P(*ascending) -> Polynomial:
    return Polynomial.from_coeffs([F(c) for c in ascending])


def coefficient_lists(bound, denominator, min_size, max_size):
    return st.lists(
        st.fractions(min_value=-bound, max_value=bound, max_denominator=denominator),
        min_size=min_size,
        max_size=max_size,
    )


class TestPolynomial:
    def test_trailing_zeros_trimmed(self):
        assert P(1, 2, 0, 0) == P(1, 2)
        assert P(0).is_zero

    def test_evaluation_and_degree(self):
        p = P(1, -3, 2)  # 2x^2 - 3x + 1
        assert p.degree == 2
        assert p(F(1, 2)) == 0
        assert p(2) == 3

    def test_ring_operations(self):
        p, q = P(1, 1), P(-1, 1)
        assert p * q == P(-1, 0, 1)
        assert p + q == P(0, 2)
        assert (p * q - P(-1)) == P(0, 0, 1)

    def test_divmod(self):
        quotient, remainder = divmod(P(-1, 0, 1), P(-1, 1))
        assert quotient == P(1, 1)
        assert remainder.is_zero

    @given(coefficient_lists(9, 8, 0, 6), coefficient_lists(9, 8, 1, 4).filter(any))
    def test_divmod_is_euclidean_division(self, a, b):
        dividend, divisor = Polynomial.from_coeffs(a), Polynomial.from_coeffs(b)
        quotient, remainder = divmod(dividend, divisor)
        assert quotient * divisor + remainder == dividend
        assert remainder.degree < divisor.degree

    def test_derivative(self):
        assert P(5, 4, 3).derivative() == P(4, 6)


class TestTaylorShift:
    def test_known_shift(self):
        # (x+1)^2 = x^2 + 2x + 1
        assert poly_taylor_shift(P(0, 0, 1), 1) == P(1, 2, 1)

    @given(
        coefficient_lists(9, 8, 0, 6),
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
        st.fractions(min_value=-9, max_value=9, max_denominator=10),
    )
    @example([3, -1, 0, 2], F(5, 3), F(0))
    @example([3, -1, 0, 2], F(5, 3), F(1))
    @example([3, -1, 0, 2], F(5, 3), F(-7, 2))
    def test_shift_is_evaluation(self, coeffs, s, x):
        p = Polynomial.from_coeffs(coeffs)
        assert poly_taylor_shift(p, s)(x) == p(x + s)

    @given(
        st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=8),
            min_size=1,
            max_size=6,
        ),
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
    )
    def test_shift_homomorphism(self, coeffs, s, t):
        p = Polynomial.from_coeffs(coeffs)
        once = poly_taylor_shift(poly_taylor_shift(p, s), t)
        at_once = poly_taylor_shift(p, s + t)
        assert once == at_once

    @given(
        st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=6),
            min_size=1,
            max_size=4,
        ),
        st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=6),
            min_size=1,
            max_size=4,
        ),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    )
    def test_shift_respects_products(self, a, b, s):
        p, q = Polynomial.from_coeffs(a), Polynomial.from_coeffs(b)
        assert poly_taylor_shift(p * q, s) == poly_taylor_shift(
            p, s
        ) * poly_taylor_shift(q, s)


class TestPositivity:
    def test_certifies_positive_after_shift(self):
        # x^2 - 4x + 5 = (x-2)^2 + 1 > 0; shifting by 3 exposes it
        assert (
            positivity_on_ray(P(5, -4, 1), 3) is PositivityVerdict.CERTIFIED_POSITIVE
        )

    def test_sign_change_stays_inconclusive(self):
        # x - 10 is negative on part of the ray x > 3
        assert positivity_on_ray(P(-10, 1), 3) is PositivityVerdict.INCONCLUSIVE

    def test_method_is_sufficient_not_complete(self):
        # (x-1)^2 is nonnegative on the whole line but its shifted-by-0
        # coefficients are not all nonnegative: expected inconclusive.
        assert positivity_on_ray(P(1, -2, 1), 0) is PositivityVerdict.INCONCLUSIVE

    def test_zero_polynomial_not_positive(self):
        assert positivity_on_ray(P(0), 1) is PositivityVerdict.INCONCLUSIVE


class TestRationalFunction:
    def test_canonical_reduction(self):
        ratio = RationalFunction(P(-1, 0, 1), P(-1, 1))  # (x^2-1)/(x-1)
        assert ratio == RationalFunction(P(1, 1), P(1))

    def test_monic_denominator_normalization(self):
        a = RationalFunction(P(2), P(0, 4))
        b = RationalFunction(P(1), P(0, 2))
        assert a == b
        assert a.den.leading == 1

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(P(1), P(0))

    def test_arithmetic(self):
        x = RationalFunction.x()
        expr = 1 / x + 1 / (x + 1)
        assert expr == RationalFunction(P(1, 2), P(0, 1, 1))

    def test_quotient_rule_derivative(self):
        x = RationalFunction.x()
        d = (1 / x).derivative()
        assert d == RationalFunction(P(-1), P(0, 0, 1))

    def test_limit_at_infinity(self):
        x = RationalFunction.x()
        assert (1 / x).limit_at_infinity() == 0
        assert ((2 * x + 1) / (x + 5)).limit_at_infinity() == 2
        assert (x * x).limit_at_infinity() is None

    def test_rational_from_expansion(self):
        rf = rational_from_expansion(trigamma_expansion(5))
        x = RationalFunction.x()
        expected = (
            1 / x
            - F(1, 2) / (x * x)
            + F(1, 6) / (x * x * x)
            - F(1, 30) / (x * x * x * x * x)
        )
        assert rf == expected


def folded_limit(e: LogRationalExpr) -> LimitClass:
    """Reference classifier: fold the log part into ``ln`` of one rational
    function, ``prod r_i^(c_i scale)``, whose limit is 1 exactly when its
    numerator and denominator share degree and leading coefficient."""
    if e.log_terms:
        scale = math.lcm(*(c.denominator for c, _ in e.log_terms))
        folded = RationalFunction.constant(1)
        for c, arg in e.log_terms:
            k = int(c * scale)
            if k != 0:
                folded = folded * arg**k
        if folded.num.is_zero or folded.num.degree != folded.den.degree:
            return LimitClass.DIVERGES
        if folded.num.leading != folded.den.leading:
            return LimitClass.DIVERGES
    rational_limit = e.rational_part.limit_at_infinity()
    if rational_limit is None:
        return LimitClass.DIVERGES
    return LimitClass.ZERO if rational_limit == 0 else LimitClass.FINITE_NONZERO


# Leading coefficients from a few values and degrees up to 2, so that the
# degrees and leading coefficients of the log part often cancel.
NONZERO_POLYS = st.builds(
    lambda low, lead: Polynomial.from_coeffs([*low, lead]),
    coefficient_lists(3, 3, 0, 2),
    st.sampled_from([F(1), F(2), F(1, 2), F(-1)]),
)
RATIONAL_FUNCTIONS = st.builds(RationalFunction, NONZERO_POLYS, NONZERO_POLYS)
LOG_COEFFICIENTS = st.sampled_from([F(c) for c in (0, 1, -1, 2, "1/2", "-1/2", "3/2")])
LOG_EXPRS = st.builds(
    LogRationalExpr,
    log_terms=st.lists(st.tuples(LOG_COEFFICIENTS, RATIONAL_FUNCTIONS), max_size=3).map(tuple),
    rational_part=RATIONAL_FUNCTIONS | st.just(RationalFunction.constant(0)),
)


class TestLogExpr:
    def test_derivative_of_pure_log(self):
        x = RationalFunction.x()
        expr = LogRationalExpr(log_terms=((F(3), x),), rational_part=x * 0)
        assert logexpr_derivative(expr) == 3 / x

    def test_limit_classification(self):
        x = RationalFunction.x()
        zero = LogRationalExpr(
            log_terms=((F(1), x + 1), (F(-1), x)), rational_part=1 / x
        )
        assert logexpr_limit_at_infinity(zero) is LimitClass.ZERO
        finite = LogRationalExpr(
            log_terms=((F(1), x + 1), (F(-1), x)),
            rational_part=(2 * x + 1) / (x + 1),
        )
        assert logexpr_limit_at_infinity(finite) is LimitClass.FINITE_NONZERO
        diverging_log = LogRationalExpr(log_terms=((F(1), x),), rational_part=x * 0)
        assert logexpr_limit_at_infinity(diverging_log) is LimitClass.DIVERGES
        diverging_rational = LogRationalExpr(log_terms=(), rational_part=x)
        assert logexpr_limit_at_infinity(diverging_rational) is LimitClass.DIVERGES
        # a true finite limit (ln 2) the classifier cannot certify is
        # reported conservatively as DIVERGES, never as ZERO
        transcendental = LogRationalExpr(
            log_terms=((F(1), 2 * x), (F(-1), x + 1)), rational_part=x * 0
        )
        assert logexpr_limit_at_infinity(transcendental) is LimitClass.DIVERGES

    def test_fractional_log_coefficients_classify_conservatively(self):
        x = RationalFunction.x()
        # (1/2) ln((x+1)/x) -> 0; the leading coefficients are compared in
        # integer powers through the common denominator, which still must
        # reach ZERO here
        expr = LogRationalExpr(log_terms=((F(1, 2), (x + 1) / x),), rational_part=x * 0)
        assert logexpr_limit_at_infinity(expr) is LimitClass.ZERO

    @given(LOG_EXPRS)
    def test_limit_class_matches_the_folded_reference(self, expr):
        assert logexpr_limit_at_infinity(expr) is folded_limit(expr)


# --- reference factorizations of the auxiliary-function derivatives --------

A_NUM = P(
    162974708124,
    783944661553,
    1690072075536,
    2175691772642,
    1873185114060,
    1141703970759,
    507517074474,
    166700796732,
    40457327085,
    7160223140,
    896904120,
    75109720,
    3753750,
    84000,
)
B_DEN = P(1173161, 3188649, 3792857, 2578821, 1096193, 298305, 50750, 4935, 210)
C_NUM = P(
    183168418,
    663679092,
    1030441127,
    909421185,
    506070905,
    184933335,
    44510545,
    6818475,
    604200,
    23625,
)
D_DEN = P(130352, 267393, 228683, 104370, 26810, 3675, 210)
E_NUM = P(1290163, 6074127, 9865371, 8229303, 4032099, 1212855, 221130, 22485, 980)
F_NUM = P(
    6106987838,
    20135221233,
    29624987873,
    25626153678,
    14437981040,
    5537745108,
    1464790565,
    263913573,
    31007240,
    2146155,
    66495,
)
G_DEN = P(
    5765861, 16660569, 21398207, 16033731, 7724423, 2481255, 531440, 73185, 5880, 210
)
H_DEN = P(
    570820414,
    2029943157,
    3281444518,
    3182887290,
    2058324400,
    931827204,
    301344043,
    69614160,
    11258170,
    1213905,
    78540,
    2310,
)
P_POLY = P(-1, 1057, -798, 210, 840, -2520, 5040, 5040)
Q_POLY = P(8868, 56371, 161112, 255570, 240240, 133560, 40320, 5040)

X7 = Polynomial.x_power(7)
X5 = Polynomial.x_power(5)
X8 = Polynomial.x_power(8)
QUINTIC = P(-3, 2, 0, 0, 90, 180)  # 180x^5 + 90x^4 + 2x - 3
QUARTIC = P(1, 0, 0, 45, 90)  # 90x^4 + 45x^3 + 1


def shifted(p: Polynomial, s: int) -> Polynomial:
    """p(x - s), for writing factorizations given around a shifted origin."""
    return poly_taylor_shift(p, -s)


class TestDerivativeCrossChecks:
    def test_thm1_lower_auxiliary_derivative(self):
        aux = _thm1_branches()[0][1]
        reference = RationalFunction(
            shifted(A_NUM, 3), X7 * QUINTIC * shifted(B_DEN, 3) * 105
        )
        assert logexpr_derivative(aux) == reference

    def test_thm1_upper_auxiliary_derivative(self):
        aux = _thm1_branches()[1][1]
        reference = RationalFunction(
            shifted(C_NUM, 3), X5 * QUARTIC * shifted(D_DEN, 3) * 15
        )
        assert logexpr_derivative(aux) == reference

    def test_thm2_lower_auxiliary_derivative(self):
        aux = _thm2_branches()[0][1]
        reference = RationalFunction(shifted(E_NUM, 3), X7 * shifted(G_DEN, 3) * 60)
        assert logexpr_derivative(aux) == reference

    def test_thm2_upper_auxiliary_derivative(self):
        # the branch stores the negated upper comparison, so its derivative
        # is +F(x-3) / (180 x^8 H(x-3))
        aux = _thm2_branches()[1][1]
        reference = RationalFunction(shifted(F_NUM, 3), X8 * shifted(H_DEN, 3) * 180)
        assert logexpr_derivative(aux) == reference

    def test_thm3a_lower_auxiliary_derivative_two_presentations(self):
        aux = _thm3a_lower_branch()[0][1]
        x = Polynomial.x_power(1)
        den_p = x * poly_taylor_shift(Polynomial.x_power(2), 1) * P_POLY
        reference = RationalFunction(P(-7, 6329, 7630), den_p)
        assert logexpr_derivative(aux) == reference
        den_q = x * poly_taylor_shift(Polynomial.x_power(2), 1) * shifted(Q_POLY, 1)
        alt = RationalFunction(
            poly_taylor_shift(P(13952, 21589, 7630), -1), den_q
        )
        assert logexpr_derivative(aux) == alt

    def test_thm3a_log_argument_is_p_over_5040_x7(self):
        aux = _thm3a_lower_branch()[0][1]
        coefficient, argument = aux.log_terms[0]
        assert coefficient == -1
        assert argument == RationalFunction(P_POLY, X7 * 5040)

    def test_q_is_p_shifted_by_one(self):
        assert poly_taylor_shift(P_POLY, 1) == Q_POLY

    def test_r1u_derivative(self):
        aux = _r1u_branch()[0][1]
        t_num = P(-3, -4, 4, 0, 450, 1080, -120)
        reference = RationalFunction(t_num, X5 * P(1, 2) * QUINTIC * 30)
        assert logexpr_derivative(aux) == reference


class TestCertificates:
    @pytest.mark.parametrize("index, label", [(0, "lower"), (1, "upper")])
    def test_thm1_branches_certify(self, index, label):
        _, aux, threshold = _thm1_branches()[index]
        report = certify_negative_on_ray(aux, threshold)
        assert report.certified, label
        assert all(step.verdict == "ok" for step in report.steps)

    @pytest.mark.parametrize("index", [0, 1])
    def test_thm2_branches_certify(self, index):
        _, aux, threshold = _thm2_branches()[index]
        assert certify_negative_on_ray(aux, threshold).certified

    def test_thm3a_lower_certifies_from_one(self):
        _, aux, threshold = _thm3a_lower_branch()[0]
        assert threshold == 1
        assert certify_negative_on_ray(aux, threshold).certified

    def test_r1u_certificate_honestly_fails(self):
        """The claimed-negative function changes sign, so no ray certificate
        can exist; the failing step must be the derivative numerator."""
        _, aux, threshold = _r1u_branch()[0]
        report = certify_negative_on_ray(aux, threshold)
        assert not report.certified
        failing = report.failures()
        assert [step.label for step in failing] == ["derivative numerator positive"]

    def test_r1u_function_really_changes_sign(self):
        """On the catalog's own R1U tree, the function of ``_r1u_branch``
        (whose derivative ``test_r1u_derivative`` pins)."""
        u = entry("R1U").pairs[0].lhs
        assert evaluate(u, F(7), 96).strictly_negative()
        assert evaluate(u, F(8), 96).strictly_positive()

    def test_certificate_transcript_shape(self):
        _, aux, threshold = _thm3a_lower_branch()[0]
        report = certify_negative_on_ray(aux, threshold)
        labels = [step.label for step in report.steps]
        assert "derivative numerator positive" in labels
        assert "limit at infinity is zero" in labels
        assert all("x -> x+1" in step.detail or "classified" in step.detail
                   for step in report.steps)
