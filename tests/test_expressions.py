"""Expression trees: construction sugar, certified evaluation, contexts."""

from __future__ import annotations

from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, strategies as st

from psicert import (
    Add,
    Const,
    Digamma,
    Div,
    DomainError,
    EvalContext,
    Exp,
    Interval,
    Ln,
    Mul,
    NamedConstant,
    Neg,
    Polynomial,
    PowInt,
    RationalFunction,
    Sinh,
    Trigamma,
    Var,
    digamma_enclosure,
    evaluate,
    iv_pi,
    trigamma_enclosure,
)
from psicert.expressions import rational_function
from psicert.theorems import _M_expr, _X, _alpha, _beta, _digamma_tail_rf, _m_expr

from _oracles import (
    bstar_bracket,
    consistent,
    e_bracket,
    euler_gamma_bracket,
    mp_bracket,
)

F = Fraction
X = Var()


class TestEvalContext:
    def test_defaults(self):
        ctx = EvalContext()
        assert ctx.work_precision == 64

    def test_refined_doubles_the_precision(self):
        ctx = EvalContext(32).refined()
        assert ctx == EvalContext(64)

    def test_polygamma_width_follows_the_precision(self):
        """Up the ladder from 8 bits, psi and psi' nodes narrow to 2**-precision."""
        ctx = EvalContext(8)
        for _ in range(5):
            for node in (Digamma(X), Trigamma(X)):
                assert evaluate(node, F(29, 7), ctx).width <= F(1, 2**ctx.work_precision)
            ctx = ctx.refined()

    def test_validation(self):
        with pytest.raises(ValueError):
            EvalContext(work_precision=4)
        EvalContext(work_precision=8)


class TestArithmeticNodes:
    def test_rational_arithmetic_is_exact(self):
        expr = (X + 1) * (X - 1) - X**2
        enclosure = evaluate(expr, F(7, 3))
        assert enclosure == Interval.point(-1)

    def test_division(self):
        assert evaluate(1 / X, F(1, 4)) == Interval.point(4)

    def test_negative_power(self):
        assert evaluate(PowInt(X, -3), 2) == Interval.point(F(1, 8))

    def test_non_integer_power_rejected(self):
        with pytest.raises(TypeError):
            X ** F(1, 2)

    def test_int_mixing_creates_const_nodes(self):
        expr = 3 - X
        assert evaluate(expr, 1) == Interval.point(2)

    def test_division_through_zero_raises(self):
        with pytest.raises(DomainError):
            evaluate(1 / (Exp(X) - 1), 0)

    @given(
        st.fractions(min_value=F(-20), max_value=F(20), max_denominator=40),
        st.fractions(min_value=F(-5), max_value=F(5), max_denominator=12),
    )
    def test_polynomial_evaluation_matches_fractions(self, x, a):
        expr = a * X**2 + (a - 1) * X + 7
        expected = a * x * x + (a - 1) * x + 7
        assert evaluate(expr, x) == Interval.point(expected)


class TestTranscendentalNodes:
    def test_exp_ln_sinh_against_oracle(self):
        x = F(5, 4)
        mx = mpmath.mpf(5) / 4
        assert consistent(evaluate(Exp(X), x), mp_bracket(mpmath.exp(mx)))
        assert consistent(evaluate(Ln(X), x), mp_bracket(mpmath.log(mx)))
        assert consistent(evaluate(Sinh(X), x), mp_bracket(mpmath.sinh(mx)))

    def test_ln_of_negative_raises(self):
        with pytest.raises(DomainError):
            evaluate(Ln(X - 5), 2)

    def test_composite_against_oracle(self):
        # sinh(2/x)/2 - exp(1/(x+1)) + 1 at x = 3
        expr = Sinh(2 / X) / 2 - Exp(1 / (X + 1)) + 1
        truth = mp_bracket(
            mpmath.sinh(mpmath.mpf(2) / 3) / 2 - mpmath.exp(mpmath.mpf(1) / 4) + 1
        )
        assert consistent(evaluate(expr, 3, EvalContext(96)), truth)

    def test_precision_refinement_tightens(self):
        coarse = evaluate(Exp(X), F(1, 3), EvalContext(32))
        fine = evaluate(Exp(X), F(1, 3), EvalContext(128))
        assert coarse.encloses(fine)
        assert fine.width < coarse.width


class TestPolygammaNodes:
    @pytest.mark.parametrize("x", [F(1, 2), F(1), F(7, 2), F(25)], ids=str)
    def test_digamma_node_matches_library(self, x):
        ctx = EvalContext(128)
        assert evaluate(Digamma(X), x, ctx) == digamma_enclosure(x, 128)

    @pytest.mark.parametrize("x", [F(1, 2), F(1), F(7, 2), F(25)], ids=str)
    def test_trigamma_node_matches_library(self, x):
        ctx = EvalContext(128)
        assert evaluate(Trigamma(X), x, ctx) == trigamma_enclosure(x, 128)

    def test_nonpositive_argument_raises(self):
        with pytest.raises(DomainError):
            evaluate(Digamma(X), -2)
        with pytest.raises(DomainError):
            evaluate(Trigamma(X - 1), 1)

    def test_exp_of_digamma_composite(self):
        # (x + 1/2) exp(-2 psi(x+1)) at x = 2
        expr = (X + F(1, 2)) * Exp(-2 * Digamma(X + 1))
        truth = mp_bracket(mpmath.mpf(5) / 2 * mpmath.exp(-2 * mpmath.digamma(3)))
        assert consistent(evaluate(expr, 2, EvalContext(96)), truth)


class TestNamedConstants:
    def test_pi(self):
        assert evaluate(NamedConstant("pi"), 1) == iv_pi(64)

    def test_e(self):
        assert consistent(evaluate(NamedConstant("e"), 1), e_bracket(40))

    def test_euler_gamma(self):
        enclosure = evaluate(NamedConstant("euler_gamma"), 1, EvalContext(128))
        assert consistent(enclosure, euler_gamma_bracket())

    def test_batir_bstar(self):
        enclosure = evaluate(NamedConstant("batir_bstar"), 1, EvalContext(128))
        assert consistent(enclosure, bstar_bracket())
        assert enclosure.lo > F(1, 2)

    def test_trigamma_one(self):
        enclosure = evaluate(NamedConstant("trigamma_one"), 1)
        assert enclosure == trigamma_enclosure(1, 64)

    def test_unknown_name_rejected_at_construction(self):
        with pytest.raises(ValueError):
            NamedConstant("zeta3")

    def test_constants_ignore_the_evaluation_point(self):
        c = NamedConstant("pi")
        assert evaluate(c, 1) == evaluate(c, F(99, 7))


class TestConstNode:
    def test_const_wraps_exactly(self):
        assert evaluate(Const(F(22, 7)), 0) == Interval.point(F(22, 7))

    @given(st.integers(min_value=-100, max_value=100))
    def test_var_is_identity(self, n):
        assert evaluate(X, n) == Interval.point(n)


def _rational_trees() -> st.SearchStrategy:
    leaves = st.one_of(
        st.just(X),
        st.builds(Const, st.fractions(min_value=-5, max_value=5, max_denominator=7)),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(Add, children, children),
            st.builds(Neg, children),
            st.builds(Mul, children, children),
            st.builds(Div, children, children),
            st.builds(PowInt, children, st.integers(min_value=-3, max_value=3)),
        ),
        max_leaves=8,
    )


def _inv(k: int, scale: Fraction | int = 1) -> RationalFunction:
    """scale / x^k, the building block of the formerly hand-typed auxiliaries."""
    return RationalFunction(Polynomial.constant(F(scale)), Polynomial.x_power(k))


class TestRationalFunction:
    @given(
        _rational_trees(),
        st.fractions(min_value=-20, max_value=20, max_denominator=50),
    )
    def test_lowering_agrees_with_evaluation(self, tree, x):
        try:
            lowered = rational_function(tree)
        except ZeroDivisionError:
            assume(False)  # the tree divides by the zero function
        try:
            value = evaluate(tree, x)
        except DomainError:
            assume(False)  # the tree divides by zero at this x
        assert value.is_point
        assert value.lo == lowered(x)

    @pytest.mark.parametrize(
        "node",
        [
            Exp(X),
            Ln(X),
            Sinh(X),
            Digamma(X),
            Trigamma(X),
            NamedConstant("pi"),
        ],
        ids=lambda node: type(node).__name__,
    )
    def test_transcendental_nodes_raise_type_error(self, node):
        with pytest.raises(TypeError):
            rational_function(node)
        with pytest.raises(TypeError):
            rational_function(1 / X + node)

    def test_catalog_pieces_match_the_hand_typed_functions(self):
        x = RationalFunction.x()
        m = _inv(1) - _inv(4, F(1, 24)) + _inv(6, F(7, 360))
        assert rational_function(_X + _alpha()) == (
            x + F(1, 2) + _inv(3, F(1, 90)) - _inv(4, F(1, 60))
        )
        assert rational_function(_X + _beta()) == x + F(1, 2) + _inv(3, F(1, 90))
        assert rational_function(_m_expr()) == m
        assert rational_function(_M_expr()) == m + _inv(7, F(1, 90))

    def test_digamma_tail_keeps_its_deliberate_1_over_240(self):
        tail4 = _inv(1, F(1, 2)) - _inv(2, F(1, 12)) + _inv(4, F(1, 240))
        assert _digamma_tail_rf(4) == tail4
        assert _digamma_tail_rf(6) == tail4 - _inv(6, F(1, 252))
