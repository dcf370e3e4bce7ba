"""Expression trees: construction sugar, certified evaluation, contexts."""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from psicert import (
    Add,
    Const,
    Digamma,
    Div,
    DomainError,
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
from psicert.elementary import _climb, iv_exp, iv_ln, iv_sinh
from psicert.expressions import _CONSTANTS, rational_function
from psicert.interval import ROUNDING_GUARD_BITS, round_outward
from psicert.polygamma import _reciprocal_sum, _shift_count, _truncation
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


def on_node_grid(enclosure: Interval, precision: int = 64) -> bool:
    """Both endpoints' denominators divide ``2**(precision + G)``."""
    grid = 1 << (precision + ROUNDING_GUARD_BITS)
    return grid % enclosure.lo.denominator == 0 and grid % enclosure.hi.denominator == 0


def is_short_point(value: Fraction, precision: int = 64) -> bool:
    """``value = a/b`` in lowest terms has ``b < 2**s`` and ``|a| < 2**(2s)``, ``s = precision + G``."""
    s = precision + ROUNDING_GUARD_BITS
    return value.denominator < 2**s and abs(value.numerator) < 2 ** (2 * s)


def follows_node_rule(enclosure: Interval, precision: int = 64) -> bool:
    """A node's result is a short point, kept exact, or has both ends on the node grid."""
    if enclosure.is_point and is_short_point(enclosure.lo, precision):
        return True
    return on_node_grid(enclosure, precision)


class TestEvalContext:
    """An evaluation's context is its precision: the plain bit count ``bits``."""

    def test_defaults(self):
        for node in (Digamma(X), Trigamma(X)):
            assert evaluate(node, F(29, 7)) == evaluate(node, F(29, 7), 64)
            assert evaluate(node, F(29, 7)) != evaluate(node, F(29, 7), 128)

    def test_refined_doubles_the_precision(self):
        """One rung of the refinement climb from 32 bits evaluates at 64."""
        node = Digamma(X)
        bits, enclosure = _climb(32, 64, lambda b: evaluate(node, F(29, 7), b), lambda v: False)
        assert (bits, enclosure) == (64, evaluate(node, F(29, 7), 64))

    def test_polygamma_width_follows_the_precision(self):
        """Up the ladder from 8 bits, psi and psi' nodes narrow to 2**-bits."""
        for bits in (8, 16, 32, 64, 128):
            for node in (Digamma(X), Trigamma(X)):
                assert evaluate(node, F(29, 7), bits).width <= F(1, 2**bits)

    def test_validation(self):
        with pytest.raises(ValueError, match="work precision must be at least 8"):
            evaluate(X, F(29, 7), 4)
        evaluate(X, F(29, 7), 8)


class TestArithmeticNodes:
    @pytest.mark.parametrize("precision", [8, 64, 200])
    def test_rational_arithmetic_contains_the_exact_value(self, precision):
        """The result contains the exact value, -1, in a width near the node
        grid's step: at a short x every node's value is that exact point."""
        expr = (X + 1) * (X - 1) - X**2
        enclosure = evaluate(expr, F(7, 3), precision)
        assert -1 in enclosure
        assert on_node_grid(enclosure, precision)
        assert enclosure.width <= F(1, 2 ** (precision + 56))

    def test_dyadic_arithmetic_stays_exact(self):
        """Values already on the node grid are not rounded."""
        assert evaluate((X + 1) * (X - 1) - X**2, F(7, 4)) == Interval.point(-1)

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
        """The enclosure contains the exact ``Fraction`` value.  Every node's
        value is a short point here, so each is kept exact, and so is the result."""
        expr = a * X**2 + (a - 1) * X + 7
        expected = a * x * x + (a - 1) * x + 7
        enclosure = evaluate(expr, x)
        assert expected in enclosure
        assert follows_node_rule(enclosure)
        assert enclosure == Interval.point(expected)

    def test_var_point_is_never_rounded_onto_zero(self):
        """A tiny positive x keeps its lower end, so psi sees a positive argument."""
        x = F(1, 10**300)
        step = F(1, 2 ** (64 + ROUNDING_GUARD_BITS))  # one step of the grid
        enclosure = evaluate(X, x)
        assert enclosure.lo == x and enclosure.hi == step
        assert evaluate(-X, x).hi == -x
        assert evaluate(X, -x) == Interval(-step, -x)
        assert evaluate(Digamma(X), x).lo < -(10**299)


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
        assert consistent(evaluate(expr, 3, 96), truth)

    def test_precision_refinement_tightens(self):
        coarse = evaluate(Exp(X), F(1, 3), 32)
        fine = evaluate(Exp(X), F(1, 3), 128)
        assert coarse.encloses(fine)
        assert fine.width < coarse.width


class TestPolygammaNodes:
    @pytest.mark.parametrize("x", [F(1, 2), F(1), F(7, 2), F(25)], ids=str)
    def test_digamma_node_matches_library(self, x):
        """At a dyadic x the node is the library's enclosure rounded outward
        onto the node grid, so it contains it."""
        enclosure = evaluate(Digamma(X), x, 128)
        assert enclosure == round_outward(digamma_enclosure(x, 128), 128)
        assert enclosure.encloses(digamma_enclosure(x, 128))
        assert on_node_grid(enclosure, 128)

    @pytest.mark.parametrize("x", [F(1, 2), F(1), F(7, 2), F(25)], ids=str)
    def test_trigamma_node_matches_library(self, x):
        """As for psi: the library's enclosure, rounded outward onto the node grid."""
        enclosure = evaluate(Trigamma(X), x, 128)
        assert enclosure == round_outward(trigamma_enclosure(x, 128), 128)
        assert enclosure.encloses(trigamma_enclosure(x, 128))
        assert on_node_grid(enclosure, 128)

    def test_nonpositive_argument_raises(self):
        with pytest.raises(DomainError):
            evaluate(Digamma(X), -2)
        with pytest.raises(DomainError):
            evaluate(Trigamma(X - 1), 1)

    def test_exp_of_digamma_composite(self):
        # (x + 1/2) exp(-2 psi(x+1)) at x = 2
        expr = (X + F(1, 2)) * Exp(-2 * Digamma(X + 1))
        truth = mp_bracket(mpmath.mpf(5) / 2 * mpmath.exp(-2 * mpmath.digamma(3)))
        assert consistent(evaluate(expr, 2, 96), truth)


class TestNamedConstants:
    def test_pi(self):
        assert evaluate(NamedConstant("pi"), 1) == iv_pi(64)

    def test_e(self):
        assert consistent(evaluate(NamedConstant("e"), 1), e_bracket(40))

    def test_euler_gamma(self):
        enclosure = evaluate(NamedConstant("euler_gamma"), 1, 128)
        assert consistent(enclosure, euler_gamma_bracket())

    def test_batir_bstar(self):
        enclosure = evaluate(NamedConstant("batir_bstar"), 1, 128)
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
        """The enclosure contains the lowered function's value at x.  It is
        that value exactly, if it is a short point, or has both ends on the
        node grid."""
        try:
            lowered = rational_function(tree)
        except ZeroDivisionError:
            assume(False)  # the tree divides by the zero function
        try:
            value = evaluate(tree, x)
        except DomainError:
            assume(False)  # the tree divides by zero at this x
        assert lowered(x) in value
        root = tree
        while isinstance(root, Neg):
            root = root.arg
        if not isinstance(root, Const):  # every other node keeps a short point or rounds
            assert follows_node_rule(value)

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


def _snap(iv: Interval, bits: int) -> Interval:
    """``iv`` rounded outward onto the one grid ``2**-(bits + G)``, except an end that
    rounding takes onto or across zero, which stays exact."""
    snapped = round_outward(iv, bits)
    lo = iv.lo if (snapped.lo <= 0 < iv.lo) else snapped.lo
    hi = iv.hi if (snapped.hi >= 0 > iv.hi) else snapped.hi
    return Interval(lo, hi)


def _reference(expr, x: Fraction, precision: int) -> Interval:
    """The node semantics in exact ``Interval`` arithmetic: each rounding node
    keeps its exact result if that is a short point, and takes it through
    ``round_outward`` onto the node grid if not; ``Var`` is ``x`` if short,
    and ``x`` snapped onto the node grid if not."""

    def outward(iv: Interval) -> Interval:
        if iv.is_point and is_short_point(iv.lo, precision):
            return iv
        return round_outward(iv, precision)

    def ev(node) -> Interval:
        match node:
            case Const(value):
                return Interval.point(value)
            case Var():
                if is_short_point(x, precision):
                    return Interval.point(x)
                return _snap(Interval.point(x), precision)
            case Add(left, right):
                return outward(ev(left) + ev(right))
            case Mul(left, right):
                return outward(ev(left) * ev(right))
            case Div(num, den):
                return outward(ev(num) / ev(den))
            case Neg(arg):
                return -ev(arg)
            case PowInt(base, exponent):
                return outward(ev(base) ** exponent)
            case Exp(arg):
                return iv_exp(ev(arg), precision)
            case Ln(arg):
                return iv_ln(ev(arg), precision)
            case Sinh(arg):
                return iv_sinh(ev(arg), precision)
            case Digamma(arg):
                iv = ev(arg)
                if iv.lo <= 0:
                    raise DomainError(f"digamma argument must be positive, got {iv}")
                lo = digamma_enclosure(iv.lo, precision)
                hi = lo if iv.is_point else digamma_enclosure(iv.hi, precision)
                return outward(Interval(lo.lo, hi.hi))
            case Trigamma(arg):
                iv = ev(arg)
                if iv.lo <= 0:
                    raise DomainError(f"trigamma argument must be positive, got {iv}")
                hi = trigamma_enclosure(iv.lo, precision)
                lo = hi if iv.is_point else trigamma_enclosure(iv.hi, precision)
                return outward(Interval(lo.lo, hi.hi))
            case NamedConstant(name):
                return _CONSTANTS[name](precision)
        raise TypeError(node)

    return ev(expr)


def _node_trees() -> st.SearchStrategy:
    """Trees over every node kind.  exp and sinh take ``c / (t**2 + 1)``,
    which lies in ``[-|c|, |c|]`` however wide ``t`` is, so no tree asks
    for an exponential far beyond 64 bits."""
    consts = st.builds(  # non-dyadic ones lie off the node grid
        Fraction, st.integers(min_value=-35, max_value=35), st.sampled_from([1, 3, 4, 7, 12, 1000])
    )
    leaves = st.one_of(
        st.just(X),
        st.builds(Const, consts),
        st.builds(NamedConstant, st.sampled_from(sorted(_CONSTANTS))),
    )

    def bounded(c: Fraction, t) -> Div:
        return Div(Const(c), Add(PowInt(t, 2), Const(F(1))))

    def nodes(children: st.SearchStrategy) -> st.SearchStrategy:
        exponent_argument = st.builds(bounded, consts, children) | st.just(X)
        return st.one_of(
            st.builds(Add, children, children),
            st.builds(Neg, children),
            st.builds(Mul, children, children),
            st.builds(Div, children, children),
            st.builds(Div, children, st.builds(Neg, children)),
            st.builds(PowInt, children, st.integers(min_value=-3, max_value=3)),
            st.builds(Exp, exponent_argument),
            st.builds(Sinh, exponent_argument),
            st.builds(Ln, children),
            st.builds(Digamma, children),
            st.builds(Trigamma, children),
        )

    return st.recursive(leaves, nodes, max_leaves=6)


_POINTS = st.one_of(
    st.integers(min_value=-(50 * 10**6), max_value=50 * 10**6).map(lambda n: F(n, 10**6)),
    st.integers(min_value=-(2**134), max_value=2**134).map(lambda n: F(n, 2**128)),
    st.just(F(1, 10**300)),
)


class TestIntegerNodes:
    """Integer ends give the enclosures of exact arithmetic rounded once per node."""

    @settings(max_examples=150)
    @given(_node_trees(), _POINTS, st.sampled_from([8, 64, 200]))
    @example(Mul(Const(F(1, 3)), X), F(7, 3), 8)
    @example(Div(X, Neg(Add(X, Const(F(1, 3))))), F(1, 10**300), 64)
    @example(PowInt(Add(X, Const(F(-1, 3))), -3), F(333333, 10**6), 200)
    @example(Digamma(Add(X, Const(F(-1, 7)))), F(1, 10**6), 8)
    def test_evaluate_matches_exact_reference(self, tree, x, precision):
        try:
            expected = _reference(tree, x, precision)
        except ValueError as exc:  # DomainError, or an exp argument out of range
            with pytest.raises(type(exc)) as raised:
                evaluate(tree, x, precision)
            assert type(raised.value) is type(exc)
            assert str(raised.value) == str(exc)
            return
        assert evaluate(tree, x, precision) == expected


def _fraction_psi_sum(power: int, x: Fraction, bits: int) -> Interval:
    """The exact sum that the psi (power 1) or psi' (power 2) kernel rounds:
    ``ln y`` (psi only), the enveloped window and the recurrence sum, added
    in ``Fraction`` arithmetic, as the kernels returned it unrounded."""
    w = bits + 2
    n = _shift_count(x, w)
    y = x + n - 1
    *kept, (k, c) = _truncation(power, y, w)
    partial = sum((coeff / y**j for j, coeff in kept), start=F(0))
    window = Interval.point(partial).hull(Interval.point(partial + c / y**k))
    lo, hi, v = _reciprocal_sum(x, n, power, bits + ROUNDING_GUARD_BITS)
    recurrence = Interval(F(lo, 1 << v), F(hi, 1 << v))
    if power == 1:
        return iv_ln(y, w) + window - recurrence
    return window + recurrence


_POSITIVE_SHORT_POINTS = st.one_of(
    st.integers(min_value=1, max_value=50 * 10**6).map(lambda n: F(n, 10**6)),
    st.fractions(min_value=F(1, 1000), max_value=10**4, max_denominator=1000),
)


class TestPolygammaNodeRounding:
    """At a short point a psi or psi' node is one kernel call, whose sum is
    rounded once, onto the node grid."""

    @given(_POSITIVE_SHORT_POINTS, st.sampled_from([8, 64, 200]), st.sampled_from([1, 2]))
    @example(F(177687919, 125000), 64, 1)
    @example(F(1, 1000), 8, 2)
    def test_ends_are_floor_and_ceiling_of_the_exact_sum(self, x, precision, power):
        node = Digamma(X) if power == 1 else Trigamma(X)
        exact = _fraction_psi_sum(power, x, precision)
        one = 1 << (precision + ROUNDING_GUARD_BITS)
        expected = Interval(F(math.floor(exact.lo * one), one), F(math.ceil(exact.hi * one), one))
        assert evaluate(node, x, precision) == expected
