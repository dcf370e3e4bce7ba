"""Exact interval arithmetic: field operations, soundness, outward rounding."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from psicert import (
    DomainError,
    Interval,
    ROUNDING_GUARD_BITS,
    batir_bstar_enclosure,
    digamma_enclosure,
    euler_gamma_enclosure,
    iv_arith,
    iv_exp,
    iv_ln,
    iv_pi,
    iv_sinh,
    ln2_enclosure,
    parse_rational,
    round_outward,
    trigamma_enclosure,
)

F = Fraction


def iv(lo, hi=None) -> Interval:
    return Interval(F(lo), F(hi if hi is not None else lo))


class TestConstruction:
    def test_point_interval(self):
        a = iv("1/3")
        assert a.lo == a.hi == F(1, 3)

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(ValueError):
            Interval(F(2), F(1))

    def test_immutability(self):
        a = iv(1, 2)
        with pytest.raises(AttributeError):
            a.lo = F(0)


class TestFieldOps:
    def test_exact_addition(self):
        assert iv_arith("add", iv("1/3"), iv("1/6")) == iv("1/2")

    def test_subtraction_widens(self):
        a = iv_arith("sub", iv(1, 2), iv(0, 1))
        assert (a.lo, a.hi) == (F(0), F(2))

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (iv(2, 3), iv(4, 5), iv(8, 15)),
            (iv(-3, -2), iv(4, 5), iv(-15, -8)),
            (iv(-2, 3), iv(-5, 4), iv(-15, 12)),
            (iv(-1, 1), iv(-1, 1), iv(-1, 1)),
        ],
    )
    def test_multiplication_sign_cases(self, a, b, expected):
        assert iv_arith("mul", a, b) == expected

    def test_division_exact(self):
        assert iv_arith("div", iv(1, 2), iv(4)) == iv("1/4", "1/2")

    def test_division_by_zero_straddling_interval(self):
        with pytest.raises(DomainError):
            iv_arith("div", iv(1), iv(-1, 1))

    def test_integer_powers(self):
        assert iv_arith("pow_int", iv(-2, 3), 2) == iv(0, 9)
        assert iv_arith("pow_int", iv(-2, 3), 3) == iv(-8, 27)
        assert iv_arith("pow_int", iv(2, 4), -1) == iv("1/4", "1/2")

    def test_negative_power_through_zero_rejected(self):
        with pytest.raises(DomainError):
            iv_arith("pow_int", iv(-1, 1), -2)

    def test_operator_sugar_matches_dispatch(self):
        a, b = iv(1, 2), iv("1/3", "1/2")
        assert a + b == iv_arith("add", a, b)
        assert a - b == iv_arith("sub", a, b)
        assert a * b == iv_arith("mul", a, b)
        assert a / b == iv_arith("div", a, b)


rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=40
)


@st.composite
def intervals(draw):
    a = draw(rationals)
    b = draw(rationals)
    return Interval(min(a, b), max(a, b))


@given(intervals(), intervals(), st.sampled_from(["add", "sub", "mul"]))
def test_arithmetic_soundness(a, b, op):
    """Member points map into the result interval for every endpoint mix."""
    result = iv_arith(op, a, b)
    for pa in (a.lo, (a.lo + a.hi) / 2, a.hi):
        for pb in (b.lo, (b.lo + b.hi) / 2, b.hi):
            point = {
                "add": pa + pb,
                "sub": pa - pb,
                "mul": pa * pb,
            }[op]
            assert result.lo <= point <= result.hi


@given(intervals(), intervals())
def test_division_soundness(a, b):
    if b.lo <= 0 <= b.hi:
        with pytest.raises(DomainError):
            iv_arith("div", a, b)
        return
    result = iv_arith("div", a, b)
    for pa in (a.lo, a.hi):
        for pb in (b.lo, b.hi):
            assert result.lo <= pa / pb <= result.hi


@given(intervals(), st.integers(min_value=0, max_value=6))
def test_power_soundness(a, n):
    result = iv_arith("pow_int", a, n)
    for point in (a.lo, (a.lo + a.hi) / 2, a.hi):
        assert result.lo <= point**n <= result.hi


class TestPredicates:
    def test_strict_order(self):
        assert iv(1, 2).strictly_less(iv(3, 4))
        assert not iv(1, 3).strictly_less(iv(3, 4))
        assert iv(3, 4).strictly_greater(iv(1, 2))

    def test_signs(self):
        assert iv(1, 2).strictly_positive()
        assert iv(-2, -1).strictly_negative()
        assert not iv(0, 1).strictly_positive()

    def test_encloses_and_intersects(self):
        assert iv(0, 10).encloses(iv(1, 2))
        assert not iv(0, 10).encloses(iv(5, 11))
        assert iv(0, 2).intersects(iv(2, 3))
        assert not iv(0, 1).intersects(iv(2, 3))

    def test_hull(self):
        assert iv(0, 1).hull(iv(5, 6)) == iv(0, 6)


class TestOutwardRounding:
    def test_result_contains_input(self):
        a = iv("1/3", "2/3")
        rounded = round_outward(a, 16)
        assert rounded.encloses(a)

    def test_endpoints_land_on_dyadic_grid(self):
        rounded = round_outward(iv("1/3", "2/3"), 16)
        step = F(1, 2 ** (16 + ROUNDING_GUARD_BITS))
        assert (rounded.lo / step).denominator == 1
        assert (rounded.hi / step).denominator == 1

    def test_width_penalty_is_bounded(self):
        a = iv("1/7", "1/7")
        rounded = round_outward(a, 24)
        assert rounded.hi - rounded.lo <= 2 * F(1, 2 ** (24 + ROUNDING_GUARD_BITS))

    @given(intervals(), st.integers(min_value=4, max_value=80))
    def test_nested_precisions(self, a, precision):
        coarse = round_outward(a, precision)
        fine = round_outward(a, precision + 13)
        assert coarse.encloses(a)
        assert fine.encloses(a)
        # the coarse grid is a subset of the fine grid, so coarse is no tighter
        assert coarse.encloses(fine)

    @given(intervals(), st.integers(min_value=0, max_value=80))
    def test_matches_floor_and_ceiling_of_scaled_endpoints(self, a, precision):
        """The integer quotients give the values of ``math.floor``/``math.ceil``."""
        scale = 1 << (precision + ROUNDING_GUARD_BITS)
        expected = Interval(
            F(math.floor(a.lo * scale), scale), F(math.ceil(a.hi * scale), scale)
        )
        assert round_outward(a, precision) == expected

    def test_endpoints_on_the_grid_are_returned_as_they_are(self):
        on_grid = iv("-3/4", F(1, 2**ROUNDING_GUARD_BITS))
        assert round_outward(on_grid, 0) is on_grid
        half = iv("-3/4", "1/3")
        rounded = round_outward(half, 0)
        assert rounded.lo == half.lo
        assert rounded.hi > half.hi
        finer = F(1, 2 ** (ROUNDING_GUARD_BITS + 1))  # one bit below the grid
        assert round_outward(iv(finer, finer), 0) == iv(0, F(1, 2**ROUNDING_GUARD_BITS))


# every public function that takes a precision, called with one
PRECISION_TAKERS = {
    "round_outward": lambda p: round_outward(iv("1/3"), p),
    "iv_exp": lambda p: iv_exp(F(7, 3), p),
    "iv_ln": lambda p: iv_ln(F(7, 3), p),
    "iv_sinh": lambda p: iv_sinh(F(7, 3), p),
    "iv_pi": iv_pi,
    "ln2_enclosure": ln2_enclosure,
    "digamma_enclosure": lambda p: digamma_enclosure(F(7, 3), p),
    "trigamma_enclosure": lambda p: trigamma_enclosure(F(7, 3), p),
    "euler_gamma_enclosure": euler_gamma_enclosure,
    "batir_bstar_enclosure": batir_bstar_enclosure,
}


@pytest.mark.parametrize("name", sorted(PRECISION_TAKERS))
def test_one_precision_check(name):
    """A negative precision raises the one ``ValueError`` of the grid, not an
    error from inside a kernel; precision 0 gives a width of at most 1."""
    call = PRECISION_TAKERS[name]
    for precision in (-100, -2, -1):
        with pytest.raises(ValueError, match="^precision must be nonnegative$"):
            call(precision)
    assert call(0).width <= 1


def _scaled(a: Interval, k: int) -> Interval:
    """``a`` held over ``k`` times its least common denominator."""
    lo, hi, d = Interval(a.lo, a.hi)._ends
    return Interval._of(k * lo, k * hi, k * d)


scales = st.integers(min_value=1, max_value=10**6)


class TestRepresentation:
    """An ``Interval`` holds integer ends over one denominator; any multiple
    of them is the same value, with the same hash, ``repr`` and ``str``."""

    @given(intervals(), scales)
    def test_scaled_ends_are_the_same_value(self, a, k):
        scaled = _scaled(a, k)
        assert scaled == a and a == scaled and not scaled != a
        assert (scaled.lo, scaled.hi) == (a.lo, a.hi)
        assert hash(scaled) == hash(a) == hash((a.lo, a.hi))
        assert repr(scaled) == repr(a)
        assert str(scaled) == str(a)

    def test_constructor_uses_the_least_common_denominator(self):
        assert Interval(F(-3, 4), F(1, 6))._ends == (-9, 2, 12)
        assert Interval.point(F(2, 4))._ends == (1, 1, 2)

    @given(intervals(), intervals(), scales, scales)
    def test_unequal_values_compare_unequal(self, a, b, j, k):
        same = (a.lo, a.hi) == (b.lo, b.hi)
        assert (_scaled(a, j) == _scaled(b, k)) is same
        lo, _, d = a._ends
        assert (Interval._of(lo, lo, d) == a) is a.is_point  # the upper ends count too

    @given(intervals(), intervals(), scales, scales)
    def test_strict_order_matches_the_fraction_ends(self, a, b, j, k):
        x, y = _scaled(a, j), _scaled(b, k)
        assert x.strictly_less(y) is (a.hi < b.lo)
        assert x.strictly_greater(y) is (a.lo > b.hi)
        assert x.strictly_positive() is (a.lo > 0)
        assert x.strictly_negative() is (a.hi < 0)

    def test_distinct_points_do_not_share_a_hash(self):
        # hash(-1) == hash(-2) in CPython: a hash of the integer ends would merge these
        assert hash(Interval.point(F(-1, 3))) != hash(Interval.point(F(-2, 3)))


def _reference(op: str, a: tuple[F, F], b: "tuple[F, F] | int") -> tuple[F, F]:
    """``op`` on ``Fraction`` ends by the formulas ``Interval`` used before it
    held integer ends; ``b`` is the exponent for ``pow``."""
    (alo, ahi) = a
    if op == "add":
        return alo + b[0], ahi + b[1]
    if op == "mul":
        products = (alo * b[0], alo * b[1], ahi * b[0], ahi * b[1])
        return min(products), max(products)
    if op == "div":
        if b[0] <= 0 <= b[1]:
            raise DomainError(f"division by an interval containing zero: [{b[0]}, {b[1]}]")
        return _reference("mul", a, (1 / b[1], 1 / b[0]))
    if b < 0:
        return _reference("pow", _reference("div", (F(1), F(1)), a), -b)
    if b == 0:
        return F(1), F(1)
    lo, hi = alo**b, ahi**b
    if b % 2 == 1 or alo >= 0:
        return lo, hi
    if ahi <= 0:
        return hi, lo
    return F(0), max(lo, hi)  # an even power of an interval straddling zero


# ends that straddle zero, lie below it or touch it, as well as positive ones
signed = st.one_of(
    intervals(),
    st.tuples(rationals, rationals).map(lambda t: Interval(-abs(t[0]) - abs(t[1]), -abs(t[0]))),
    st.sampled_from([Interval(-2, 3), Interval(-3, 0), Interval(0, 2), Interval(0, 0), Interval(-1, 1)]),
)


class TestArithmeticAgainstFractions:
    """The shared end formulas give the ``Fraction`` formulas' values, on any
    representation of the operands."""

    @given(signed, signed, st.sampled_from(["add", "sub", "mul", "div"]), scales, scales)
    def test_binary_operations(self, a, b, op, j, k):
        x, y = _scaled(a, j), _scaled(b, k)
        ends = (a.lo, a.hi)
        other = (b.lo, b.hi) if op != "sub" else (-b.hi, -b.lo)
        try:
            expected = _reference("add" if op == "sub" else op, ends, other)
        except DomainError as exc:
            with pytest.raises(DomainError) as raised:
                iv_arith(op, x, y)
            assert str(raised.value) == str(exc)
            return
        result = iv_arith(op, x, y)
        assert (result.lo, result.hi) == expected

    @given(signed, st.integers(min_value=-5, max_value=6), scales)
    def test_integer_powers(self, a, n, k):
        try:
            expected = _reference("pow", (a.lo, a.hi), n)
        except DomainError as exc:
            with pytest.raises(DomainError) as raised:
                _scaled(a, k) ** n
            assert str(raised.value) == str(exc)
            return
        result = _scaled(a, k) ** n
        assert (result.lo, result.hi) == expected

    def test_division_error_names_the_divisor(self):
        with pytest.raises(DomainError, match=r"^division by an interval containing zero: \[-1/2, 3\]$"):
            Interval(1, 2) / Interval._of(-2, 12, 4)
        with pytest.raises(DomainError, match=r"^division by an interval containing zero: \[0, 0\]$"):
            Interval._of(0, 0, 7) ** -2


class TestParseRational:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("3", F(3)),
            ("-7/2", F(-7, 2)),
            ("0.125", F(1, 8)),
            ("  2/3 ", F(2, 3)),
            ("1e-3", F(1, 1000)),
        ],
    )
    def test_accepts(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("text", ["", "abc", "1/0", "2//3"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)
