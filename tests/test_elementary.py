"""Certified enclosures of exp, ln, sinh, and pi against independent oracles.

Soundness is checked by intersection: the enclosure and the oracle bracket
both claim to contain the true value, so they must meet; tightness is
checked separately with explicit width bounds.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, strategies as st

from psicert import (
    DomainError,
    Interval,
    digamma_enclosure,
    iv_exp,
    iv_ln,
    iv_pi,
    iv_sinh,
    ln2_enclosure,
    trigamma_enclosure,
)
from psicert.elementary import (
    _arctan_inverse,
    _atanh_small,
    _climb,
    _exp_point,
    _floor_log2,
    _ln_point,
    _tolerance_bits,
)
from psicert.interval import ROUNDING_GUARD_BITS

from _oracles import (
    consistent,
    e_bracket,
    encloses_truth,
    exp_bracket,
    ln_bracket,
    pi_bracket,
    scaled_bracket,
    sinh_bracket,
    _to_mpf,
)

F = Fraction


def dyadic(lo: int, hi: int, w: int) -> Interval:
    """The interval of a kernel's integer ends ``(lo, hi, w)``, in ulps of ``2**-w``."""
    return Interval(F(lo, 1 << w), F(hi, 1 << w))


def exp_truth(x: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """Bracket of ``e**x`` for an enclosure of width ``width``, at any ``x``.

    ``scaled_bracket`` works at a precision relative to its value, so it
    runs on ``e**x / 2**e`` with ``2**e`` about ``e**x``.  The exact bounds
    ``max(0, 1 + x) <= e**x <= 1 / (1 - x)`` (the upper one for ``x < 1``)
    keep the bracket inside an enclosure whose end is one of them: 1 at
    ``x = 0``, and 0 where ``e**x`` is below the rounding grid.
    """
    e = math.floor(x / F(math.log(2)))
    scale = F(2) ** e
    lo, hi = scaled_bracket(
        lambda: mpmath.exp(_to_mpf(x)) / mpmath.mpf(2) ** e, min(F(1), width / scale)
    )
    lo, hi = max(lo * scale, 1 + x, F(0)), hi * scale
    return lo, min(hi, 1 / (1 - x)) if x < 1 else hi


@st.composite
def _exp_arguments(draw) -> Fraction:
    """Arguments of ``_exp_point``: either sign, powers of two (where the
    halving count ``j`` steps), values just below them (where ``|t|`` comes
    closest to 1/2), non-dyadic values down to 1e-300, and values to 300."""
    sign = draw(st.sampled_from([1, -1]))
    power = F(2) ** draw(st.integers(min_value=-80, max_value=8))
    magnitude = draw(
        st.one_of(
            st.just(power),
            st.just(power * (1 - F(1, 10**30))),
            st.integers(min_value=1, max_value=300).map(lambda k: F(1, 10**k)),
            st.fractions(min_value=0, max_value=300, max_denominator=10**6),
        )
    )
    return sign * magnitude


SAMPLE_POINTS = [
    F(0),
    F(1),
    F(-1),
    F(1, 3),
    F(-7, 5),
    F(5, 2),
    F(20),
    F(-20),
    F(1, 1000),
]


class TestExp:
    @pytest.mark.parametrize("x", SAMPLE_POINTS, ids=str)
    def test_against_oracle(self, x):
        enclosure = iv_exp(x, 64)
        assert consistent(enclosure, exp_bracket(x))
        scale = max(F(1), abs(enclosure.hi))
        assert enclosure.hi - enclosure.lo <= scale * F(1, 2**50)

    def test_exp_zero_is_tight_around_one(self):
        enclosure = iv_exp(F(0), 64)
        assert enclosure.lo <= 1 <= enclosure.hi
        assert enclosure.hi - enclosure.lo <= F(1, 2**60)

    def test_e_against_factorial_series(self):
        assert consistent(iv_exp(F(1), 96), e_bracket(terms=40))

    def test_positivity_everywhere(self):
        assert iv_exp(F(-50), 64).strictly_positive()

    def test_width_shrinks_with_precision(self):
        wide = iv_exp(F(3, 7), 32)
        narrow = iv_exp(F(3, 7), 160)
        assert narrow.hi - narrow.lo < wide.hi - wide.lo
        assert narrow.hi - narrow.lo <= F(1, 2**150)

    def test_higher_precision_gets_its_own_enclosure(self):
        x = F(7, 3)
        coarse = iv_exp(x, 64)
        fine = iv_exp(x, 256)
        assert fine.width < coarse.width
        assert iv_exp(x, 64) == coarse

    @given(
        st.fractions(min_value=-20, max_value=20, max_denominator=100),
        st.fractions(min_value=0, max_value=2, max_denominator=30),
        st.sampled_from([8, 40, 64, 130, 192]),
    )
    def test_repeated_call_equals_the_first(self, lo, width, precision):
        argument = Interval(lo, lo + width)
        assert iv_exp(argument, precision) == iv_exp(argument, precision)

    def test_int_fraction_and_point_arguments_agree(self):
        for n in (1, 3, 10):
            assert iv_exp(n, 64) == iv_exp(F(n), 64) == iv_exp(Interval.point(n), 64)

    def test_interval_argument_covers_endpoint_values(self):
        enclosure = iv_exp(Interval(F(-1), F(2)), 64)
        for x in (F(-1), F(0), F(2)):
            assert consistent(enclosure, exp_bracket(x))

    def test_monotone_separation(self):
        assert iv_exp(F(1), 64).strictly_less(iv_exp(F(11, 10), 64))

    def test_argument_beyond_machine_size_shift_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            iv_exp(Interval(F(0), F(10**300)), 64)

    @given(st.fractions(min_value=-8, max_value=8, max_denominator=60))
    def test_functional_equation_overlap(self, x):
        """exp(x)*exp(-x) must enclose 1."""
        product = iv_exp(x, 80) * iv_exp(-x, 80)
        assert product.lo <= 1 <= product.hi

    @given(_exp_arguments(), st.integers(min_value=0, max_value=1024))
    @example(F(1, 10**300), 1024)  # T = 0 and inexact: the upper end is 1 + 4 ulps
    @example(F(-1, 10**300), 1024)
    @example(F(-300), 64)  # e**x far below one ulp: the squarings' roundings show
    @example(F(1, 4), 1)  # a power of two: t = 1/4 exactly
    @example(F(-1, 10**300), 3)  # the least work of the width bound, at its fewest bits
    def test_point_contains_truth(self, x, work):
        """The fixed-point enclosure before ``iv_exp`` rounds it outward, so
        that an ulp miscounted in the sum or the squarings shows; from ``work
        = 3`` on it is at most ``2**-work`` wide, whatever the size of ``e**x``."""
        enclosure = dyadic(*_exp_point(x.numerator, x.denominator, work))
        if work >= 3:
            assert enclosure.width <= F(1, 2**work)
        assert encloses_truth(enclosure, exp_truth(x, enclosure.width))

    @pytest.mark.parametrize("precision", [256, 512, 1024, 2048, 4096])
    @pytest.mark.parametrize(
        "x", [F(7, 3), F(-7, 5), F(1, 1000), F(20), F(300), F(-300)], ids=str
    )
    def test_high_precision_contains_truth(self, x, precision):
        enclosure = iv_exp(x, precision)
        assert enclosure.width <= max(F(1), enclosure.hi) * F(1, 2**precision)
        assert encloses_truth(enclosure, exp_truth(x, enclosure.width))


HIGH_PRECISION_LN_POINTS = [
    F(7, 3),
    F(29, 7),
    F(1, 1000),
    F(10**6),
    pytest.param(F(10**4000), id="1e4000"),
    pytest.param(F(1, 10**4000), id="1e-4000"),
]
LN_PRECISIONS = [128, 192, 256, 512, 1024, 2048, 4096]


class TestLn:
    @pytest.mark.parametrize(
        "x", [F(1), F(2), F(1, 2), F(3, 2), F(10), F(1, 1000), F(10**6)], ids=str
    )
    def test_against_oracle(self, x):
        enclosure = iv_ln(x, 64)
        assert consistent(enclosure, ln_bracket(x))
        assert enclosure.hi - enclosure.lo <= F(1, 2**50)

    @pytest.mark.parametrize("precision", LN_PRECISIONS)
    @pytest.mark.parametrize("x", HIGH_PRECISION_LN_POINTS, ids=str)
    def test_high_precision_contains_truth(self, x, precision):
        enclosure = iv_ln(x, precision)
        assert enclosure.width <= F(1, 2**precision)
        truth = scaled_bracket(lambda: mpmath.log(_to_mpf(x)), enclosure.width)
        assert encloses_truth(enclosure, truth)

    @pytest.mark.parametrize("precision", LN_PRECISIONS)
    @pytest.mark.parametrize("x", HIGH_PRECISION_LN_POINTS, ids=str)
    def test_high_precision_series_enclosure_contains_truth(self, x, precision):
        """The atanh-series enclosure at the work ``iv_ln`` gives it, before
        ``iv_ln`` rounds it outward: an error below the rounding grid, such as
        a dropped tail, shows only here."""
        work = precision + ROUNDING_GUARD_BITS + 2
        enclosure = dyadic(*_ln_point(x.numerator, x.denominator, work))
        assert enclosure.width <= F(1, 2**work)
        truth = scaled_bracket(lambda: mpmath.log(_to_mpf(x)), enclosure.width)
        assert encloses_truth(enclosure, truth)

    @pytest.mark.parametrize(
        "u",
        [F(0), F(1, 2**20), F(1, 2**40), F(1, 3) - F(1, 10**12), F(1, 3), F(49, 100)],
        ids=str,
    )
    def test_atanh_small_contains_truth_at_every_low_work(self, u):
        """``_atanh_small`` at its edges: ``u = 0``, a u so small that few terms
        are nonzero, ``u`` at and near the 1/3 that ``_ln_point`` stays below, and
        a ``u`` close to the 1/2 its bound needs; width at most ``2**-work``."""
        # u <= atanh(u) <= u + u**3 / (3 (1 - u**2)), exactly: the mpmath bracket
        # alone is too wide to judge an enclosure whose lower end is u itself
        series = (u, u + u**3 / (3 * (1 - u * u)))
        for work in range(1, 64):
            enclosure = dyadic(*_atanh_small(u.numerator, u.denominator, work))
            assert enclosure.width <= F(1, 2**work), work
            lo, hi = scaled_bracket(lambda: mpmath.atanh(_to_mpf(u)), enclosure.width)
            truth = (max(lo, series[0]), min(hi, series[1]))
            assert encloses_truth(enclosure, truth), work

    @pytest.mark.parametrize("u", [F(-1, 3), F(1, 2), F(3, 4)], ids=str)
    def test_atanh_small_rejects_u_outside_its_bound(self, u):
        with pytest.raises(ValueError):
            _atanh_small(u.numerator, u.denominator, 64)

    @given(st.fractions(min_value=F(1, 10**30), max_value=10**30, max_denominator=10**30))
    def test_floor_log2_matches_halving(self, x):
        k, z = 0, x
        while z >= 2:
            z /= 2
            k += 1
        while z < 1:
            z *= 2
            k -= 1
        assert _floor_log2(x.numerator, x.denominator) == k

    @given(st.fractions(min_value=F(1, 10**30), max_value=10**30, max_denominator=10**30))
    def test_tolerance_bits_matches_halving(self, tolerance):
        level = 0
        while F(1, 1 << level) > tolerance:
            level += 1
        assert _tolerance_bits(tolerance) == level

    def test_ln_one_contains_zero(self):
        enclosure = iv_ln(F(1), 64)
        assert enclosure.lo <= 0 <= enclosure.hi

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            iv_ln(F(0), 64)
        with pytest.raises(DomainError):
            iv_ln(Interval(F(-1), F(2)), 64)

    def test_ln2_helper_consistent(self):
        assert consistent(ln2_enclosure(64), ln_bracket(F(2)))

    @pytest.mark.parametrize("precision", [1024, 2048, 4096])
    def test_ln2_high_precision_contains_truth(self, precision):
        enclosure = ln2_enclosure(precision)
        assert enclosure.width <= F(1, 2**precision)
        assert encloses_truth(enclosure, scaled_bracket(lambda: mpmath.log(2), enclosure.width))

    def test_log_of_product_overlaps_sum(self):
        lhs = iv_ln(F(6), 80)
        rhs = iv_ln(F(2), 80) + iv_ln(F(3), 80)
        assert lhs.intersects(rhs)

    @given(
        st.fractions(min_value=F(1, 50), max_value=100, max_denominator=50)
    )
    def test_round_trip_contains_identity(self, x):
        """ln(exp(x)) and exp(ln(x)) both enclose x."""
        back = iv_ln(iv_exp(x, 96), 96)
        assert back.lo <= x <= back.hi
        forth = iv_exp(iv_ln(x, 96), 96)
        assert forth.lo <= x <= forth.hi


class TestSinh:
    @pytest.mark.parametrize("x", [F(0), F(1), F(-3, 2), F(2, 5), F(8)], ids=str)
    def test_against_oracle(self, x):
        enclosure = iv_sinh(x, 64)
        assert consistent(enclosure, sinh_bracket(x))
        scale = max(F(1), abs(enclosure.hi), abs(enclosure.lo))
        assert enclosure.hi - enclosure.lo <= scale * F(1, 2**50)

    def test_odd_symmetry(self):
        plus = iv_sinh(F(7, 3), 64)
        minus = iv_sinh(F(-7, 3), 64)
        assert minus == Interval(-plus.hi, -plus.lo)

    @pytest.mark.parametrize("precision", [1024, 2048, 4096])
    @pytest.mark.parametrize("x", [F(7, 3), F(-3, 2), F(1, 1000), F(8)], ids=str)
    def test_high_precision_contains_truth(self, x, precision):
        enclosure = iv_sinh(x, precision)
        scale = max(F(1), abs(enclosure.hi), abs(enclosure.lo))
        assert enclosure.width <= scale * F(1, 2**precision)
        truth = scaled_bracket(lambda: mpmath.sinh(_to_mpf(x)), enclosure.width)
        assert encloses_truth(enclosure, truth)


class TestPi:
    def test_against_oracle(self):
        assert consistent(iv_pi(64), pi_bracket())

    def test_width_bound(self):
        for precision in (32, 64, 128):
            enclosure = iv_pi(precision)
            assert enclosure.hi - enclosure.lo <= F(1, 2**precision)

    def test_high_precision_consistent(self):
        assert consistent(iv_pi(400), pi_bracket())

    def test_arctan_inverse_contains_truth(self):
        """At small ``work`` a single miscounted ulp moves an endpoint past the truth."""
        cases = [(q, work) for q in range(2, 40) for work in range(64)]
        for q, work in cases + [(5, 500), (239, 500)]:
            enclosure = dyadic(*_arctan_inverse(q, work))
            assert enclosure.width <= F(1, 2**work)
            truth = scaled_bracket(lambda: mpmath.atan(mpmath.mpf(1) / q), enclosure.width)
            assert encloses_truth(enclosure, truth), (q, work)

    @pytest.mark.parametrize("precision", [1024, 3000, 8192, 16384])
    def test_high_precision_contains_pi(self, precision):
        enclosure = iv_pi(precision)
        assert enclosure.width <= F(1, 2**precision)
        assert encloses_truth(enclosure, scaled_bracket(lambda: +mpmath.pi, enclosure.width))


@pytest.mark.parametrize("precision", [0, 8, 64, 256, 1024])
def test_a_point_is_at_most_three_steps_wide(precision):
    """The budget the elementary kernels state: before rounding each end is
    within half a step of the one grid ``2**-(p + G)`` of the truth, so a
    point's enclosure is at most 3 steps wide, whatever the size of its value."""
    step = F(1, 2 ** (precision + ROUNDING_GUARD_BITS))
    for x in (F(7, 3), F(-7, 5), F(1, 1000), F(61, 3), F(901, 3), F(-901, 3)):  # snapped
        assert iv_exp(x, precision).width <= 3 * step, x
        assert iv_sinh(x, precision).width <= 3 * step, x
        assert iv_ln(abs(x), precision).width <= 3 * step, x
    for x in (F(10**6), F(1, 10**300), F(10**4000)):
        assert iv_ln(x, precision).width <= 3 * step, x
    assert iv_pi(precision).width <= 3 * step
    assert ln2_enclosure(precision).width <= 3 * step


# the kernels a refinement climb reruns at doubled precision, at a point x > 0
RUNG_KERNELS = {
    "iv_exp": lambda x, p: iv_exp(x - 10, p),
    "iv_ln": iv_ln,
    "iv_sinh": lambda x, p: iv_sinh(x - 10, p),
    "iv_pi": lambda x, p: iv_pi(p),
    "ln2_enclosure": lambda x, p: ln2_enclosure(p),
    "digamma_enclosure": digamma_enclosure,
    "trigamma_enclosure": trigamma_enclosure,
}


class TestClimb:
    """``_climb`` doubles the bits from a start until the value settles or the
    bits reach the ceiling, and returns the bits with the value computed at them."""

    @staticmethod
    def _record(settled_at: int | None = None):
        calls: list[int] = []

        def compute(bits: int) -> int:
            calls.append(bits)
            return bits

        def settled(value: int) -> bool:
            return settled_at is not None and value >= settled_at

        return calls, compute, settled

    def test_returns_the_first_value_when_it_is_settled(self):
        calls, compute, settled = self._record(settled_at=0)
        assert _climb(64, 1024, compute, settled) == (64, 64)
        assert calls == [64]

    def test_doubles_the_bits_until_the_value_settles(self):
        calls, compute, settled = self._record(settled_at=100)
        assert _climb(8, 1024, compute, settled) == (128, 128)
        assert calls == [8, 16, 32, 64, 128]

    @given(st.integers(min_value=1, max_value=2**20), st.integers(min_value=0, max_value=2**21))
    @example(16, 256)
    @example(64, 64)
    @example(100, 64)
    def test_stops_at_the_ceiling_overshooting_by_less_than_one_doubling(self, bits, ceiling):
        calls, compute, settled = self._record()
        top, value = _climb(bits, ceiling, compute, settled)
        assert value == top == calls[-1]
        assert calls == [bits << k for k in range(len(calls))]
        if bits >= ceiling:
            assert calls == [bits]
        else:
            assert ceiling <= top < 2 * ceiling

    @given(
        st.sampled_from(sorted(RUNG_KERNELS)),
        st.fractions(min_value=F(1, 1000), max_value=100, max_denominator=1000),
        st.integers(min_value=8, max_value=1024),
    )
    def test_a_rung_never_widens_an_enclosure(self, name, x, precision):
        """Each rung of :func:`_climb` doubles the precision; the enclosure it
        gets is never wider than the one it had, so the climb never loses
        a decision it could make at the rung below."""
        kernel = RUNG_KERNELS[name]
        assert kernel(x, 2 * precision).width <= kernel(x, precision).width

    def test_a_grid_check_sees_at_most_five_rungs(self):
        """The grid's ceiling is 16 times its start: 16, 32, 64, 128, 256."""
        calls, compute, settled = self._record()
        assert _climb(16, 16 << 4, compute, settled) == (256, 256)
        assert calls == [16, 32, 64, 128, 256]
