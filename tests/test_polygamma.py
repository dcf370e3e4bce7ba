"""Digamma/trigamma enclosures, classical constants, recurrence invariants."""

from __future__ import annotations

import importlib
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

import psicert
from psicert import (
    Interval,
    batir_bstar_enclosure,
    digamma_enclosure,
    digamma_zero,
    euler_gamma_enclosure,
    series,
    trigamma_enclosure,
)
from psicert.interval import ROUNDING_GUARD_BITS
from psicert.polygamma import (
    _dyadic_cover,
    _enveloped,
    _reciprocal_sum,
    _shift_count,
    _truncation,
)
from psicert.series import digamma_expansion, trigamma_expansion
from psicert.theorems import check_grid

from _oracles import (
    bstar_bracket,
    consistent,
    digamma_bracket,
    digamma_zero_bracket,
    encloses_truth,
    euler_gamma_bracket,
    scaled_bracket,
    trigamma_bracket,
    zeta2_bracket,
    _to_mpf,
)

F = Fraction


def dyadic(lo: int, hi: int, w: int) -> Interval:
    """The interval of a kernel's integer ends ``(lo, hi, w)``, in ulps of ``2**-w``."""
    return Interval(F(lo, 1 << w), F(hi, 1 << w))


def on_kernel_grid(exact: Interval, bits: int) -> Interval:
    """``exact`` rounded outward onto the one grid 2**-(bits + G), where psi and psi' round their sums."""
    one = 1 << (bits + ROUNDING_GUARD_BITS)
    return Interval(F(math.floor(exact.lo * one), one), F(math.ceil(exact.hi * one), one))

POINTS = [F(1, 10), F(1, 2), F(1), F(3, 2), F(2), F(29, 7), F(10), F(1000)]


class TestDigamma:
    @pytest.mark.parametrize("x", POINTS, ids=str)
    def test_against_oracle(self, x):
        enclosure = digamma_enclosure(x)
        assert consistent(enclosure, digamma_bracket(x))
        assert enclosure.hi - enclosure.lo <= F(1, 10**6)

    def test_negative_of_gamma_at_one(self):
        enclosure = digamma_enclosure(F(1))
        lo, hi = euler_gamma_bracket()
        assert consistent(enclosure, (-hi, -lo))

    def test_domain_validation(self):
        for bad in (F(0), F(-3, 2)):
            with pytest.raises(ValueError):
                digamma_enclosure(bad)

    def test_width_falls_as_bits_double(self):
        x = F(3, 2)
        widths = [digamma_enclosure(x, bits).width for bits in (16, 32, 64, 128, 256)]
        assert all(wide > tight for wide, tight in zip(widths, widths[1:]))
        assert consistent(digamma_enclosure(x, 256), digamma_bracket(x))

    @given(st.fractions(min_value=F(1, 20), max_value=30, max_denominator=20))
    def test_recurrence(self, x):
        """psi(x+1) and psi(x) + 1/x both contain the same real number."""
        lhs = digamma_enclosure(x + 1)
        rhs = digamma_enclosure(x) + Interval(1 / x, 1 / x)
        assert lhs.intersects(rhs)

    def test_monotone_increasing_sample(self):
        assert digamma_enclosure(F(2)).strictly_less(digamma_enclosure(F(3)))


class TestTrigamma:
    @pytest.mark.parametrize("x", POINTS, ids=str)
    def test_against_oracle(self, x):
        enclosure = trigamma_enclosure(x)
        assert consistent(enclosure, trigamma_bracket(x))

    def test_zeta_two_at_one(self):
        """psi'(1) = pi^2/6, cross-checked against the pure-rational bracket."""
        enclosure = trigamma_enclosure(F(1))
        assert consistent(enclosure, zeta2_bracket())
        assert enclosure.hi - enclosure.lo <= F(1, 10**9)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            trigamma_enclosure(F(-1))

    @given(st.fractions(min_value=F(1, 20), max_value=30, max_denominator=20))
    def test_recurrence(self, x):
        """psi'(x+1) and psi'(x) - 1/x^2 both contain the same real number."""
        lhs = trigamma_enclosure(x + 1)
        step = 1 / x**2
        rhs = trigamma_enclosure(x) - Interval(step, step)
        assert lhs.intersects(rhs)

    def test_positive_and_decreasing_sample(self):
        a, b = trigamma_enclosure(F(3)), trigamma_enclosure(F(4))
        assert a.strictly_positive()
        assert b.strictly_less(a)


MEMOISED = [digamma_enclosure, trigamma_enclosure]


class TestMemo:
    """digamma_enclosure and trigamma_enclosure are memoised per argument and bits."""

    @given(
        st.fractions(min_value=F(1, 20), max_value=200, max_denominator=50),
        st.integers(min_value=8, max_value=160),
    )
    def test_hit_equals_recomputation(self, x, bits):
        for kernel in MEMOISED:
            first = kernel(x, bits)
            assert kernel(x, bits) == first == kernel.__wrapped__(x, bits)

    @pytest.mark.parametrize("kernel", MEMOISED, ids=lambda k: k.__name__)
    def test_more_bits_get_their_own_enclosure(self, kernel):
        x = F(29, 7)
        coarse = kernel(x, 64)
        fine = kernel(x, 128)
        assert fine == kernel.__wrapped__(x, 128)
        assert fine.width < coarse.width
        assert kernel(x, 64) == coarse

    @pytest.mark.parametrize("kernel", MEMOISED, ids=lambda k: k.__name__)
    def test_int_and_fraction_arguments_agree(self, kernel):
        for n in (1, 2, 12):
            expected = kernel.__wrapped__(F(n), 64)
            assert kernel(n) == kernel(F(n), 64) == kernel(n, 64) == expected

    @pytest.mark.parametrize("kernel", MEMOISED, ids=lambda k: k.__name__)
    def test_cache_is_bounded(self, kernel):
        assert kernel.cache_info().maxsize is not None

    def test_grid_sides_share_work(self, cold_caches):
        """THM1's lower and upper pairs share psi'(x+1) and psi(x+1)."""
        cold_caches()
        check_grid("THM1", [F(3), F(5), F(8)])
        for kernel in MEMOISED:
            assert kernel.cache_info().hits > 0, kernel.__name__

    def test_only_these_functions_are_memoised(self):
        """A memo stays only where its arguments repeat and a hit pays: psi,
        psi', b*, ln 2, psi's coefficients and the catalog; exp, ln and pi
        are recomputed."""
        memoised = set()
        for name in psicert._EXPORTS:
            module = importlib.import_module(f"psicert.{name}")
            for value in vars(module).values():
                if callable(getattr(value, "cache_info", None)):
                    memoised.add(f"{value.__module__}.{value.__qualname__}")
        assert memoised == {
            "psicert.polygamma.digamma_enclosure",
            "psicert.polygamma.trigamma_enclosure",
            "psicert.polygamma.batir_bstar_enclosure",
            "psicert.elementary._ln2",
            "psicert.series._digamma_coefficient",
            "psicert.theorems._catalog",
        }


@pytest.mark.parametrize("power", [1, 2])
@pytest.mark.parametrize("x", [F(1), F(29, 7), F(1, 3), F(1000, 999)], ids=str)
def test_reciprocal_sum_encloses_exact_sum(x, power):
    """The fixed-point recurrence sum against the exact rational sum."""
    n = 300
    exact = sum((1 / (x + k) ** power for k in range(n)), start=F(0))
    enclosure = dyadic(*_reciprocal_sum(x, n, power, 64))
    assert exact in enclosure
    assert enclosure.width < F(1, 2**64)


LARGE_SHIFTS = [(F(1), 10**4), (F(29, 7), 10**4), (F(3, 2), 40_000), (F(1, 3), 10**5)]


class TestLargeShift:
    """Recurrence sums over 10^4..10^5 shift steps against mpmath.

    ``sum_{k<n} 1/(x+k) = psi(x+n) - psi(x)`` and ``sum_{k<n} 1/(x+k)**2 =
    psi'(x) - psi'(x+n)``; the ``n`` counted ulps of the fixed-point sum
    must stay below ``2**-bits``.
    """

    @staticmethod
    def check(x: Fraction, n: int, power: int, truth) -> None:
        for bits in (64, 200):
            enclosure = dyadic(*_reciprocal_sum(x, n, power, bits))
            assert enclosure.width < F(1, 2**bits)
            assert encloses_truth(enclosure, scaled_bracket(truth, enclosure.width))

    @pytest.mark.parametrize("x, n", LARGE_SHIFTS, ids=str)
    def test_digamma(self, x, n):
        self.check(x, n, 1, lambda: mpmath.digamma(_to_mpf(x) + n) - mpmath.digamma(_to_mpf(x)))

    @pytest.mark.parametrize("x, n", LARGE_SHIFTS, ids=str)
    def test_trigamma(self, x, n):
        self.check(x, n, 2, lambda: mpmath.psi(1, _to_mpf(x)) - mpmath.psi(1, _to_mpf(x) + n))


def _last_term(power: int, y: Fraction, order: int) -> Fraction:
    expansion = digamma_expansion if power == 1 else trigamma_expansion
    k, c = expansion(order).coeffs[-1]
    return abs(c) / y**k


def _per_order_truncation(power: int, y: Fraction, w: int) -> tuple[tuple[int, Fraction], ...]:
    """Reference search: one expansion per order, stopping at the first whose
    last term is at most ``2**-w`` and refusing a term that does not shrink."""
    expansion = digamma_expansion if power == 1 else trigamma_expansion
    order, previous = power + 1, None
    while True:
        terms = expansion(order).coeffs
        k, c = terms[-1]
        size = abs(c) / y**k
        if size <= F(1, 2**w):
            return terms
        if previous is not None and size >= previous:
            raise ArithmeticError(f"no truncation at y = {y}")
        previous = size
        order += 2


class TestTruncation:
    """The shortest enveloped truncation whose last term is at most 2**-w."""

    @given(
        st.fractions(min_value=0, max_value=10**6, max_denominator=1000),
        st.integers(min_value=8, max_value=300),
        st.sampled_from([1, 2]),
    )
    def test_shortest_within_target(self, offset, w, power):
        """From the kernels' least shift ``floor(3w/25) + 2`` outward."""
        y = 3 * w // 25 + 2 + offset
        terms = _truncation(power, y, w)
        order = terms[-1][0]
        assert _last_term(power, y, order) <= F(1, 2**w)
        if order > power + 1:
            assert _last_term(power, y, order - 2) > F(1, 2**w)

    @pytest.mark.parametrize("bits", [8, 9, 16, 31, 64, 65, 100, 128, 192, 256, 384, 509, 600])
    @pytest.mark.parametrize("power", [1, 2])
    def test_matches_per_order_search(self, power, bits):
        """The term-by-term scan picks the same terms as building one expansion
        per candidate order, at the kernels' own shifts."""
        w = bits + 2  # the kernels' w
        for x in (F(1), F(29, 7), F(1, 1000), F(10**6)):
            y = x + _shift_count(x, w) - 1
            assert _truncation(power, y, w) == _per_order_truncation(power, y, w), x

    @pytest.mark.parametrize(
        ("kernel", "power", "table_end"),
        [(trigamma_enclosure, 2, 471), (digamma_enclosure, 1, 467)],
        ids=["trigamma", "digamma"],
    )
    def test_bernoulli_table_grows_only_to_the_last_term(self, kernel, power, table_end, cold_caches):
        """At 1024 bits psi'(29/7) stops at B_470 and psi(29/7) at B_466.  The
        table grows in pairs, so it ends at the odd index after the last one."""
        cold_caches()
        x, w = F(29, 7), 1024 + 2  # the kernels' w
        kernel(x, 1024)
        assert len(series._BERNOULLI._values) - 1 == table_end
        k, _ = _truncation(power, x + _shift_count(x, w) - 1, w)[-1]
        assert k - (power - 1) + 1 == table_end  # psi' holds B_{k-1} at x**-k

    @pytest.mark.parametrize("power", [1, 2])
    def test_diverging_expansion_raises(self, power):
        """At y = 1/2 the terms grow long before they reach 2**-200."""
        with pytest.raises(ArithmeticError):
            _truncation(power, F(1, 2), 200)


def _fraction_truncation(power: int, y: Fraction, w: int) -> tuple[tuple[int, Fraction], ...]:
    """``_truncation`` as it was in ``Fraction`` arithmetic: the same scan, over
    one expansion per doubling order, each term's size ``|c| / y**k`` compared
    with ``2**-w`` and with the size before it."""
    expansion = digamma_expansion if power == 1 else trigamma_expansion
    target = F(1, 1 << w)
    order, scanned, previous = power + 1, 0, None
    while True:
        terms = expansion(order).coeffs
        for i in range(scanned, len(terms)):
            k, c = terms[i]
            if k <= power:
                continue
            size = abs(c) / y**k
            if size <= target:
                return terms[: i + 1]
            if previous is not None and size >= previous:
                raise ArithmeticError(f"the expansion at y = {y} does not reach 2**-{w}")
            previous = size
        scanned = len(terms)
        order *= 2


def _fraction_enveloped(terms: tuple[tuple[int, Fraction], ...], y: Fraction) -> Interval:
    """``_enveloped`` as it was: ``Fraction`` sums of ``c / y**k``."""
    *kept, (k, c) = terms
    partial = sum(coeff / y**power for power, coeff in kept)
    return Interval.point(partial).hull(Interval.point(partial + c / y**k))


class TestIntegerTruncation:
    """The integer truncation and window are the ``Fraction`` ones."""

    @pytest.mark.parametrize(
        ("powers", "y", "widths"),
        [
            ((1, 2), F(123, 10), (10, 66, 200)),
            ((1, 2), F(5077, 10), (10, 1026, 2050)),
            ((1, 2), F(100001, 10), (4100,)),
            ((1, 2), F(2**135 + 12345, 2**128), (10, 66, 200, 514)),
            ((1, 2), F(3 * 10**4000 + 1, 10**4000), (10, 66)),
            ((1, 2), 8 + F(1, 10**4000), (10,)),
            ((1,), 8 + F(1, 10**4000), (66,)),  # psi(1e-4000) at 64 bits
            ((1, 2), F(1, 2), (10, 200)),
        ],
        ids=["decimal", "decimal-mid", "decimal-far", "dyadic", "3+1e-4000", "8+1e-4000", "8+1e-4000-psi", "half"],
    )
    def test_matches_fraction_reference(self, powers, y, widths):
        for power in powers:
            for w in widths:
                try:
                    expected = _fraction_truncation(power, y, w)
                except ArithmeticError as exc:
                    with pytest.raises(ArithmeticError) as raised:
                        _truncation(power, y, w)
                    assert str(raised.value) == str(exc)
                    continue
                terms = _truncation(power, y, w)
                assert terms == expected, (power, w)
                assert Interval._of(*_enveloped(terms, y)) == _fraction_enveloped(terms, y), (power, w)


class TestAsymptoticWindow:
    """For x far enough out no recurrence step is taken, so y = x - 1."""

    @given(
        st.fractions(min_value=40, max_value=10**6, max_denominator=1000),
        st.integers(min_value=8, max_value=200),
    )
    def test_against_mpmath_without_recurrence(self, x, bits):
        """psi' is the enveloped window, as wide as its last term, rounded
        outward onto the one grid 2**-(bits + G)."""
        y = x - 1
        terms = _truncation(2, y, bits + 2)
        window = _fraction_enveloped(terms, y)
        k, c = terms[-1]
        assert window.width == abs(c) / y**k
        assert trigamma_enclosure(x, bits) == on_kernel_grid(window, bits)
        for kernel, reference in (
            (digamma_enclosure, mpmath.digamma),
            (trigamma_enclosure, lambda t: mpmath.psi(1, t)),
        ):
            enclosure = kernel(x, bits)
            assert enclosure.width <= F(1, 2**bits)
            bracket = scaled_bracket(lambda: reference(_to_mpf(x)), enclosure.width)
            assert encloses_truth(enclosure, bracket), kernel.__name__


class TestConstants:
    def test_euler_gamma(self):
        enclosure = euler_gamma_enclosure()
        assert consistent(enclosure, euler_gamma_bracket())
        assert enclosure.hi - enclosure.lo <= F(1, 10**6)

    def test_bstar_value_and_location(self):
        enclosure = batir_bstar_enclosure()
        assert consistent(enclosure, bstar_bracket())
        assert enclosure.lo > F(1, 2)
        assert enclosure.hi - enclosure.lo <= F(1, 10**6)

    @pytest.mark.parametrize(
        "constant, truth",
        [
            (euler_gamma_enclosure, lambda: +mpmath.euler),
            (batir_bstar_enclosure, lambda: mpmath.pi**2 / (6 * mpmath.exp(2 * mpmath.euler))),
        ],
        ids=["gamma", "bstar"],
    )
    def test_width_at_most_two_to_the_minus_bits(self, constant, truth):
        for bits in (8, 64, 128, 256):
            enclosure = constant(bits)
            assert enclosure.width <= F(1, 2**bits)
            assert encloses_truth(enclosure, scaled_bracket(truth, enclosure.width))

    @pytest.mark.parametrize("bits", [1024, 2048, 4096])
    @pytest.mark.parametrize(
        "constant, truth",
        [
            (euler_gamma_enclosure, lambda: +mpmath.euler),
            (batir_bstar_enclosure, lambda: mpmath.pi**2 / (6 * mpmath.exp(2 * mpmath.euler))),
        ],
        ids=["gamma", "bstar"],
    )
    def test_high_precision_contains_truth(self, constant, truth, bits):
        enclosure = constant(bits)
        assert enclosure.width <= F(1, 2**bits)
        assert encloses_truth(enclosure, scaled_bracket(truth, enclosure.width))

    def test_digamma_zero(self):
        tolerance = F(1, 10**7)
        enclosure = digamma_zero(tolerance)
        assert enclosure.hi - enclosure.lo <= tolerance
        assert consistent(enclosure, digamma_zero_bracket())

    def test_digamma_changes_sign_across_zero(self):
        enclosure = digamma_zero(F(1, 10**5))
        below = digamma_enclosure(enclosure.lo - F(1, 100))
        above = digamma_enclosure(enclosure.hi + F(1, 100))
        assert below.strictly_negative()
        assert above.strictly_positive()

    def test_digamma_zero_bad_tolerance(self):
        with pytest.raises(ValueError):
            digamma_zero(F(0))


def _bisection_reference(tolerance: Fraction) -> tuple[Fraction, Fraction]:
    """Midpoint bisection of psi on [1, 2], signs taken from mpmath at 60 digits."""
    lo, hi = F(1), F(2)
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        if mpmath.digamma(_to_mpf(mid)) < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


class TestDigammaZeroNewton:
    """Interval Newton narrows the bracket but must land on bisection's cell."""

    @pytest.mark.parametrize("exponent", [6, 12, 20, 30])
    def test_matches_bisection_and_contains_root(self, exponent):
        tolerance = F(1, 10**exponent)
        enclosure = digamma_zero(tolerance)
        assert (enclosure.lo, enclosure.hi) == _bisection_reference(tolerance)
        assert encloses_truth(enclosure, digamma_zero_bracket())

    @pytest.mark.parametrize("exponent", [6, 12, 30])
    def test_bisection_fallback_matches_bisection(self, exponent, monkeypatch):
        """A cover that never narrows the bracket stops Newton at its first
        step, so the bisection with certified signs runs from [1, 2]."""
        monkeypatch.setattr(psicert.polygamma, "_dyadic_cover", lambda a, b, level: (F(1), F(2)))
        tolerance = F(1, 10**exponent)
        enclosure = digamma_zero(tolerance)
        assert (enclosure.lo, enclosure.hi) == _bisection_reference(tolerance)

    def test_probe_count_at_high_precision(self):
        digamma_enclosure.cache_clear()
        digamma_zero(F(1, 10**30))
        assert digamma_enclosure.cache_info().misses <= 30


def _dyadic_cover_reference(a: Fraction, b: Fraction, level: int) -> tuple[Fraction, Fraction]:
    """``_dyadic_cover`` with its level found by a loop over ``Fraction`` cell widths."""
    j = 0
    while j < level and Fraction(1, 2 << j) >= b - a:
        j += 1
    lo = Fraction((a.numerator << j) // a.denominator, 1 << j)
    hi = Fraction(-((-b.numerator << j) // b.denominator), 1 << j)
    return lo, hi


class TestDyadicCover:
    @given(
        st.fractions(min_value=1, max_value=2, max_denominator=10**12),
        st.fractions(min_value=0, max_value=1, max_denominator=10**12),
        st.integers(min_value=0, max_value=120),
    )
    def test_matches_the_loop(self, a, width, level):
        assert _dyadic_cover(a, a + width, level) == _dyadic_cover_reference(a, a + width, level)

    @pytest.mark.parametrize("exponent", [0, 1, 5, 40, 100])
    @pytest.mark.parametrize("level", [0, 3, 60, 200])
    def test_matches_the_loop_at_power_of_two_widths(self, exponent, level):
        """A width of exactly one cell, and one a hair either side of it."""
        a = F(4, 3)
        for width in (F(1, 2**exponent), F(1, 2**exponent) * F(1001, 1000), F(1, 2**exponent) * F(999, 1000)):
            assert _dyadic_cover(a, a + width, level) == _dyadic_cover_reference(a, a + width, level)

    def test_empty_or_point_bracket_takes_the_finest_level(self):
        a = F(7, 5)
        assert _dyadic_cover(a, a, 30) == _dyadic_cover_reference(a, a, 30)
        assert _dyadic_cover(a, a - F(1, 10**9), 30) == _dyadic_cover_reference(a, a - F(1, 10**9), 30)
