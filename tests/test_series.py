"""Exact asymptotic-series algebra: Bernoulli numbers, products, exponentials."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

import mpmath
import pytest
from hypothesis import given, strategies as st

from psicert import (
    AsymptoticExpansion,
    UnsupportedOperationError,
    bernoulli,
    digamma_expansion,
    expansion,
    format_expansion,
    series_add,
    series_derivative,
    series_exp,
    series_mul,
    series_scale,
    series_sub,
    theta_expansion,
    trigamma_exp_digamma_expansion,
    trigamma_expansion,
)
from psicert.series import BernoulliTable, bernoulli_numbers, reciprocal_shift_expansion

F = Fraction


def reference_series_exp(f: AsymptoticExpansion) -> AsymptoticExpansion:
    """``series_exp`` as a plain ``Fraction`` recurrence, ``k b_k = sum j a_j b_{k-j}``."""
    coeffs = f.coeff_map()
    shift = int(f.log_coeff)
    k_max = f.order
    b = [F(1)] + [F(0)] * k_max
    for k in range(1, k_max + 1):
        b[k] = (
            sum(
                (j * coeffs.get(j, F(0)) * b[k - j] for j in range(1, k + 1)),
                start=F(0),
            )
            / k
        )
    return expansion({k - shift: b[k] for k in range(k_max + 1)}, k_max - shift)


@lru_cache(maxsize=None)
def reference_bernoulli(n: int) -> Fraction:
    """B_n from the defining recurrence ``sum_{j=0}^{n} C(n+1, j) B_j = 0``.

    Odd ``j >= 3`` contribute zero and are skipped.
    """
    if n == 0:
        return F(1)
    if n > 1 and n % 2 == 1:
        return F(0)
    acc = sum(
        (F(comb(n + 1, j)) * reference_bernoulli(j) for j in range(n) if j < 2 or j % 2 == 0),
        start=F(0),
    )
    return -acc / (n + 1)


FULL_BERNOULLI_TABLE = BernoulliTable().upto(600)


class TestBernoulli:
    def test_first_values(self):
        expected = {
            0: F(1),
            1: F(-1, 2),
            2: F(1, 6),
            4: F(-1, 30),
            6: F(1, 42),
            8: F(-1, 30),
            10: F(5, 66),
            12: F(-691, 2730),
        }
        for n, value in expected.items():
            assert bernoulli(n) == value

    def test_odd_indices_vanish(self):
        assert all(bernoulli(n) == 0 for n in range(3, 30, 2))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            bernoulli(-1)

    def test_defining_recurrence(self):
        """sum_{k<n} C(n,k) B_k = 0 for n >= 2."""
        for n in range(2, 20):
            assert sum(comb(n, k) * bernoulli(k) for k in range(n)) == 0

    def test_against_mpmath_exact_values(self):
        """mpmath's exact fractions are an independent oracle."""
        for n in range(1001):
            assert bernoulli(n) == F(*mpmath.bernfrac(n)), n

    def test_matches_reference_recurrence(self):
        for n in range(301):
            assert bernoulli(n) == reference_bernoulli(n), n

    def test_range_agrees_with_single_lookups(self):
        assert bernoulli_numbers(40) == [bernoulli(n) for n in range(41)]
        with pytest.raises(ValueError):
            bernoulli_numbers(-1)

    def test_growth_stops_at_the_requested_index(self):
        """Growth costs about n**3 bit operations, so neither a range read
        nor a single lookup may grow the table past the index it asks for
        (each growth step adds one even index and the odd one after it)."""
        table = BernoulliTable()
        table.upto(300)
        assert len(table._values) <= 302
        table[400]
        assert len(table._values) <= 402
        table[403]
        assert len(table._values) <= 404

    @given(
        st.lists(st.integers(min_value=0, max_value=600), min_size=1, max_size=12).flatmap(
            lambda xs: st.sampled_from([sorted(xs), sorted(xs, reverse=True), xs])
        ),
        st.lists(st.booleans(), min_size=12, max_size=12),
    )
    def test_growth_order_does_not_change_values(self, indices, as_range):
        """Single lookups and range reads, in ascending, descending or mixed
        order from an empty table, all read the values of one full table."""
        full = FULL_BERNOULLI_TABLE
        table = BernoulliTable()
        for n, whole in zip(indices, as_range):
            if whole:
                assert table.upto(n) == full[: n + 1]
            else:
                assert table[n] == full[n]


class TestExpansionType:
    def test_zero_coefficients_rejected(self):
        with pytest.raises(ValueError):
            AsymptoticExpansion(F(0), ((1, F(0)),), 4)

    def test_unsorted_keys_rejected(self):
        with pytest.raises(ValueError):
            AsymptoticExpansion(F(0), ((2, F(1)), (1, F(1))), 4)

    def test_coefficient_beyond_order_raises(self):
        e = expansion({1: 1}, 3)
        assert e.coeff(3) == 0
        with pytest.raises(ValueError):
            e.coeff(4)

    def test_low_degree_tracks_positive_powers(self):
        assert expansion({-2: 1, 1: 5}, 4).low_degree == 2
        assert expansion({1: 5}, 4).low_degree == 0

    def test_formatting(self):
        text = format_expansion(digamma_expansion(4))
        assert text == "ln(x) + 1/(2x) - 1/(12x^2) + 1/(120x^4) + O(x^-5)"


class TestNamedExpansions:
    def test_digamma_coefficients(self):
        e = digamma_expansion(10)
        assert e.log_coeff == 1
        assert e.coeff_map() == {
            1: F(1, 2),
            2: F(-1, 12),
            4: F(1, 120),
            6: F(-1, 252),
            8: F(1, 240),
            10: F(-1, 132),
        }

    def test_digamma_matches_bernoulli_formula(self):
        e = digamma_expansion(12)
        for k in range(2, 13):
            assert e.coeff(k) == -bernoulli(k) / k

    def test_trigamma_coefficients(self):
        e = trigamma_expansion(11)
        assert e.log_coeff == 0
        assert e.coeff_map() == {
            1: F(1),
            2: F(-1, 2),
            3: F(1, 6),
            5: F(-1, 30),
            7: F(1, 42),
            9: F(-1, 30),
            11: F(5, 66),
        }

    def test_trigamma_is_derivative_of_digamma(self):
        for order in (*range(1, 121), 199):
            assert trigamma_expansion(order) == series_derivative(digamma_expansion(order - 1)), order

    def test_theta_expansion_values(self):
        th1 = theta_expansion(1, 7)
        th2 = theta_expansion(2, 7)
        # both agree with the trigamma expansion through x^-4 ...
        for k in range(1, 5):
            assert th1.coeff(k) == trigamma_expansion(7).coeff(k)
            assert th2.coeff(k) == trigamma_expansion(7).coeff(k)
        # ... and first deviate at x^-5 and x^-7 respectively
        assert trigamma_expansion(7).coeff(5) - th1.coeff(5) == F(1, 24)
        assert th2.coeff(5) == trigamma_expansion(7).coeff(5)
        assert trigamma_expansion(7).coeff(7) - th2.coeff(7) == F(-1, 45)

    def test_order_zero_is_the_part_that_does_not_decay(self):
        assert format_expansion(digamma_expansion(0)) == "ln(x) + O(x^-1)"
        assert format_expansion(trigamma_expansion(0)) == "0 + O(x^-1)"
        assert format_expansion(theta_expansion(F(-7, 5), 0)) == "0 + O(x^-1)"
        assert format_expansion(trigamma_exp_digamma_expansion(0)) == "x + 1/2 + O(x^-1)"
        assert reciprocal_shift_expansion(3, 0) == expansion({}, 0)
        for build in (digamma_expansion, trigamma_expansion, lambda n: reciprocal_shift_expansion(1, n)):
            with pytest.raises(ValueError):
                build(-1)

    def test_product_is_the_cauchy_product_of_its_factors(self):
        """The factors expanded two orders deeper, since exp(2 psi) grows like x**2."""
        for order in (*range(-1, 61), 145):
            depth = order + 2
            growth = series_exp(series_scale(digamma_expansion(depth), 2))
            product = series_mul(trigamma_expansion(depth), growth)
            assert product.order == order
            assert trigamma_exp_digamma_expansion(order) == product, order

    def test_product_expansion(self):
        e = trigamma_exp_digamma_expansion(6)
        assert e.log_coeff == 0
        assert list(e.coeffs) == [
            (-1, F(1)),
            (0, F(1, 2)),
            (3, F(1, 90)),
            (4, F(-1, 60)),
            (5, F(2, 567)),
            (6, F(43, 2268)),
        ]
        assert e.coeff(1) == 0 and e.coeff(2) == 0


small_fracs = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@st.composite
def plain_expansions(draw, min_key=-2, max_order=6, max_terms=5, fracs=small_fracs):
    order = draw(st.integers(min_value=max(min_key + 1, 0), max_value=max_order))
    keys = draw(
        st.lists(
            st.integers(min_value=min_key, max_value=order),
            unique=True,
            max_size=max_terms,
        )
    )
    coeffs = {k: draw(fracs) for k in keys}
    return expansion(coeffs, order)


# deep operands with mixed denominators, so the common denominators are large
mixed_fracs = st.fractions(min_value=-9, max_value=9, max_denominator=60)
deep_expansions = plain_expansions(max_order=30, max_terms=20, fracs=mixed_fracs)
mul_operands = st.one_of(plain_expansions(), deep_expansions)


@st.composite
def exp_arguments(draw):
    """Log-free-growth arguments of ``series_exp``: keys from 1, ln coefficient 0-3."""
    inner = draw(plain_expansions(min_key=1, max_order=30, max_terms=12, fracs=mixed_fracs))
    return expansion(inner.coeffs, inner.order, draw(st.integers(min_value=0, max_value=3)))


class TestAlgebra:
    def test_add_sub_scale(self):
        u = expansion({1: F(1, 2), 3: F(-1, 4)}, 5)
        v = expansion({1: F(1, 2), 2: F(2)}, 5)
        assert series_add(u, v).coeff_map() == {1: F(1), 2: F(2), 3: F(-1, 4)}
        assert series_sub(u, u).coeff_map() == {}
        assert series_scale(u, -2).coeff(3) == F(1, 2)

    @given(mul_operands, mul_operands)
    def test_mul_matches_brute_force_convolution(self, u, v):
        result = series_mul(u, v)
        for k, coefficient in result.coeff_map().items():
            brute = sum(
                (
                    cu * cv
                    for i, cu in u.coeff_map().items()
                    for j, cv in v.coeff_map().items()
                    if i + j == k
                ),
                start=F(0),
            )
            assert coefficient == brute
        # spot-check a zero: every representable index not present must
        # genuinely convolve to zero
        for k in range(-result.low_degree, result.order + 1):
            if k not in result.coeff_map():
                brute = sum(
                    (
                        cu * cv
                        for i, cu in u.coeff_map().items()
                        for j, cv in v.coeff_map().items()
                        if i + j == k
                    ),
                    start=F(0),
                )
                assert brute == 0

    def test_mul_order_is_tight(self):
        u = expansion({-1: 1}, 3)  # x + O(x^-4)
        v = expansion({2: 1}, 5)  # x^-2 + O(x^-6)
        assert series_mul(u, v).order == min(3 + 2, 5 + (-1))

    def test_mul_rejects_log_terms(self):
        with pytest.raises(UnsupportedOperationError):
            series_mul(digamma_expansion(4), trigamma_expansion(4))

    @given(plain_expansions(min_key=1), plain_expansions(min_key=1))
    def test_exp_functional_equation(self, u, v):
        lhs = series_exp(series_add(u, v))
        rhs = series_mul(series_exp(u), series_exp(v))
        for k in range(0, min(lhs.order, rhs.order) + 1):
            assert lhs.coeff(k) == rhs.coeff(k)

    @given(exp_arguments())
    def test_exp_matches_fraction_recurrence(self, f):
        assert series_exp(f) == reference_series_exp(f)

    def test_deep_theta_matches_fraction_recurrence(self):
        m, order = F(3, 2), 200
        grow = reference_series_exp(series_scale(reciprocal_shift_expansion(1, order), m))
        decay = reference_series_exp(expansion({1: -m}, order))
        expected = series_scale(series_sub(grow, decay), 1 / (2 * m))
        assert theta_expansion(m, order) == expected

    def test_exp_of_zero_is_one(self):
        e = series_exp(expansion({}, 5))
        assert e.coeff_map() == {0: F(1)}

    def test_exp_derivative_consistency(self):
        """(e^f)' = f' e^f, checked exactly through the common order."""
        f = expansion({1: F(1, 3), 2: F(-2, 5)}, 7)
        lhs = series_derivative(series_exp(f))
        rhs = series_mul(series_derivative(f), series_exp(f))
        for k in range(2, min(lhs.order, rhs.order) + 1):
            assert lhs.coeff(k) == rhs.coeff(k)

    def test_exp_rejects_constant_or_growing_terms(self):
        with pytest.raises(UnsupportedOperationError):
            series_exp(expansion({0: 1, 1: 1}, 4))
        with pytest.raises(UnsupportedOperationError):
            series_exp(expansion({-2: 1}, 4))

    def test_exp_with_log_multiple(self):
        """exp(2 ln x + 1/x) = x^2 exp(1/x): compare coefficient shifts."""
        inner = AsymptoticExpansion(F(2), ((1, F(1)),), 5)
        outer = series_exp(inner)
        plain = series_exp(expansion({1: 1}, 5))
        assert outer.order == plain.order - 2
        for k in range(-2, outer.order + 1):
            assert outer.coeff(k) == plain.coeff(k + 2)

    def test_exp_rejects_fractional_log_coefficient(self):
        inner = AsymptoticExpansion(F(1, 2), ((1, F(1)),), 5)
        with pytest.raises(UnsupportedOperationError):
            series_exp(inner)

    def test_derivative_shifts_and_scales(self):
        u = expansion({-1: F(3), 2: F(5)}, 4)
        d = series_derivative(u)
        assert d.coeff(0) == 3  # d/dx 3x
        assert d.coeff(3) == -10  # d/dx 5x^-2
