"""Exact algebra of truncated asymptotic expansions in descending powers.

An expansion represents ``c * ln(x) + sum_k a_k * x**(-k)`` with exact
rational coefficients, truncated at a known order ``K``: coefficients of
``x**(-k)`` for ``k > K`` are unknown, not zero.  Negative indices ``k``
carry nonnegative powers of ``x``, so polynomially growing prefactors fit
in the same container.  Every operation tracks how far the result's
coefficients remain fully determined and truncates there.  The Bernoulli
numbers come from tangent numbers in one growing table
(:class:`BernoulliTable`).  The terms of psi(x+1) are stated once, as
``-B_k / (k x**k)``, in one stream that reads the table one Bernoulli number
a term (:func:`psi_terms`); psi'(x+1) and ``psi'(x+1) exp(2 psi(x+1))`` are
derived from them as derivatives.  theta's two exponentials come from their
own coefficient recurrences (:func:`theta_expansion`).  An expansion prints
(:func:`format_expansion`) through :mod:`psicert.interval`'s converter, so a
coefficient of any size prints in full.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from functools import lru_cache

from .interval import Frozen, _rational_text

__all__ = [
    "AsymptoticExpansion",
    "BernoulliTable",
    "UnsupportedOperationError",
    "bernoulli",
    "bernoulli_numbers",
    "digamma_expansion",
    "expansion",
    "format_expansion",
    "psi_terms",
    "reciprocal_shift_expansion",
    "series_add",
    "series_derivative",
    "series_exp",
    "series_mul",
    "series_scale",
    "series_sub",
    "theta_expansion",
    "trigamma_expansion",
    "trigamma_exp_digamma_expansion",
]


class UnsupportedOperationError(ValueError):
    """The requested series operation is not defined for these operands."""


class BernoulliTable:
    """Exact Bernoulli numbers ``B_0..B_n`` in one list that only grows.

    The even-index numbers come from the tangent numbers ``T_k``, the
    coefficients of ``tan x = sum_k T_k x**(2k-1) / (2k-1)!``, by

        ``B_{2k} = (-1)**(k-1) * 2k * T_k / (4**k * (4**k - 1))``;

    ``B_1 = -1/2`` and ``B_n = 0`` for odd ``n >= 3``.  The tangent numbers
    are the diagonal of the integer triangle of Brent & Harvey, "Fast
    computation of Bernoulli, Tangent and Secant numbers" (arXiv:1108.0286,
    Algorithm TangentNumbers): ``D(1, m) = (m-1)!`` and
    ``D(i, m) = (m-i) D(i, m-1) + (m-i+2) D(i-1, m)``, with ``T_m = D(m, m)``.
    The table keeps the last column ``D(1..m, m)``, so each further tangent
    number costs ``m`` small-integer multiply-adds and no earlier work is
    redone; all arithmetic is exact.
    """

    def __init__(self) -> None:
        self._values = [Fraction(1), Fraction(-1, 2)]
        self._column: list[int] = []  # D(1..m, m) for the last m computed

    def _grow(self, n: int) -> None:
        """Extend the table through index ``n`` (and at most one more)."""
        if n < 0:
            raise ValueError("Bernoulli numbers are indexed by nonnegative integers")
        values = self._values
        while len(values) <= n:
            previous = self._column + [0]
            m = len(previous)
            column = [previous[0] * (m - 1) if m > 1 else 1]
            for i in range(2, m + 1):
                column.append((m - i) * previous[i - 1] + (m - i + 2) * column[-1])
            self._column = column
            numerator = 2 * m * column[-1]
            four_m = 1 << (2 * m)
            values.append(Fraction(numerator if m % 2 else -numerator, four_m * (four_m - 1)))
            values.append(Fraction(0))

    def upto(self, n: int) -> list[Fraction]:
        """``[B_0, ..., B_n]``, growing the table only as far as ``n``."""
        self._grow(n)
        return self._values[: n + 1]

    def __getitem__(self, n: int) -> Fraction:
        """``B_n``, growing the table only as far as ``n``."""
        self._grow(n)
        return self._values[n]


_BERNOULLI = BernoulliTable()


def bernoulli(n: int) -> Fraction:
    """The n-th Bernoulli number, with B(1) = -1/2 (see :class:`BernoulliTable`)."""
    return _BERNOULLI[n]


def bernoulli_numbers(n: int) -> list[Fraction]:
    """``[B_0, ..., B_n]``, computed once for the top index ``n``."""
    return _BERNOULLI.upto(n)


class AsymptoticExpansion(Frozen):
    """``log_coeff * ln(x) + sum a_k x**(-k)``, coefficients exact through order.

    ``low_degree``, the degree of the polynomially growing part (0 if none),
    is derived from the coefficients.
    """

    __slots__ = ("log_coeff", "coeffs", "order", "low_degree")
    log_coeff: Fraction
    coeffs: tuple[tuple[int, Fraction], ...]
    order: int
    low_degree: int

    def __init__(
        self, log_coeff: Fraction, coeffs: tuple[tuple[int, Fraction], ...], order: int
    ) -> None:
        keys = [k for k, _ in coeffs]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            raise ValueError("coefficient indices must be strictly increasing")
        if any(c == 0 for _, c in coeffs):
            raise ValueError("zero coefficients must be omitted")
        if keys and keys[-1] > order:
            raise ValueError(
                f"coefficient index {keys[-1]} exceeds truncation order {order}"
            )
        super().__init__(log_coeff, coeffs, order, max(0, -keys[0]) if keys else 0)

    def coeff(self, k: int) -> Fraction:
        """Coefficient of ``x**(-k)``; raises beyond the truncation order."""
        if k > self.order:
            raise ValueError(
                f"coefficient of x^-{k} is not determined at truncation order {self.order}"
            )
        return dict(self.coeffs).get(k, Fraction(0))

    def coeff_map(self) -> dict[int, Fraction]:
        return dict(self.coeffs)

    def __str__(self) -> str:
        return format_expansion(self)


def expansion(
    coeffs: Mapping[int, Fraction | int] | Iterable[tuple[int, Fraction | int]],
    order: int,
    log_coeff: Fraction | int = 0,
) -> AsymptoticExpansion:
    """Build an expansion from any coefficient mapping, dropping zeros."""
    items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
    cleaned = sorted((k, Fraction(c)) for k, c in items if c != 0)
    return AsymptoticExpansion(Fraction(log_coeff), tuple(cleaned), order)


def _min_key(e: AsymptoticExpansion) -> int:
    return e.coeffs[0][0] if e.coeffs else e.order + 1


def series_add(u: AsymptoticExpansion, v: AsymptoticExpansion) -> AsymptoticExpansion:
    order = min(u.order, v.order)
    merged: dict[int, Fraction] = {}
    for k, c in (*u.coeffs, *v.coeffs):
        if k <= order:
            merged[k] = merged.get(k, Fraction(0)) + c
    return expansion(merged, order, u.log_coeff + v.log_coeff)


def series_scale(u: AsymptoticExpansion, scalar: Fraction | int) -> AsymptoticExpansion:
    s = Fraction(scalar)
    return expansion({k: s * c for k, c in u.coeffs}, u.order, s * u.log_coeff)


def series_sub(u: AsymptoticExpansion, v: AsymptoticExpansion) -> AsymptoticExpansion:
    return series_add(u, series_scale(v, -1))


def _over_common_denominator(values: list[Fraction]) -> tuple[int, list[int]]:
    """``(d, [v * d for v in values])`` with ``d`` the lcm of the denominators."""
    d = math.lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def series_mul(u: AsymptoticExpansion, v: AsymptoticExpansion) -> AsymptoticExpansion:
    """Cauchy product; operands must be log-free.

    The product coefficient at index ``n`` needs every ``u`` index up to
    ``n - min_key(v)`` and vice versa, which caps the sound result order at
    ``min(order(u) + min_key(v), order(v) + min_key(u))``.  Each operand is
    put over the lcm of its denominators, the integer numerators are
    convolved, and each product coefficient is reduced once.
    """
    if u.log_coeff != 0 or v.log_coeff != 0:
        raise UnsupportedOperationError(
            "product of expansions with logarithmic terms is not representable"
        )
    low_u, low_v = _min_key(u), _min_key(v)
    order = min(u.order + low_v, v.order + low_u)
    span = range(order - low_u - low_v + 1)
    cu, cv = u.coeff_map(), v.coeff_map()
    du, nu = _over_common_denominator([cu.get(low_u + t, Fraction(0)) for t in span])
    dv, nv = _over_common_denominator([cv.get(low_v + t, Fraction(0)) for t in span])
    out = {
        low_u + low_v + t: Fraction(sum(map(operator.mul, nu[: t + 1], nv[t::-1])), du * dv)
        for t in span
    }
    return expansion(out, order)


def series_exp(f: AsymptoticExpansion) -> AsymptoticExpansion:
    """Exponential of an expansion, ``exp(c ln x + sum a_k x^-k) = x^c * exp(...)``.

    Requires a vanishing constant term, no growing powers, and a nonnegative
    integer logarithmic coefficient ``c`` (which turns into a shift of the
    result's indices by ``-c``).  Coefficients follow the recurrence
    ``k b_k = sum_{j=1}^{k} j a_j b_{k-j}`` with ``b_0 = 1``, run on integer
    numerators: the ``j a_j`` over their lcm ``d``, the earlier ``b`` over
    their running lcm ``L``, so that each ``b_k`` is one reduction of
    ``sum / (k d L)``.
    """
    if f.log_coeff.denominator != 1 or f.log_coeff < 0:
        raise UnsupportedOperationError(
            "exp of an expansion requires a nonnegative integer ln coefficient, "
            f"got {_rational_text(f.log_coeff)}"
        )
    if f.low_degree > 0:
        raise UnsupportedOperationError("exp of a growing expansion is not representable")
    coeffs = f.coeff_map()
    if coeffs.get(0, Fraction(0)) != 0:
        raise UnsupportedOperationError(
            "exp requires a vanishing constant term; scale it out first"
        )
    shift = int(f.log_coeff)
    k_max = f.order
    d, ja = _over_common_denominator(
        [j * coeffs.get(j, Fraction(0)) for j in range(1, k_max + 1)]
    )
    b = [Fraction(1)]
    big_l, b_num = 1, [1]  # b_num[i] = b_i * big_l
    for k in range(1, k_max + 1):
        b_k = Fraction(sum(map(operator.mul, ja[:k], reversed(b_num))), k * d * big_l)
        b.append(b_k)
        grow = b_k.denominator // math.gcd(big_l, b_k.denominator)
        if grow != 1:
            big_l *= grow
            b_num = [n * grow for n in b_num]
        b_num.append(b_k.numerator * (big_l // b_k.denominator))
    return expansion({k - shift: b[k] for k in range(k_max + 1)}, k_max - shift)


def series_derivative(u: AsymptoticExpansion) -> AsymptoticExpansion:
    """Termwise derivative: ``d/dx [c ln x + sum a_k x^-k]``."""
    out: dict[int, Fraction] = {}
    if u.log_coeff != 0:
        out[1] = u.log_coeff
    for k, c in u.coeffs:
        if k != 0:
            out[k + 1] = out.get(k + 1, Fraction(0)) - k * c
    return expansion(out, u.order + 1)


def reciprocal_shift_expansion(a: Fraction | int, order: int) -> AsymptoticExpansion:
    """Expansion of ``1 / (x + a)`` as ``sum_{k>=1} (-a)**(k-1) x**(-k)``."""
    if order < 0:
        raise ValueError("order must be at least 0")
    a = Fraction(a)
    coeffs: dict[int, Fraction] = {}
    power = Fraction(1)
    for k in range(1, order + 1):
        coeffs[k] = power
        power *= -a
    return expansion(coeffs, order)


@lru_cache(maxsize=None)
def _digamma_coefficient(k: int) -> Fraction:
    """``-B_k / k``, memoised: every psi evaluation reads the first terms
    again, and a hit costs a fraction of the division."""
    return _BERNOULLI[k] / -k


def psi_terms(power: int) -> Iterator[tuple[int, Fraction]]:
    """The nonzero terms ``(k, c)``, ``c x**-k``, of psi(x+1) after its ln x
    (``power`` 1) or of psi'(x+1) (``power`` 2), in increasing ``k``, without end.

    psi(x+1)'s are ``-B_k / (k x**k)``: with ``B_1 = -1/2`` the first is
    ``1/(2x)``, and after it ``k`` runs over the even numbers.  psi'(x+1)'s
    are their derivatives, ``B_k / x**(k+1)``, after the ``1/x`` of ln x.
    Each term reads one Bernoulli number, so the table grows only as far as
    the terms are read.
    """
    if power == 2:
        yield 1, Fraction(1)
    for k in itertools.chain((1,), itertools.count(2, 2)):
        yield (k, _digamma_coefficient(k)) if power == 1 else (k + 1, _BERNOULLI[k])


def digamma_expansion(order: int) -> AsymptoticExpansion:
    """Expansion of psi(x+1): ``ln x - sum_{k>=1} B_k / (k x^k)``, ``B_1 = -1/2``."""
    if order < 0:
        raise ValueError("order must be at least 0")
    terms = itertools.takewhile(lambda t: t[0] <= order, psi_terms(1))
    return expansion(terms, order, log_coeff=1)


def trigamma_expansion(order: int) -> AsymptoticExpansion:
    """Expansion of psi'(x+1), the derivative of psi(x+1)'s:
    ``sum_{k>=1} B_{k-1} x**(-k)``."""
    if order < 0:
        raise ValueError("order must be at least 0")
    terms = itertools.takewhile(lambda t: t[0] <= order, psi_terms(2))
    return expansion(terms, order)


def theta_expansion(m: Fraction | int, order: int) -> AsymptoticExpansion:
    """Expansion of ``(exp(m/(x+1)) - exp(-m/x)) / (2m)``.

    ``f = exp(m/(x+1)) = sum_k c_k x**-k`` solves ``(x+1)**2 f' = -m f``, so
    ``c_0 = 1``, ``c_1 = m`` and ``(k+1) c_{k+1} = (m - 2k) c_k - (k-1) c_{k-1}``;
    the coefficients of ``exp(-m/x)`` are ``(-m)**k / k!``.
    """
    m = Fraction(m)
    if m == 0:
        raise ValueError("the parameter must be nonzero")
    if order < 0:
        raise ValueError("order must be at least 0")
    grow, decay = [Fraction(1), m], [Fraction(1), -m]
    for k in range(1, order):
        grow.append(((m - 2 * k) * grow[k] - (k - 1) * grow[k - 1]) / (k + 1))
        decay.append(decay[k] * -m / (k + 1))
    half = 1 / (2 * m)
    return expansion({k: (grow[k] - decay[k]) * half for k in range(order + 1)}, order)


def trigamma_exp_digamma_expansion(order: int) -> AsymptoticExpansion:
    """Expansion of ``psi'(x+1) * exp(2 psi(x+1))``, sound through ``order``.

    It is ``(1/2) d/dx exp(2 psi(x+1))``.  ``exp(2 psi(x+1))`` is ``x**2``
    times the exponential of the rest of ``2 psi(x+1)``, so from psi's
    expansion through ``order + 1`` it is known through ``order - 1``, and
    its derivative through ``order``.
    """
    if order < -1:
        raise ValueError("order must be at least -1")
    growth = series_exp(series_scale(digamma_expansion(order + 1), 2))
    return series_scale(series_derivative(growth), Fraction(1, 2))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def format_expansion(e: AsymptoticExpansion) -> str:
    """Human-readable rendering, e.g. ``ln(x) + 1/(2x) - 1/(12x^2) + O(x^-3)``."""
    parts: list[str] = []
    if e.log_coeff != 0:
        prefix = "" if e.log_coeff == 1 else f"{_rational_text(e.log_coeff)} "
        parts.append(f"+ {prefix}ln(x)")
    for k, c in e.coeffs:
        mag = _rational_text(abs(c))
        power = "x" if abs(k) == 1 else f"x^{abs(k)}"
        numerator, _, denominator = mag.partition("/")
        if k == 0:
            body = mag
        elif k > 0:
            body = f"{numerator}/({denominator}{power})" if denominator else f"{mag}/{power}"
        else:
            body = power if mag == "1" else f"{mag}{power}"
        parts.append(("- " if c < 0 else "+ ") + body)
    rendered = " ".join(parts).removeprefix("+ ") or "0"
    return f"{rendered} + O(x^-{e.order + 1})"
