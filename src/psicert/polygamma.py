"""Certified rational enclosures of digamma, trigamma, and derived constants.

:func:`digamma_enclosure` and :func:`trigamma_enclosure` take a bit target
and return an enclosure of width at most ``2**-bits``; the shift and the
truncation order that meet it are chosen here and nowhere else.  They
combine the recurrences ``psi(x+1) = psi(x) + 1/x`` and ``psi'(x+1) =
psi'(x) - 1/x**2``, summed in fixed point (see :func:`_reciprocal_sum`),
with the asymptotic expansions of ``psi(y+1)`` and ``psi'(y+1)`` from
:mod:`psicert.series` at a shifted argument ``y`` that grows linearly with
the bits (see :func:`_shift_count`).  Both expansions are enveloping (Alzer,
*Math. Comp.* 66, 1997): a truncation errs by less than its first omitted
term and with that term's sign, so the value lies between the sum of all
terms but the last and the sum of all of them (see :func:`_enveloped`).  The
truncation is the shortest whose last term is below the target (see
:func:`_truncation`).

:func:`digamma_enclosure` and :func:`trigamma_enclosure` are memoised per
argument and per bit target in a bounded LRU cache (see
:data:`~psicert.elementary.ENCLOSURE_CACHE_SIZE`), so the sides and pairs
of an inequality that share ``psi(x+1)`` or ``psi'(x+1)`` compute it once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .elementary import ENCLOSURE_CACHE_SIZE, iv_exp, iv_ln, iv_pi
from .interval import DomainError, Interval
from .series import digamma_expansion, trigamma_expansion

__all__ = [
    "batir_bstar_enclosure",
    "digamma_enclosure",
    "digamma_zero",
    "euler_gamma_enclosure",
    "trigamma_enclosure",
]

# A kernel's width is a sum of at most three parts of at most 2**-(bits + 2).
_GUARD_BITS = 2


def _validate(x: Fraction | int) -> Fraction:
    x = Fraction(x)
    if x <= 0:
        raise DomainError(f"argument must be positive, got {x}")
    return x


def _shift_count(x: Fraction, w: int) -> int:
    """Smallest ``n >= 0`` with ``y = x + n - 1 >= s``, ``s = floor(3w/25) + 2``.

    The linear rule is that of mpmath's ``mpf_psi0``.  Since ``|B_2m| <
    4 (2m)! / (2 pi)**(2m)``, term ``m`` of either expansion is at most
    ``4 (2m)! / (2 pi y)**(2m)`` times ``1/(2m)`` (psi) or ``1/y`` (psi').
    Consecutive terms shrink by less than ``(2m+2)(2m+1) / (2 pi y)**2``, so
    they decrease up to ``m = floor(pi y)``, where Stirling's bound puts
    them below ``150 e**(-2 pi y)``; ``y > 3w/25 + 1`` makes that below
    ``2**-(1.08 w)``.  So the terms reach ``2**-w`` before they grow.
    """
    return max(0, math.ceil(3 * w // 25 + 3 - x))


@lru_cache(maxsize=None)
def _expansion_terms(power: int, order: int) -> tuple[tuple[int, Fraction], ...]:
    """Coefficients of the expansion of psi(y+1) (power 1) or psi'(y+1) (power 2)."""
    return (digamma_expansion if power == 1 else trigamma_expansion)(order).coeffs


def _truncation(power: int, y: Fraction, w: int) -> tuple[tuple[int, Fraction], ...]:
    """The shortest expansion of ``psi(y+1)`` or ``psi'(y+1)`` whose last term
    is at most ``2**-w`` at ``y``.

    The orders step over the Bernoulli terms ``y**-(2m)`` of psi and
    ``y**-(2m+1)`` of psi', starting at ``m = 1``.  A term that does not
    shrink before it reaches ``2**-w`` raises ``ArithmeticError``, so the
    loop is bounded; at the shifts of :func:`_shift_count` it never does.
    """
    target = Fraction(1, 1 << w)
    order = power + 1
    previous = None
    while True:
        terms = _expansion_terms(power, order)
        k, c = terms[-1]
        size = abs(c) / y**k
        if size <= target:
            return terms
        if previous is not None and size >= previous:
            raise ArithmeticError(f"the expansion at y = {y} does not reach 2**-{w}")
        previous = size
        order += 2


_SUM_GUARD_BITS = 4


def _enveloped(terms: tuple[tuple[int, Fraction], ...], y: Fraction) -> Interval:
    """Hull of the sum of ``c * y**-k`` over all ``terms`` and over all but the last."""
    *kept, (k, c) = terms
    partial = sum(coeff / y**power for power, coeff in kept)
    return Interval.point(partial).hull(Interval.point(partial + c / y**k))


def _reciprocal_sum(x: Fraction, n: int, power: int, bits: int) -> Interval:
    """Enclosure of ``sum_{k=0}^{n-1} (x + k)**-power`` of width below ``2**-bits``.

    With ``x = a/b`` term ``k`` is ``b**power / (a + k*b)**power``.  In ulps
    of ``2**-w`` it lies in ``[t_k, t_k + 1)``, where ``t_k`` is the floor
    quotient ``(b**power << w) // (a + k*b)**power``, so the sum lies in
    ``[T, T + n)`` with ``T = sum t_k``: directed rounding that costs at
    most ``n`` ulps.  ``w = bits + n.bit_length() + guard`` makes
    ``n * 2**-w < 2**-bits``.
    """
    a, b = x.numerator, x.denominator
    w = bits + n.bit_length() + _SUM_GUARD_BITS
    scaled = b**power << w
    total = sum(scaled // d**power for d in range(a, a + n * b, b))
    return Interval(Fraction(total, 1 << w), Fraction(total + n, 1 << w))


@lru_cache(maxsize=ENCLOSURE_CACHE_SIZE)
def digamma_enclosure(x: Fraction | int, bits: int = 64) -> Interval:
    """Enclosure of ``psi(x)`` for rational ``x > 0``, of width at most ``2**-bits``.

    With ``w = bits + 2``, ``n`` from :func:`_shift_count` and ``y = x + n - 1``,
    ``psi(x) = ln y + (psi(y+1) - ln y) - sum_{k<n} 1/(x+k)``.  Each of the
    three parts has width at most ``2**-w``: ``iv_ln(y, w)`` rounds outward
    on a grid 32 bits finer than ``2**-w`` from an enclosure at least 40 bits
    finer; the enveloped window is the last term of :func:`_truncation`; and
    :func:`_reciprocal_sum` is below ``2**-w``.  The width is below
    ``3 * 2**-w < 2**-bits``.  The sum is returned exact, not rounded.
    """
    x = _validate(x)
    w = bits + _GUARD_BITS
    n = _shift_count(x, w)
    y = x + n - 1  # psi(x) = psi(y + 1) - sum_{k=0}^{n-1} 1/(x + k)
    enclosure = iv_ln(y, w) + _enveloped(_truncation(1, y, w), y)
    return enclosure - _reciprocal_sum(x, n, 1, w)


@lru_cache(maxsize=ENCLOSURE_CACHE_SIZE)
def trigamma_enclosure(x: Fraction | int, bits: int = 64) -> Interval:
    """Enclosure of ``psi'(x)`` for rational ``x > 0``, of width at most ``2**-bits``.

    As in :func:`digamma_enclosure`, without the logarithm: the enveloped
    window and the recurrence sum are each at most ``2**-w``, so the width
    is below ``2 * 2**-w < 2**-bits``.  The asymptotic part is exact.
    """
    x = _validate(x)
    w = bits + _GUARD_BITS
    n = _shift_count(x, w)
    y = x + n - 1  # psi'(x) = psi'(y + 1) + sum_{k=0}^{n-1} 1/(x + k)^2
    return _enveloped(_truncation(2, y, w), y) + _reciprocal_sum(x, n, 2, w)


def euler_gamma_enclosure(bits: int = 64) -> Interval:
    """Enclosure of the Euler-Mascheroni constant as ``-psi(1)``, width at most ``2**-bits``."""
    return -digamma_enclosure(1, bits)


@lru_cache(maxsize=None)
def batir_bstar_enclosure(bits: int = 64) -> Interval:
    """Enclosure of ``pi**2 / (6 e**(2 gamma))``, about 0.5181, of width at most ``2**-bits``.

    gamma, pi and exp are evaluated at ``v = bits + 2`` bits.  Then ``2 gamma``
    is known to ``2**(1-v)``, and exp, of slope below 3.2 there, maps it to
    ``E`` of width below ``3.2 * 2**(1-v) + 2**-v < 7 * 2**-v``.  ``P = pi**2``
    has width at most ``(2 pi + 2**-v) 2**-v < 7 * 2**-v``.  With ``P < 10``
    and ``E > 3`` the quotient's width ``(P.hi E.hi - P.lo E.lo) / (6 E.lo E.hi)``
    is below ``(7/3 + 70/9) / 6 * 2**-v < 2**(1-v) = 2**-(bits + 1)``.
    """
    v = bits + 2
    two_gamma = euler_gamma_enclosure(v) * 2
    return iv_pi(v) ** 2 / (6 * iv_exp(two_gamma, v))


def _dyadic_cover(a: Fraction, b: Fraction, level: int) -> tuple[Fraction, Fraction]:
    """``[a, b]`` rounded outward onto the grid ``2**-j``, one or two cells wide.

    ``j`` is the finest level up to ``level`` whose cell is at least
    ``b - a`` wide, so the rounded bracket is at most two cells, and its
    midpoint, when it is two, lies on the grid.
    """
    j = 0
    while j < level and Fraction(1, 2 << j) >= b - a:
        j += 1
    lo = Fraction((a.numerator << j) // a.denominator, 1 << j)
    hi = Fraction(-((-b.numerator << j) // b.denominator), 1 << j)
    return lo, hi


def digamma_zero(tolerance: Fraction | int = Fraction(1, 10**6)) -> Interval:
    """Enclosure of the positive root of psi, about 1.4616, width <= tolerance.

    The root ``r`` lies in ``[1, 2]`` (psi(1) = -gamma < 0 < 1 - gamma =
    psi(2)).  Interval Newton narrows that bracket ``X`` first.  For the
    midpoint ``m`` the mean value theorem gives ``psi(m) = psi'(xi) (m - r)``
    with ``xi`` between ``m`` and ``r``, so in ``X``; psi' is positive and
    decreasing, so ``psi'(xi)`` lies in ``[psi'(hi).lo, psi'(lo).hi]`` (64
    bits are enough for that bound) and ``r = m - psi(m)/psi'(xi)`` lies in
    ``N = m - psi(m)/psi'(X)``.  ``N`` meets ``X`` in a bracket that is
    rounded outward onto the dyadic cells of bisection on ``[1, 2]`` (see
    :func:`_dyadic_cover`), never finer than the first cell width
    ``2**-k <= tolerance``.  Before each step the bits of the psi enclosure
    double, from 64, while the enclosure of ``psi(m)`` is wider than
    ``|X|**2`` (quadratic convergence) and than ``tolerance / 64``.

    Once a step fails to halve the bracket, bisection with certified sign
    tests finishes it.  There the bits double only while a probe's
    enclosure straddles zero.  Both doublings stop at a ceiling of
    ``k + 24`` bits, where the enclosure is narrower than ``2**-24``
    tolerances; if a probe still straddles zero there, the probe moves to a
    quarter point of the bracket instead.
    Newton keeps the bracket on the bisection's cells, so whenever the
    midpoint probes decide, the result is the cell of width ``2**-k``
    containing ``r``, as bisection alone would give.
    """
    tolerance = Fraction(tolerance)
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    level = 0
    while Fraction(1, 1 << level) > tolerance:
        level += 1
    ceiling = level + 24

    bits = 64
    lo, hi = Fraction(1), Fraction(2)
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        value = digamma_enclosure(mid, bits)
        goal = max((hi - lo) ** 2, tolerance / 64)
        while value.width > goal and bits < ceiling:
            bits *= 2
            value = digamma_enclosure(mid, bits)
        slope = Interval(trigamma_enclosure(hi).lo, trigamma_enclosure(lo).hi)
        newton = mid - value / slope
        new_lo, new_hi = _dyadic_cover(max(lo, newton.lo), min(hi, newton.hi), level)
        if new_hi - new_lo > (hi - lo) / 2:
            break
        lo, hi = new_lo, new_hi

    while hi - lo > tolerance:
        probes = [(lo + hi) / 2, (3 * lo + hi) / 4, (lo + 3 * hi) / 4]
        advanced = False
        for probe in probes:
            value = digamma_enclosure(probe, bits)
            while value.lo <= 0 <= value.hi and bits < ceiling:
                bits *= 2
                value = digamma_enclosure(probe, bits)
            if value.hi < 0:
                lo, advanced = probe, True
                break
            if value.lo > 0:
                hi, advanced = probe, True
                break
        if not advanced:  # pragma: no cover - defensive; probes span the bracket
            raise ArithmeticError("bisection could not certify a sign at any probe")
    return Interval(lo, hi)
