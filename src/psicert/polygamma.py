"""Certified rational enclosures of digamma, trigamma, and derived constants.

The enclosures combine the recurrences ``psi(x+1) = psi(x) + 1/x`` and
``psi'(x+1) = psi'(x) - 1/x**2`` with the asymptotic expansions of
``psi(y+1)`` and ``psi'(y+1)`` from :mod:`psicert.series`, at a shifted
argument ``y >= shift_target``.  Both are enveloping: a truncation errs by
less than its first omitted term and with that term's sign, so the value
lies between the sum of all terms but the last and the sum of all of them
(see :func:`_enveloped`).  Larger ``shift_target`` narrows that window.
The recurrence corrections ``sum 1/(x+k)**p`` are summed in fixed point at
scale ``2**-w`` with directed rounding, so ``n`` shift steps add at most
``n`` ulps of width; ``w`` carries ``n.bit_length()`` guard bits beyond the
window's precision, so the rounding stays far below the window.

:func:`digamma_enclosure` and :func:`trigamma_enclosure` are memoised per
argument and per shift target in a bounded LRU cache (see
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

DEFAULT_SHIFT_TARGET = Fraction(10)

_DIGAMMA_TERMS = digamma_expansion(6).coeffs
_TRIGAMMA_TERMS = trigamma_expansion(9).coeffs


def _validate(x: Fraction, shift_target: Fraction) -> tuple[Fraction, Fraction]:
    x = Fraction(x)
    shift_target = Fraction(shift_target)
    if x <= 0:
        raise DomainError(f"argument must be positive, got {x}")
    if shift_target < 1:
        raise ValueError("shift target must be at least 1")
    return x, shift_target


def _shift_count(x: Fraction, shift_target: Fraction) -> int:
    """Smallest n >= 0 with x + n - 1 >= shift_target."""
    return max(0, math.ceil(shift_target + 1 - x))


def _window_precision(shift_target: Fraction, power: int) -> int:
    # Bits well below the asymptotic window width ~ shift_target**-power,
    # so the logarithm and the recurrence sum never dominate the enclosure.
    return power * max(4, math.ceil(shift_target).bit_length()) + 48


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
def digamma_enclosure(
    x: Fraction | int,
    shift_target: Fraction | int = DEFAULT_SHIFT_TARGET,
) -> Interval:
    """Enclosure of ``psi(x)`` for rational ``x > 0``.

    Width decreases like the omitted term at ``shift_target`` plus the rounding
    of the logarithm and of the recurrence sum (see :func:`_reciprocal_sum`),
    and is weakly decreasing as ``shift_target`` grows.
    """
    x, shift_target = _validate(Fraction(x), Fraction(shift_target))
    n = _shift_count(x, shift_target)
    y = x + n - 1  # psi(x) = psi(y + 1) - sum_{k=0}^{n-1} 1/(x + k)
    bits = _window_precision(shift_target, _DIGAMMA_TERMS[-1][0])
    enclosure = iv_ln(y, bits) + _enveloped(_DIGAMMA_TERMS, y)
    return enclosure - _reciprocal_sum(x, n, 1, bits)


@lru_cache(maxsize=ENCLOSURE_CACHE_SIZE)
def trigamma_enclosure(
    x: Fraction | int,
    shift_target: Fraction | int = DEFAULT_SHIFT_TARGET,
) -> Interval:
    """Enclosure of ``psi'(x)`` for rational ``x > 0``.

    The asymptotic part is exact rational arithmetic; the recurrence sum
    adds at most ``n`` ulps at ``2**-w``, far below the window set by the
    omitted term (see :func:`_reciprocal_sum`).
    """
    x, shift_target = _validate(Fraction(x), Fraction(shift_target))
    n = _shift_count(x, shift_target)
    y = x + n - 1  # psi'(x) = psi'(y + 1) + sum_{k=0}^{n-1} 1/(x + k)^2
    bits = _window_precision(shift_target, _TRIGAMMA_TERMS[-1][0])
    return _enveloped(_TRIGAMMA_TERMS, y) + _reciprocal_sum(x, n, 2, bits)


def euler_gamma_enclosure(
    shift_target: Fraction | int = DEFAULT_SHIFT_TARGET,
) -> Interval:
    """Enclosure of the Euler-Mascheroni constant as ``-psi(1)``."""
    return -digamma_enclosure(1, shift_target)


@lru_cache(maxsize=None)
def _bstar_cached(shift_target: Fraction, work_precision: int) -> Interval:
    two_gamma = euler_gamma_enclosure(shift_target) * 2
    return iv_pi(work_precision) ** 2 / (6 * iv_exp(two_gamma, work_precision))


def batir_bstar_enclosure(
    shift_target: Fraction | int = DEFAULT_SHIFT_TARGET,
    work_precision: int | None = None,
) -> Interval:
    """Enclosure of ``pi**2 / (6 e**(2 gamma))``, about 0.5181.

    Without ``work_precision``, pi and exp are evaluated at the precision
    of the gamma enclosure's window, so raising ``shift_target`` alone
    narrows the result.
    """
    shift_target = Fraction(shift_target)
    if work_precision is None:
        work_precision = _window_precision(shift_target, _DIGAMMA_TERMS[-1][0])
    if work_precision < 8:
        raise ValueError("work precision must be at least 8")
    return _bstar_cached(shift_target, work_precision)


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
    decreasing, so ``psi'(xi)`` lies in ``[psi'(hi).lo, psi'(lo).hi]`` (a low
    shift is enough for that bound) and ``r = m - psi(m)/psi'(xi)`` lies in
    ``N = m - psi(m)/psi'(X)``.  ``N`` meets ``X`` in a bracket that is
    rounded outward onto the dyadic cells of bisection on ``[1, 2]`` (see
    :func:`_dyadic_cover`), never finer than the first cell width
    ``2**-k <= tolerance``.  Before each step the shift target doubles while
    the enclosure of ``psi(m)`` is wider than ``|X|**2`` (quadratic
    convergence) and than ``tolerance / 64``.

    Once a step fails to halve the bracket, bisection with certified sign
    tests finishes it.  There the shift target doubles only while a probe's
    enclosure straddles zero.  Both doublings stop at a ceiling at which the
    enclosure width is far below the tolerance; if a probe still straddles
    zero there, the probe moves to a quarter point of the bracket instead.
    Newton keeps the bracket on the bisection's cells, so whenever the
    midpoint probes decide, the result is the cell of width ``2**-k``
    containing ``r``, as bisection alone would give.
    """
    tolerance = Fraction(tolerance)
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    # The ceiling is four times the first doubling st of 10 at which the
    # window, the omitted term |c| / st**k, is at most tolerance / 64.
    k, c = _DIGAMMA_TERMS[-1]
    ceiling = Fraction(10)
    while 64 * abs(c) / ceiling**k > tolerance:
        ceiling *= 2
    ceiling *= 4
    level = 0
    while Fraction(1, 1 << level) > tolerance:
        level += 1

    shift_target = DEFAULT_SHIFT_TARGET
    lo, hi = Fraction(1), Fraction(2)
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        value = digamma_enclosure(mid, shift_target)
        goal = max((hi - lo) ** 2, tolerance / 64)
        while value.width > goal and shift_target < ceiling:
            shift_target *= 2
            value = digamma_enclosure(mid, shift_target)
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
            value = digamma_enclosure(probe, shift_target)
            while value.lo <= 0 <= value.hi and shift_target < ceiling:
                shift_target *= 2
                value = digamma_enclosure(probe, shift_target)
            if value.hi < 0:
                lo, advanced = probe, True
                break
            if value.lo > 0:
                hi, advanced = probe, True
                break
        if not advanced:  # pragma: no cover - defensive; probes span the bracket
            raise ArithmeticError("bisection could not certify a sign at any probe")
    return Interval(lo, hi)
