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
:func:`_truncation`); the Bernoulli table grows only as far as it stops,
to the odd index after the last Bernoulli number it reads.
Both work on integer numerators and denominators; the parts are added
exactly and rounded outward once, onto the one grid ``2**-(bits + G)`` of
:mod:`psicert.interval`, and an ``Interval`` holds those integers as they
are.

psicert memoises a kernel only where its arguments repeat and a hit saves
more than the lookup costs.  :func:`digamma_enclosure` and
:func:`trigamma_enclosure` are memoised per argument and per bit target in a
bounded LRU cache of :data:`ENCLOSURE_CACHE_SIZE` entries, so the sides and
pairs of an inequality that share ``psi(x+1)`` or ``psi'(x+1)`` compute it
once.  :func:`batir_bstar_enclosure` and ln 2
(:func:`~psicert.elementary._ln2`) are memoised per precision:
every point of a check against BATIR's b* reads the one, and every ln of an
argument outside ``[1, 2)`` the other.  Each of these is a pure function of
immutable arguments that returns a frozen value, so a hit is what a
recomputation would give.  exp, ln and pi are not memoised: a fixed-point
exp or ln costs about what a lookup costs, which hashes the argument's
``Interval``, and pi, read only by b* and ``const pi``, does not repeat.
Outside the kernels only psi's coefficients ``-B_k / k``
(:func:`~psicert.series._digamma_coefficient`, per index: every psi
evaluation reads its first ones again, and a hit costs a fraction of the
division) and the catalog (:func:`~psicert.theorems._catalog`, built once)
are memoised.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .elementary import _climb, _floor_log2, _tolerance_bits, iv_exp, iv_ln, iv_pi
from .interval import (
    DomainError, Interval, _add_ends, _grid, _outward, _rational_text, round_outward
)
from .series import psi_terms

__all__ = [
    "batir_bstar_enclosure",
    "digamma_enclosure",
    "digamma_zero",
    "euler_gamma_enclosure",
    "trigamma_enclosure",
]

#: Entries kept by the psi and psi' memos.  Repeated arguments come from the
#: two sides of a catalog pair, from its other pairs, and from neighbouring
#: points, so a small cache catches them.  No CLI call of the benchmark's
#: grid and precision jobs (seeds 7, 11 and 9011) fills it: the most entries
#: held are ``trigamma_enclosure`` 224 and ``digamma_enclosure`` 124, both in
#: ``certify all``, and at most 12 in a precision job.
ENCLOSURE_CACHE_SIZE = 1024


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


def _truncation(power: int, y: Fraction, w: int) -> tuple[tuple[int, Fraction], ...]:
    """The shortest expansion of ``psi(y+1)`` or ``psi'(y+1)`` whose last term
    is at most ``2**-w`` at ``y``.

    The candidate last terms are the Bernoulli terms ``y**-(2m)`` of psi and
    ``y**-(2m+1)`` of psi', for ``m = 1, 2, ...``, and the expansion that
    ends at one is the prefix of any longer expansion up to it.  So the
    stream :func:`~psicert.series.psi_terms` is read term by term, and the
    Bernoulli table grows only as far as the truncation stops.  A term that
    does not shrink before it reaches ``2**-w`` raises ``ArithmeticError``,
    so the loop is bounded; at the shifts of :func:`_shift_count` it never
    does.
    Both tests run on integers: with ``y = a/b`` and ``c = n/d``, ``|c| /
    y**k <= 2**-w`` is ``|n| b**k 2**w <= d a**k``, with the powers advanced
    from term to term.
    """
    a, b = y.numerator, y.denominator
    terms: list[tuple[int, Fraction]] = []
    k_done, a_k, b_k = 0, 1, 1  # a**k_done, b**k_done
    previous = None
    for k, c in psi_terms(power):
        terms.append((k, c))
        if k <= power:  # the 1/(2y) of psi and the 1/y, -1/(2y**2) of psi'
            continue
        a_step, b_step = a ** (k - k_done), b ** (k - k_done)
        a_k, b_k, k_done = a_k * a_step, b_k * b_step, k
        if abs(c.numerator) * b_k << w <= c.denominator * a_k:  # |c| / y**k <= 2**-w
            return tuple(terms)
        # the term does not shrink: |c| / |p| >= y**(k - j) for the term p / y**j before it
        if previous is not None and (
            abs(c.numerator) * previous.denominator * b_step
            >= abs(previous.numerator) * c.denominator * a_step
        ):
            raise ArithmeticError(f"the expansion at y = {y} does not reach 2**-{w}")
        previous = c


def _enveloped(terms: tuple[tuple[int, Fraction], ...], y: Fraction) -> tuple[int, int, int]:
    """Hull of the sum of ``c * y**-k`` over all ``terms`` and over all but the
    last, as exact integer ends ``(lo, hi, d)`` over one denominator ``d > 0``.

    With ``y = a/b``, ``D`` the least common denominator of the coefficients
    and ``K`` the last power, term ``c * y**-k`` is ``c D b**k a**(K-k)``
    over ``d = D a**K``.  The numerators are summed in a Horner scheme in
    ``a``.
    """
    a, b = y.numerator, y.denominator
    common = math.lcm(*[c.denominator for _, c in terms])
    partial = last = 0
    k_done, b_k = 0, 1  # b**k_done
    for k, c in terms:
        partial = (partial + last) * a ** (k - k_done)
        b_k *= b ** (k - k_done)
        last = c.numerator * (common // c.denominator) * b_k
        k_done = k
    ends = (partial, partial + last)
    return min(ends), max(ends), common * a**k_done


def _reciprocal_sum(x: Fraction, n: int, power: int, bits: int) -> tuple[int, int, int]:
    """Enclosure of ``sum_{k=0}^{n-1} (x + k)**-power`` of width below
    ``2**-bits``, as ends ``(lo, hi, w)`` in ulps of ``2**-w``.

    With ``x = a/b`` term ``k`` is ``b**power / (a + k*b)**power``.  In ulps
    of ``2**-w`` it lies in ``[t_k, t_k + 1)``, where ``t_k`` is the floor
    quotient ``(b**power << w) // (a + k*b)**power``, so the sum lies in
    ``[T, T + n)`` with ``T = sum t_k``: directed rounding that costs at
    most ``n`` ulps.  ``w = bits + n.bit_length()`` makes ``n * 2**-w <
    2**-bits``.
    """
    a, b = x.numerator, x.denominator
    w = bits + n.bit_length()
    scaled = b**power << w
    total = sum(scaled // d**power for d in range(a, a + n * b, b))
    return total, total + n, w


def _parts(
    x: Fraction | int, bits: int, power: int
) -> tuple[int, int, Fraction, tuple[int, int, int], tuple[int, int, int]]:
    """What psi (``power`` 1) and psi' (2) at ``x > 0`` share: the grid
    exponent ``s = bits + G``, ``w = bits + 2``, ``y = x + n - 1`` for ``n``
    from :func:`_shift_count`, and the ends of two parts: the enveloped window
    of :func:`_truncation`, at most ``2**-w`` wide, and the sum of
    :func:`_reciprocal_sum`, which costs one floor division a step at any
    precision and so is taken below one step, ``2**-s``."""
    x = Fraction(x)
    if x <= 0:
        raise DomainError(f"argument must be positive, got {_rational_text(x)}")
    s = _grid(bits)
    w = bits + 2
    n = _shift_count(x, w)
    y = x + n - 1
    lo, hi, v = _reciprocal_sum(x, n, power, s)
    return s, w, y, _enveloped(_truncation(power, y, w), y), (lo, hi, 1 << v)


@lru_cache(maxsize=ENCLOSURE_CACHE_SIZE)
def digamma_enclosure(x: Fraction | int, bits: int = 64) -> Interval:
    """Enclosure of ``psi(x)`` for rational ``x > 0``, of width at most ``2**-bits``.

    With ``y = x + n - 1``, ``psi(x) = ln y + (psi(y+1) - ln y) - sum_{k<n}
    1/(x+k)``: ``iv_ln(y, w)`` and the window of :func:`_parts`, each at
    most ``2**-w = 2**-(bits + 2)`` wide, and its sum, below one step of
    the one grid ``2**-s``, ``s = bits + G``.  Their exact sum is rounded
    outward onto that grid, one step at most per end, so the width is below
    ``2 * 2**-w`` and three steps: ``2**(G-1) + 3 <= 2**G`` steps, that is
    ``2**-bits``.
    """
    s, w, y, window, (total_lo, total_hi, d) = _parts(x, bits, 1)
    ends = _add_ends(_add_ends(window, iv_ln(y, w)._ends), (-total_hi, -total_lo, d))
    return Interval._of(*_outward(*ends, s), 1 << s)


@lru_cache(maxsize=ENCLOSURE_CACHE_SIZE)
def trigamma_enclosure(x: Fraction | int, bits: int = 64) -> Interval:
    """Enclosure of ``psi'(x)`` for rational ``x > 0``, of width at most ``2**-bits``.

    ``psi'(x) = psi'(y+1) + sum_{k<n} 1/(x+k)**2``: as in
    :func:`digamma_enclosure`, without the logarithm, so the width is below
    ``2**-w`` and three steps.
    """
    s, _, _, window, total = _parts(x, bits, 2)
    return Interval._of(*_outward(*_add_ends(window, total), s), 1 << s)


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
    is below ``(7/3 + 70/9) / 6 * 2**-v < 2**(1-v) = 2**-(bits + 1)``, half
    of the ``2**G`` steps of the one grid ``2**-(bits + G)``, onto which it
    is rounded outward, by at most one step per end.
    """
    v = bits + 2
    two_gamma = euler_gamma_enclosure(v) * 2
    return round_outward(iv_pi(v) ** 2 / (6 * iv_exp(two_gamma, v)), bits)


def _dyadic_cover(a: Fraction, b: Fraction, level: int) -> tuple[Fraction, Fraction]:
    """``[a, b]`` rounded outward onto the grid ``2**-j``, one or two cells wide.

    ``j`` is the finest level up to ``level`` whose cell is at least
    ``b - a`` wide, so the rounded bracket is at most two cells, and its
    midpoint, when it is two, lies on the grid.  The cell ``2**-j`` is at
    least ``b - a > 0`` wide for ``j <= floor(log2(1 / (b - a)))``.
    """
    width = b - a
    j = level if width <= 0 else min(level, max(0, _floor_log2(width.denominator, width.numerator)))
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
    enclosure straddles zero.  Both doublings (:func:`~psicert.elementary._climb`)
    stop at a ceiling of ``k + 24`` bits, where the enclosure is narrower
    than ``2**-24`` tolerances; if a probe still straddles zero there, the
    probe moves to a quarter point of the bracket instead.
    Newton keeps the bracket on the bisection's cells, so whenever the
    midpoint probes decide, the result is the cell of width ``2**-k``
    containing ``r``, as bisection alone would give.
    """
    tolerance = Fraction(tolerance)
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    level = _tolerance_bits(tolerance)
    ceiling = level + 24

    bits = 64
    lo, hi = Fraction(1), Fraction(2)
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        goal = max((hi - lo) ** 2, tolerance / 64)
        bits, value = _climb(
            bits, ceiling, lambda b: digamma_enclosure(mid, b), lambda v: v.width <= goal
        )
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
            bits, value = _climb(
                bits, ceiling, lambda b: digamma_enclosure(probe, b), lambda v: not v.lo <= 0 <= v.hi
            )
            if value.hi < 0:
                lo, advanced = probe, True
                break
            if value.lo > 0:
                hi, advanced = probe, True
                break
        if not advanced:  # pragma: no cover - defensive; probes span the bracket
            raise ArithmeticError("bisection could not certify a sign at any probe")
    return Interval(lo, hi)
