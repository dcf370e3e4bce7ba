"""Certified enclosures of elementary transcendental functions.

Each routine returns a rational :class:`~psicert.interval.Interval` that
provably contains the true real value.  Error control is explicit: every
truncated series is accompanied by a closed-form tail bound, added outward.

exp, ln and pi sum their series in fixed point at a scale ``2**-w``: each
term is an integer, rounded down by exact floor division, and every rounding
is counted in ulps and added to the enclosure (see :func:`_exp_point`,
:func:`_atanh_small` and :func:`_arctan_inverse`).  ``e**x`` is
``(e**t)**(2**j)`` with ``|t| < 1/2``: ``t`` is truncated onto the ``2**-w``
grid once, its Taylor series is summed to the first term that is zero in
fixed point, and the ``j`` squarings round the lower end down and the upper
end up.  ``ln y`` reduces ``y`` to ``z = y / 2**k`` in ``[1, 2)``, with ``k``
read off the bit lengths of ``y``'s numerator and denominator, and is ``2
atanh((z-1)/(z+1)) + k ln 2`` with ``ln 2 = 2 atanh(1/3)``.  The atanh series
at ``u < 1/2`` stops at the first term that is zero in fixed point, ``n``
terms in, and errs by less than three ulps a term and two for the tail:
``3n + 2`` ulps, which ``w = work + work.bit_length() + 4`` keeps below
``2**-work``.

Inside, every value is a pair of integer ends in ulps of a power of two,
``(lo, hi, w)`` for ``[lo * 2**-w, hi * 2**-w]``: the snapped arguments
(see :func:`_snap`), the series sums, ``k ln 2`` and the outward rounding
onto the one grid ``2**-g``, ``g = p + G`` for the precision ``p`` (see
:mod:`psicert.interval`), which here is a shift.  Each public function
reads its argument's integer ends and returns its own in an
:class:`~psicert.interval.Interval`, without building a ``Fraction``.

Every public function has one budget, in steps of ``2**-g``: before
rounding its ends lie within half a step of the function at the ends of its
argument (its docstring shows how its working precisions keep them there),
and rounding adds at most one step.  So a point's enclosure is at most 3
steps wide.  A rung of :func:`_climb` doubles ``p``, and 3 steps of
``2**-(2p + G)`` are less than the step of ``2**-(p + G)`` an inexact end
takes.

Only ln 2 is memoised here, per work precision (see :func:`_ln2`);
:mod:`psicert.polygamma` states which kernels are memoised and why the
others are not.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache

from .interval import DomainError, Interval, _coerce, _grid, _outward, round_outward

__all__ = [
    "iv_exp",
    "iv_ln",
    "iv_pi",
    "iv_sinh",
    "ln2_enclosure",
]

def _snap(num: int, den: int, k: int, up: bool) -> tuple[int, int]:
    """``num/den`` rounded onto the grid ``2**-k``, down for a lower end and
    up for an upper one, as a numerator and a denominator.

    Series evaluation cost grows with the bit-size of the argument's
    denominator; snapping first keeps that bounded without affecting
    soundness.  An end that rounding would take onto or across zero stays
    exact, so a domain check sees the sign of the caller's value.
    """
    if up:
        n = -((-num << k) // den)
        return (num, den) if n >= 0 > num else (n, 1 << k)
    n = (num << k) // den
    return (num, den) if n <= 0 < num else (n, 1 << k)


def _image(
    point: Callable[[int, int, int], tuple[int, int, int]], iv: Interval, k: int, work: int, g: int
) -> Interval:
    """The enclosure of an increasing function over ``iv``, from ``point``'s
    enclosures at ``work`` at the ends of ``iv`` snapped outward onto
    ``2**-k``, rounded outward onto ``2**-g``: the cells
    :func:`~psicert.interval.round_outward` picks."""
    lo, hi, d = iv._ends
    lo_arg = _snap(lo, d, k, up=False)
    hi_arg = _snap(hi, d, k, up=True)
    lo, _, w = lo_end = point(*lo_arg, work)
    _, hi, v = lo_end if lo_arg == hi_arg else point(*hi_arg, work)
    return Interval._of(_outward(lo, lo, 1 << w, g)[0], _outward(hi, hi, 1 << v, g)[1], 1 << g)


def _floor_log2(a: int, b: int) -> int:
    """``floor(log2(a/b))`` for ``a, b > 0``, from the bit lengths of ``a`` and ``b``."""
    k = a.bit_length() - b.bit_length()  # 2**(k-1) < a/b < 2**(k+1)
    return k if (a << max(0, -k)) >= (b << max(0, k)) else k - 1


def _tolerance_bits(tolerance: Fraction) -> int:
    """The fewest bits ``k >= 0`` with ``2**-k <= tolerance``, for ``tolerance > 0``."""
    return max(0, -_floor_log2(tolerance.numerator, tolerance.denominator))


def _climb(
    bits: int, ceiling: int, compute: Callable[[int], object], settled: Callable[[object], bool]
) -> tuple[int, object]:
    """``(bits, compute(bits))``, with ``bits`` doubled and the value
    recomputed while it is not ``settled`` and ``bits < ceiling``: the rung
    whose value settled, or the last one tried, which overshoots
    ``ceiling`` by less than one doubling."""
    value = compute(bits)
    while not settled(value) and bits < ceiling:
        bits *= 2
        value = compute(bits)
    return bits, value


# ---------------------------------------------------------------------------
# exponential
# ---------------------------------------------------------------------------


def _exp_point(p: int, q: int, work: int) -> tuple[int, int, int]:
    """Enclosure of e**x for one exact rational argument ``x = p/q``, ``q > 0``,
    of width at most ``2**-work``, as ends ``(lo, hi, w)`` in ulps of ``2**-w``.

    Fixed point at scale ``2**-w``, as in :func:`_atanh_small`.  With
    ``2**k <= |x| < 2**(k+1)`` and ``j = k + 2`` (``j = 0`` if that is
    negative or ``x = 0``), ``t = x / 2**j`` has ``|t| < 1/2``, and ``T =
    floor(2**w t)`` puts ``t`` in ``[T, T + 1)`` ulps, with ``|T| <=
    2**(w-1)``.  The term magnitudes ``P_0 = 2**w`` and ``P_k =
    floor(P_{k-1} |T| / (k 2**w))`` (a floor of a floor, as computed) are
    summed, with alternating signs when ``T < 0``, up to the first ``n``
    with ``P_n = 0``; ``S`` is that sum.

    Let ``m_k = 2**w (|T|/2**w)**k / k!``, term ``k`` of the series for
    ``e**(T/2**w)`` in ulps, and ``d_k = m_k - P_k``.  Then ``d_0 = 0`` and
    ``0 <= d_k < d_{k-1}/(2k) + 1``, so ``d_k < 2``.  Past ``n >= 1`` the
    terms shrink by ``|T| / ((k+1) 2**w) <= 1/4``, so the tail is at most
    ``4/3 m_n = 4/3 d_n``, below 3 ulps.  So ``e**(T/2**w)`` lies within
    ``S +- (2n + 3)`` ulps.  When ``T >= 0`` no term is negative, so the
    lower end is ``S`` itself, and ``T = 0`` gives ``S = 2**w``, exactly 1.
    An inexact ``T`` adds less than ``e**(1/2) (e**(2**-w) - 1)`` ulps,
    below 2, to the upper end: 4 more are added.  As ``P_k < 2**(w-2k+1)``,
    ``n <= w/2 + 2`` and the width is at most ``4n + 10 <= 2w + 18`` ulps.

    Squaring ``j`` times takes the floor of ``lo**2 / 2**w`` and the
    ceiling of ``hi**2 / 2**w``: a width of ``r`` ulps at a value ``V``
    becomes at most ``2 (V + r 2**-w) r + 2``, so the relative width
    doubles and 2 ulps are added.  The values multiply to at most ``max(1,
    e**x)``, so the width ends below ``2**j max(1, e**x) (2w + 18 + 2j)``
    ulps, up to factors ``1 + r/V`` near 1.  With ``m = max(0, ceil(x))``,
    ``w0 = work + j + ceil(3m/2)`` and ``w = w0 + w0.bit_length() + 4`` keep
    that below ``2**-work`` for ``w0 >= 3``: ``e**x < 2**(3m/2)``, and ``2w
    + 18 + 2j <= 4 w0 + 2 w0.bit_length() + 26 < 16 w0 < 2**(w0.bit_length()
    + 4)``.
    """
    j = max(0, _floor_log2(abs(p), q) + 2) if p else 0
    w = work + j + (3 * max(0, -(-p // q)) + 1) // 2
    w += w.bit_length() + 4
    T, rest = divmod(p << (w - j), q)
    magnitude = abs(T)
    power = 1 << w  # P_k
    total = 0
    n = 0
    while power:
        total += -power if T < 0 and n % 2 else power
        n += 1
        power = (power * magnitude >> w) // n
    lo = total - 2 * n - 3 if T < 0 else total
    hi = total + (2 * n + 3 if T else 0) + (4 if rest else 0)
    for _ in range(j):
        lo = lo * lo >> w
        hi = -(-hi * hi >> w)
    return lo, hi, w


def iv_exp(a: Interval | Fraction | int, work_precision: int) -> Interval:
    """Enclosure of the image of ``exp`` over ``a``, on the one grid ``2**-g``,
    ``g = work_precision + G``.

    ``exp`` is increasing, so the image of an interval is the interval of
    the endpoint images.  Half a step per end: with ``c = max(0,
    ceil(a.hi))``, snapping onto ``2**-k``, ``k = g + 2c + 3``, moves an end
    by at most ``2**-k <= 1/2``, where the slope of exp is below ``e**(c +
    1/2) < 2**(2c + 1)``: a quarter step; :func:`_exp_point` at ``g + 2``
    adds at most a quarter step.
    """
    g = _grid(work_precision)
    iv = _coerce(a)
    _, hi, d = iv._ends
    c = max(0, -(-hi // d))
    if 2 * c > sys.maxsize:  # the snapping shift must be a machine-size int
        raise ValueError(f"exp argument above {sys.maxsize // 2} is out of range")
    return _image(_exp_point, iv, g + 2 * c + 3, g + 2, g)


# ---------------------------------------------------------------------------
# logarithm
# ---------------------------------------------------------------------------


def _atanh_small(p: int, q: int, work: int) -> tuple[int, int, int]:
    """Enclosure of atanh(u) for ``0 <= u = p/q < 1/2``, ``q > 0``, of width at
    most ``2**-work``, as ends ``(lo, hi, w)`` in ulps of ``2**-w``.

    Fixed point at scale ``2**-w``, as in :func:`_arctan_inverse`.  With
    ``P_0 = floor(2**w u)`` and ``P_k = floor(P_{k-1} p**2 / q**2)``
    by exact floor division; term ``k`` is taken as ``t_k = P_k // (2k+1)``
    and summation stops at the first ``n`` with ``P_n = 0``.

    Let ``E_k = 2**w u**(2k+1)``, term ``k`` of the series times ``2k+1`` in
    ulps, and ``d_k = E_k - P_k``.  Then ``0 <= d_0 < 1`` and ``0 <= d_k <
    u**2 d_{k-1} + 1``, so ``d_k < 1/(1 - u**2) < 4/3`` since ``u < 1/2``.
    Term ``k``, ``E_k / (2k+1)``, lies in ``[t_k, t_k + 1 + d_k/(2k+1))``,
    within 3 ulps above ``t_k``.  The tail from ``n`` is at most
    ``E_n / ((2n+1)(1 - u**2))`` with ``E_n = d_n < 4/3``, below 2 ulps.  So
    atanh(u) lies in ``[T, T + 3n + 2]`` ulps, ``T = sum_{k<n} t_k``.  As
    ``P_k < 2**(w-2k-1)`` vanishes once ``2k+1 >= w``, ``n <= w/2`` and the
    width is at most ``1.5 w + 2`` ulps; ``w = work + work.bit_length() + 4``
    keeps that below ``2**-work``.
    """
    if not 0 <= 2 * p < q:  # outside it the bound fails, and below 0 the loop never ends
        raise ValueError(f"atanh series needs 0 <= u < 1/2, got {Fraction(p, q)}")
    w = work + work.bit_length() + 4
    p2, q2 = p * p, q * q
    power = (p << w) // q  # P_k
    total = 0
    n = 0
    while power:
        total += power // (2 * n + 1)
        n += 1
        power = power * p2 // q2
    return total, total + 3 * n + 2, w


@lru_cache(maxsize=None)
def _ln2(work: int) -> tuple[int, int, int]:
    """ln 2 = 2 atanh(1/3), of width at most ``2**-work``, as ends ``(lo, hi,
    w)`` in ulps of ``2**-w``; memoised per work."""
    lo, hi, w = _atanh_small(1, 3, work + 1)
    return 2 * lo, 2 * hi, w


def ln2_enclosure(precision: int) -> Interval:
    """Enclosure of ln 2 with width at most 2**-precision, on the one grid
    ``2**-g``, ``g = precision + G``: :func:`_ln2` at ``g + 1``, half a step
    wide, rounded outward."""
    g = _grid(precision)
    lo, hi, w = _ln2(g + 1)
    return Interval._of(*_outward(lo, hi, 1 << w, g), 1 << g)


def _ln_point(p: int, q: int, work: int) -> tuple[int, int, int]:
    """Enclosure of ``ln(p/q)`` for ``p, q > 0``, of width at most ``2**-work``,
    as ends ``(lo, hi, w)`` in ulps of ``2**-w``: ``2 atanh`` at ``work + 2``
    is at most ``2**-(work+1)`` wide, and so is ``k ln 2`` with ln 2 at
    ``work + 1 + |k|.bit_length()``."""
    k = _floor_log2(p, q)
    # z = (p/q) / 2**k = a/b in [1, 2): atanh argument (z-1)/(z+1) lies in [0, 1/3).
    a, b = p << max(0, -k), q << max(0, k)
    lo, hi, w = _atanh_small(a - b, a + b, work + 2)
    lo, hi = 2 * lo, 2 * hi
    if k == 0:
        return lo, hi, w
    ln2_lo, ln2_hi, v = _ln2(work + 1 + max(k, -k).bit_length())
    if k < 0:
        ln2_lo, ln2_hi = ln2_hi, ln2_lo
    if v > w:
        lo, hi, w = lo << (v - w), hi << (v - w), v
    return lo + (k * ln2_lo << (w - v)), hi + (k * ln2_hi << (w - v)), w


def iv_ln(a: Interval | Fraction | int, work_precision: int) -> Interval:
    """Enclosure of the image of ``ln`` over ``a``, on the one grid ``2**-g``,
    ``g = work_precision + G``; requires ``a.lo > 0``.

    Half a step per end: with ``a.lo >= 2**-m``, ``m >= 0``, snapping onto
    ``2**-k``, ``k = g + m + 3``, moves an end by at most ``2**-k <= a.lo /
    2``, where the slope of ln is at most ``2 / a.lo <= 2**(m + 1)``: a
    quarter step; :func:`_ln_point` at ``g + 2`` adds at most a quarter step.
    """
    g = _grid(work_precision)
    iv = _coerce(a)
    lo, _, d = iv._ends
    if lo <= 0:
        raise DomainError(f"logarithm requires a strictly positive interval, got {iv}")
    m = max(0, -_floor_log2(lo, d))
    return _image(_ln_point, iv, g + m + 3, g + 2, g)


# ---------------------------------------------------------------------------
# hyperbolic sine and pi
# ---------------------------------------------------------------------------


def iv_sinh(a: Interval | Fraction | int, work_precision: int) -> Interval:
    """Enclosure of sinh over ``a`` as (exp(a) - exp(-a)) / 2, on the one grid
    ``2**-g``, ``g = work_precision + G``.

    Half a step per end: each exp, at ``work_precision + 2``, is within 1.5
    of its quarter steps, so their half difference is within 3/8 of a step.
    """
    iv = _coerce(a)
    half = (iv_exp(iv, work_precision + 2) - iv_exp(-iv, work_precision + 2)) / 2
    return round_outward(half, work_precision)


def _arctan_inverse(q: int, work: int) -> tuple[int, int, int]:
    """Enclosure of arctan(1/q) for an integer q >= 2, of width at most
    2**-work, as ends ``(lo, hi, w)`` in ulps of ``2**-w``.

    Fixed point at scale ``2**-w``: ``P_k = floor(2**w / q**(2k+1))`` comes
    from ``P_{k-1}`` by exact floor division by ``q**2``, so term ``k`` of
    the series, ``2**w / ((2k+1) q**(2k+1))`` in ulps, lies in
    ``[t_k, t_k + 1)`` with ``t_k = P_k // (2k+1)``.  Summation stops at the
    first ``n`` with ``P_n = 0``: term ``n`` is below one ulp, and the
    alternating tail from it has the sign ``(-1)**n`` and magnitude at most
    that term.  So the limit exceeds ``T = sum_{k<n} (-1)**k t_k`` by less
    than one ulp per even index in ``0..n`` and falls short of it by less
    than one ulp per odd index: ``n + 1`` ulps of width.  ``P_k > 0`` needs
    ``2k+1 <= w``, so ``n <= w/2 + 1`` and ``w = work + work.bit_length() + 3``
    keeps the width under ``2**-work``.
    """
    w = work + work.bit_length() + 3
    q2 = q * q
    power = (1 << w) // q  # P_k
    total = 0
    n = 0
    while power:
        term = power // (2 * n + 1)
        total += -term if n % 2 else term
        n += 1
        power //= q2
    return total - (n + 1) // 2, total + n // 2 + 1, w


def iv_pi(work_precision: int) -> Interval:
    """Enclosure of pi with width at most 2**-work_precision, on the one grid
    ``2**-g``, ``g = work_precision + G``: Machin's pi = 16 arctan(1/5) - 4
    arctan(1/239), each arctan at ``g + 6``, so the sum is at most ``20 *
    2**-(g + 6)``, below half a step, wide, rounded outward."""
    g = _grid(work_precision)
    lo5, hi5, w = _arctan_inverse(5, g + 6)
    lo239, hi239, _ = _arctan_inverse(239, g + 6)  # the same w
    return Interval._of(*_outward(16 * lo5 - 4 * hi239, 16 * hi5 - 4 * lo239, 1 << w, g), 1 << g)
