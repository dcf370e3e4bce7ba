"""Independent reference values for cross-checking certified enclosures.

Two kinds of oracle live here.  ``mpmath``-based brackets convert a
high-precision binary approximation into an exact rational bracket with
generous symmetric slack; they are independent of everything in the package
but share the "trust a float library" caveat.  The pure-rational brackets
(``e_bracket``, ``zeta2_bracket``) are built from classical series with
explicit tail bounds using nothing but ``fractions.Fraction``, so they are
independent of mpmath as well.

A bracket is a pair ``(lo, hi)`` of Fractions guaranteed to contain the
true value.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from psicert import Interval

mpmath.mp.dps = 60

# 2^-150 ~ 7e-46; mpmath at 60 digits carries ~200 bits, so the conversion
# error is dominated by this slack, not by mpmath itself.
_SCALE_BITS = 150
_SLACK = Fraction(1, 2**_SCALE_BITS)

Bracket = tuple[Fraction, Fraction]


def mp_bracket(value: mpmath.mpf) -> Bracket:
    """Exact rational bracket around an mpmath approximation."""
    scaled = int(mpmath.floor(value * 2**_SCALE_BITS))
    approx = Fraction(scaled, 2**_SCALE_BITS)
    return (approx - _SLACK, approx + 2 * _SLACK)


def scaled_bracket(compute, width: Fraction) -> Bracket:
    """Exact bracket from ``compute()`` run 64 bits finer than ``width``.

    The fixed 150-bit brackets above cannot judge enclosures narrower than
    about 1e-45; this one scales mpmath's precision to the enclosure being
    checked, so ``encloses_truth`` stays meaningful at any width.
    """
    bits = width.denominator.bit_length() - width.numerator.bit_length() + 64
    with mpmath.workprec(bits + 32):
        scaled = int(mpmath.floor(compute() * mpmath.mpf(2) ** bits))
    return (Fraction(scaled - 1, 2**bits), Fraction(scaled + 2, 2**bits))


def _to_mpf(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


def digamma_bracket(x: Fraction) -> Bracket:
    return mp_bracket(mpmath.digamma(_to_mpf(Fraction(x))))


def trigamma_bracket(x: Fraction) -> Bracket:
    return mp_bracket(mpmath.polygamma(1, _to_mpf(Fraction(x))))


def exp_bracket(x: Fraction) -> Bracket:
    return mp_bracket(mpmath.exp(_to_mpf(Fraction(x))))


def ln_bracket(x: Fraction) -> Bracket:
    return mp_bracket(mpmath.log(_to_mpf(Fraction(x))))


def sinh_bracket(x: Fraction) -> Bracket:
    return mp_bracket(mpmath.sinh(_to_mpf(Fraction(x))))


def pi_bracket() -> Bracket:
    return mp_bracket(+mpmath.pi)


def euler_gamma_bracket() -> Bracket:
    return mp_bracket(+mpmath.euler)


def bstar_bracket() -> Bracket:
    return mp_bracket(mpmath.pi**2 / (6 * mpmath.exp(2 * mpmath.euler)))


def digamma_zero_bracket() -> Bracket:
    root = mpmath.findroot(mpmath.digamma, mpmath.mpf("1.46"))
    return mp_bracket(root)


def e_bracket(terms: int = 30) -> Bracket:
    """Rational bracket for e from the factorial series with tail bound.

    ``sum_{k>N} 1/k! < 2/(N+1)!`` since the tail is dominated by a
    geometric series with ratio 1/2.
    """
    partial = sum(Fraction(1, math.factorial(k)) for k in range(terms + 1))
    return (partial, partial + Fraction(2, math.factorial(terms + 1)))


def zeta2_bracket(terms: int = 400) -> Bracket:
    """Rational bracket for pi^2/6 via the integral tail bound.

    ``1/(N+1) < sum_{n>N} 1/n^2 < 1/N``.
    """
    partial = sum(Fraction(1, n * n) for n in range(1, terms + 1))
    return (partial + Fraction(1, terms + 1), partial + Fraction(1, terms))


def consistent(enclosure: Interval, bracket: Bracket) -> bool:
    """Both intervals claim to contain the true value, so they must meet."""
    lo, hi = bracket
    return enclosure.lo <= hi and lo <= enclosure.hi


def encloses_truth(enclosure: Interval, bracket: Bracket) -> bool:
    """The enclosure contains the whole oracle bracket.

    Stronger than ``consistent``; appropriate only when the enclosure is
    expected to be wider than the oracle's slack (~1e-45).
    """
    lo, hi = bracket
    return enclosure.lo <= lo and hi <= enclosure.hi
