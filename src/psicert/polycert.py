"""Positivity certificates for polynomials and log-rational expressions.

The core device: to certify that an expression ``e(x)`` is negative on a ray
``(s, infinity)``, show that its derivative is positive there (so ``e`` is
increasing) and that ``e`` tends to 0 at infinity.  Increasing towards a
zero limit forces negativity everywhere on the ray.

Derivative positivity reduces to polynomial positivity, certified by the
crudest sufficient test that never lies: after the substitution
``x -> x + s``, all coefficients are nonnegative and at least one is
positive.  The test is incomplete — a positive polynomial can fail it — so
its other answer is "inconclusive", never "negative".
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable
from fractions import Fraction

from .interval import DomainError, Frozen

__all__ = [
    "CertificateReport",
    "CertificateStep",
    "LimitClass",
    "LogRationalExpr",
    "Polynomial",
    "PositivityVerdict",
    "RationalFunction",
    "certify_negative_on_ray",
    "logexpr_derivative",
    "logexpr_limit_at_infinity",
    "poly_taylor_shift",
    "positivity_on_ray",
    "rational_from_expansion",
]


class Polynomial(Frozen):
    """Ascending coefficient tuple; trailing zeros trimmed; () is the zero polynomial."""

    __slots__ = ("coeffs",)
    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Fraction | int]) -> None:
        cleaned = tuple(Fraction(c) for c in coeffs)
        while cleaned and cleaned[-1] == 0:
            cleaned = cleaned[:-1]
        super().__init__(cleaned)

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[Fraction | int]) -> "Polynomial":
        return cls(tuple(Fraction(c) for c in coeffs))

    @classmethod
    def constant(cls, value: Fraction | int) -> "Polynomial":
        return cls((Fraction(value),))

    @classmethod
    def x_power(cls, n: int, scale: Fraction | int = 1) -> "Polynomial":
        return cls((Fraction(0),) * n + (Fraction(scale),))

    # -- structure ----------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, point: Fraction | int) -> Fraction:
        result = Fraction(0)
        for c in reversed(self.coeffs):
            result = result * point + c
        return result

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Polynomial(tuple(c + (b[i] if i < len(b) else 0) for i, c in enumerate(a)))

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial | Fraction | int") -> "Polynomial":
        if isinstance(other, (Fraction, int)):
            return Polynomial(tuple(c * other for c in self.coeffs))
        if self.is_zero or other.is_zero:
            return Polynomial(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(tuple(out))

    __rmul__ = __mul__

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        d, lead = other.degree, other.leading
        rem = list(self.coeffs)
        quotient = [Fraction(0)] * max(0, len(rem) - d)
        for k in reversed(range(len(quotient))):
            if rem[k + d]:
                factor = quotient[k] = rem[k + d] / lead
                for i, c in enumerate(other.coeffs):
                    rem[k + i] -= factor * c
        return Polynomial(quotient), Polynomial(rem[:d])

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))

    def monic(self) -> "Polynomial":
        return self if self.is_zero else self * (1 / self.leading)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "- " if c < 0 else ("+ " if parts else "")
            mag = abs(c)
            var = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
            body = f"{mag}" if not var else (var if mag == 1 else f"{mag}*{var}")
            parts.append(f"{sign}{body}")
        return " ".join(parts)


def _poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    while not b.is_zero:
        a, b = b, divmod(a, b)[1]
    return a.monic()


def poly_taylor_shift(p: Polynomial, s: Fraction | int) -> Polynomial:
    """The polynomial ``q(x) = p(x + s)``, by repeated synthetic division by ``x - s``.

    Pass ``i`` divides ``c[i:]`` by ``x - s`` in place and leaves its remainder,
    the ``i``-th Taylor coefficient of ``p`` at ``s``, in ``c[i]``.
    """
    c = list(p.coeffs)
    for i in range(len(c) - 1):
        for k in range(len(c) - 2, i - 1, -1):
            c[k] += s * c[k + 1]
    return Polynomial(c)


class PositivityVerdict(enum.Enum):
    CERTIFIED_POSITIVE = "certified_positive"
    INCONCLUSIVE = "inconclusive"


def positivity_on_ray(p: Polynomial, s: Fraction | int) -> PositivityVerdict:
    """Sufficient test for ``p > 0`` on ``(s, infinity)``.

    After shifting, every monomial of a coefficient-nonnegative polynomial
    is nonnegative for positive arguments, and a single positive
    coefficient makes the sum strictly positive there.
    """
    return _positivity_after_shift(poly_taylor_shift(p, s))


def _positivity_after_shift(shifted: Polynomial) -> PositivityVerdict:
    if shifted.is_zero:
        return PositivityVerdict.INCONCLUSIVE
    if all(c >= 0 for c in shifted.coeffs):
        return PositivityVerdict.CERTIFIED_POSITIVE
    return PositivityVerdict.INCONCLUSIVE


class RationalFunction(Frozen):
    """Quotient of polynomials in canonical form: coprime, monic denominator."""

    __slots__ = ("num", "den")
    num: Polynomial
    den: Polynomial

    def __init__(self, num: Polynomial, den: Polynomial) -> None:
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        g = _poly_gcd(num, den)
        if not g.is_zero and g.degree > 0:
            num = divmod(num, g)[0]
            den = divmod(den, g)[0]
        lead = den.leading
        if lead != 1:
            num = num * (1 / lead)
            den = den * (1 / lead)
        super().__init__(num, den)

    @classmethod
    def from_poly(cls, p: Polynomial) -> "RationalFunction":
        return cls(p, Polynomial.constant(1))

    @classmethod
    def constant(cls, value: Fraction | int) -> "RationalFunction":
        return cls.from_poly(Polynomial.constant(value))

    @classmethod
    def x(cls) -> "RationalFunction":
        return cls.from_poly(Polynomial.x_power(1))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __call__(self, point: Fraction | int) -> Fraction:
        d = self.den(point)
        if d == 0:
            raise DomainError(f"pole at {point}")
        return self.num(point) / d

    def __add__(self, other: "RationalFunction | Fraction | int") -> "RationalFunction":
        o = _as_rf(other)
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other: "RationalFunction | Fraction | int") -> "RationalFunction":
        return self + (-_as_rf(other))

    def __rsub__(self, other: "RationalFunction | Fraction | int") -> "RationalFunction":
        return _as_rf(other) + (-self)

    def __mul__(self, other: "RationalFunction | Fraction | int") -> "RationalFunction":
        o = _as_rf(other)
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "RationalFunction | Fraction | int") -> "RationalFunction":
        o = _as_rf(other)
        if o.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other: "RationalFunction | Fraction | int") -> "RationalFunction":
        return _as_rf(other) / self

    def __pow__(self, exponent: int) -> "RationalFunction":
        if exponent < 0:
            return (1 / self) ** -exponent
        result = RationalFunction.constant(1)
        for _ in range(exponent):
            result = result * self
        return result

    def derivative(self) -> "RationalFunction":
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def limit_at_infinity(self) -> "Fraction | None":
        """The finite limit as x -> infinity, or None when it diverges."""
        if self.is_zero or self.num.degree < self.den.degree:
            return Fraction(0)
        if self.num.degree == self.den.degree:
            return self.num.leading / self.den.leading
        return None

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"


def _as_rf(value: "RationalFunction | Fraction | int") -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    return RationalFunction.constant(value)


def rational_from_expansion(e) -> RationalFunction:
    """Convert a log-free truncated expansion into the rational function it denotes.

    ``sum a_k x^-k`` over indices ``-d <= k <= K`` becomes
    ``(sum a_k x^(K-k)) / x^K``.
    """
    if e.log_coeff != 0:
        raise ValueError("expansion with a logarithmic term is not a rational function")
    top = max((k for k, _ in e.coeffs), default=0)
    top = max(top, 0)
    num = [Fraction(0)] * (top + e.low_degree + 1)
    for k, c in e.coeffs:
        num[top - k] = c
    return RationalFunction(Polynomial(tuple(num)), Polynomial.x_power(top))


# ---------------------------------------------------------------------------
# log-rational expressions
# ---------------------------------------------------------------------------


class LimitClass(enum.Enum):
    ZERO = "zero"
    FINITE_NONZERO = "finite_nonzero"
    DIVERGES = "diverges"


class LogRationalExpr(Frozen):
    """``sum c_i ln(r_i(x)) + q(x)`` with rational ``c_i`` and rational functions."""

    __slots__ = ("log_terms", "rational_part")
    log_terms: tuple[tuple[Fraction, RationalFunction], ...]
    rational_part: RationalFunction


def logexpr_derivative(e: LogRationalExpr) -> RationalFunction:
    """Exact derivative: ``sum c_i r_i'/r_i + q'``, in canonical form."""
    total = e.rational_part.derivative()
    for c, arg in e.log_terms:
        total = total + c * (arg.derivative() / arg)
    return total


def logexpr_limit_at_infinity(e: LogRationalExpr) -> LimitClass:
    """Classify the limit of the expression as x -> infinity, conservatively.

    Each denominator is monic, so ``ln r = (deg num - deg den) ln x + ln(lead)
    + o(1)``, with ``lead`` the numerator's leading coefficient.  The log part
    tends to zero exactly when ``sum c_i (deg num_i - deg den_i) = 0`` and
    ``prod lead_i^(c_i scale) = 1``, with ``scale`` the lcm of the ``c_i``'s
    denominators.  Any case that is not a certified finite limit — including
    one the classifier merely cannot decide, such as a finite transcendental
    log limit — reports DIVERGES.
    """
    if e.log_terms:
        scale = math.lcm(*(c.denominator for c, _ in e.log_terms))
        degree, lead = 0, Fraction(1)
        for c, arg in e.log_terms:
            k = int(c * scale)
            if k != 0:
                degree += k * (arg.num.degree - arg.den.degree)
                lead *= arg.num.leading**k
        if degree != 0 or lead != 1:
            # ln x diverges; ln of a finite limit != 1 is nonzero, possibly transcendental.
            return LimitClass.DIVERGES
    rational_limit = e.rational_part.limit_at_infinity()
    if rational_limit is None:
        return LimitClass.DIVERGES
    return LimitClass.ZERO if rational_limit == 0 else LimitClass.FINITE_NONZERO


class CertificateStep(Frozen):
    """One verified condition in a negativity certificate, with its evidence."""

    __slots__ = ("label", "verdict", "detail")
    label: str
    verdict: str
    detail: str


class CertificateReport(Frozen):
    __slots__ = ("certified", "threshold", "steps")
    certified: bool
    threshold: Fraction
    steps: tuple[CertificateStep, ...]

    def failures(self) -> list[CertificateStep]:
        return [s for s in self.steps if s.verdict != "ok"]


def _signs(p: Polynomial) -> str:
    if p.is_zero:
        return "zero polynomial"
    return "coefficients " + ",".join(
        ("+" if c > 0 else "-" if c < 0 else "0") for c in p.coeffs
    )


def _positivity_step(label: str, p: Polynomial, s: Fraction) -> CertificateStep:
    shifted = poly_taylor_shift(p, s)
    ok = _positivity_after_shift(shifted) is PositivityVerdict.CERTIFIED_POSITIVE
    return CertificateStep(
        label,
        "ok" if ok else "inconclusive",
        f"after x -> x+{s}: {_signs(shifted)}",
    )


def certify_negative_on_ray(e: LogRationalExpr, s: Fraction | int) -> CertificateReport:
    """Attempt to certify ``e(x) < 0`` for all ``x > s``.

    Succeeds when (a) every logarithm argument is certified positive on the
    ray, so the expression is defined there, (b) the derivative is certified
    positive on the ray, and (c) the limit at infinity is exactly zero.
    An increasing function with limit zero is negative on the whole ray.
    Failure of any sub-certificate yields ``certified=False`` (the method is
    sufficient, not complete: no conclusion about the inequality follows).
    """
    s = Fraction(s)
    steps: list[CertificateStep] = []
    for i, (c, arg) in enumerate(e.log_terms):
        steps.append(_positivity_step(f"log argument {i} numerator positive", arg.num, s))
        steps.append(_positivity_step(f"log argument {i} denominator positive", arg.den, s))
    steps.append(
        _positivity_step("rational part denominator positive", e.rational_part.den, s)
    )
    derivative = logexpr_derivative(e)
    steps.append(_positivity_step("derivative numerator positive", derivative.num, s))
    steps.append(_positivity_step("derivative denominator positive", derivative.den, s))
    limit = logexpr_limit_at_infinity(e)
    steps.append(
        CertificateStep(
            "limit at infinity is zero",
            "ok" if limit is LimitClass.ZERO else "inconclusive",
            f"classified {limit.value}",
        )
    )
    certified = all(step.verdict == "ok" for step in steps)
    return CertificateReport(certified, s, tuple(steps))
