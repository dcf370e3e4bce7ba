"""Expression trees evaluated to certified enclosures at exact rational points.

The node set covers everything the inequality catalog needs: field
operations, integer powers, ``exp``/``ln``/``sinh``, the digamma and
trigamma functions, and a few named constants.  Evaluation is recursive and
interval-valued throughout, so the result provably contains the true value
of the expression; precision is controlled by an :class:`EvalContext`.

Operator overloading builds trees readably: ``(X + F(1, 2)) * Exp(-2 * Digamma(X + 1))``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .elementary import iv_exp, iv_ln, iv_pi, iv_sinh
from .interval import DomainError, Interval
from .polycert import RationalFunction
from .polygamma import (
    batir_bstar_enclosure,
    digamma_enclosure,
    euler_gamma_enclosure,
    trigamma_enclosure,
)

__all__ = [
    "Add",
    "Const",
    "Digamma",
    "Div",
    "EvalContext",
    "Exp",
    "Expr",
    "Ln",
    "Mul",
    "Neg",
    "NamedConstant",
    "PowInt",
    "Sinh",
    "Trigamma",
    "Var",
    "evaluate",
    "rational_function",
]


@dataclass(frozen=True)
class EvalContext:
    """The working precision threaded through an evaluation."""

    work_precision: int = 64

    def __post_init__(self) -> None:
        if self.work_precision < 8:
            raise ValueError("work precision must be at least 8")

    def refined(self) -> "EvalContext":
        """The next rung of the precision ladder: double the precision."""
        return EvalContext(self.work_precision * 2)


class Expr:
    """Base node; subclasses are frozen dataclasses implementing `_eval`."""

    def _eval(self, x: Fraction, ctx: EvalContext) -> Interval:
        raise NotImplementedError

    # -- operator sugar -------------------------------------------------------

    def __add__(self, other: "Expr | Fraction | int") -> "Expr":
        return Add(self, as_expr(other))

    def __radd__(self, other: "Expr | Fraction | int") -> "Expr":
        return Add(as_expr(other), self)

    def __sub__(self, other: "Expr | Fraction | int") -> "Expr":
        return Add(self, Neg(as_expr(other)))

    def __rsub__(self, other: "Expr | Fraction | int") -> "Expr":
        return Add(as_expr(other), Neg(self))

    def __mul__(self, other: "Expr | Fraction | int") -> "Expr":
        return Mul(self, as_expr(other))

    def __rmul__(self, other: "Expr | Fraction | int") -> "Expr":
        return Mul(as_expr(other), self)

    def __truediv__(self, other: "Expr | Fraction | int") -> "Expr":
        return Div(self, as_expr(other))

    def __rtruediv__(self, other: "Expr | Fraction | int") -> "Expr":
        return Div(as_expr(other), self)

    def __neg__(self) -> "Expr":
        return Neg(self)

    def __pow__(self, exponent: int) -> "Expr":
        return PowInt(self, exponent)


def as_expr(value: "Expr | Fraction | int") -> Expr:
    if isinstance(value, Expr):
        return value
    return Const(Fraction(value))


@dataclass(frozen=True)
class Const(Expr):
    value: Fraction

    def _eval(self, x: Fraction, ctx: EvalContext) -> Interval:
        return Interval.point(self.value)


@dataclass(frozen=True)
class Var(Expr):
    def _eval(self, x: Fraction, ctx: EvalContext) -> Interval:
        return Interval.point(x)


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr

    def _eval(self, x: Fraction, ctx: EvalContext) -> Interval:
        return self.left._eval(x, ctx) + self.right._eval(x, ctx)


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr

    def _eval(self, x: Fraction, ctx: EvalContext) -> Interval:
        return self.left._eval(x, ctx) * self.right._eval(x, ctx)


@dataclass(frozen=True)
class Div(Expr):
    num: Expr
    den: Expr

    def _eval(self, x: Fraction, ctx: EvalContext) -> Interval:
        return self.num._eval(x, ctx) / self.den._eval(x, ctx)


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    def _eval(self, x: Fraction, ctx: EvalContext) -> Interval:
        return -self.arg._eval(x, ctx)


@dataclass(frozen=True)
class PowInt(Expr):
    base: Expr
    exponent: int

    def __post_init__(self) -> None:
        if not isinstance(self.exponent, int):
            raise TypeError(
                f"exponent must be an integer, got {self.exponent!r}; "
                "only integer powers are supported"
            )

    def _eval(self, x: Fraction, ctx: EvalContext) -> Interval:
        return self.base._eval(x, ctx) ** self.exponent


@dataclass(frozen=True)
class Exp(Expr):
    arg: Expr

    def _eval(self, x: Fraction, ctx: EvalContext) -> Interval:
        return iv_exp(self.arg._eval(x, ctx), ctx.work_precision)


@dataclass(frozen=True)
class Ln(Expr):
    arg: Expr

    def _eval(self, x: Fraction, ctx: EvalContext) -> Interval:
        return iv_ln(self.arg._eval(x, ctx), ctx.work_precision)


@dataclass(frozen=True)
class Sinh(Expr):
    arg: Expr

    def _eval(self, x: Fraction, ctx: EvalContext) -> Interval:
        return iv_sinh(self.arg._eval(x, ctx), ctx.work_precision)


@dataclass(frozen=True)
class Digamma(Expr):
    """psi applied to a subexpression; monotonicity gives interval images."""

    arg: Expr

    def _eval(self, x: Fraction, ctx: EvalContext) -> Interval:
        iv = self.arg._eval(x, ctx)
        if iv.lo <= 0:
            raise DomainError(f"digamma argument must be positive, got {iv}")
        lo = digamma_enclosure(iv.lo, ctx.work_precision)
        hi = lo if iv.is_point else digamma_enclosure(iv.hi, ctx.work_precision)
        return Interval(lo.lo, hi.hi)


@dataclass(frozen=True)
class Trigamma(Expr):
    """psi' applied to a subexpression; decreasing, so endpoints swap."""

    arg: Expr

    def _eval(self, x: Fraction, ctx: EvalContext) -> Interval:
        iv = self.arg._eval(x, ctx)
        if iv.lo <= 0:
            raise DomainError(f"trigamma argument must be positive, got {iv}")
        hi_end = trigamma_enclosure(iv.lo, ctx.work_precision)
        lo_end = hi_end if iv.is_point else trigamma_enclosure(iv.hi, ctx.work_precision)
        return Interval(lo_end.lo, hi_end.hi)


# name -> enclosure at the work precision; each lambda looks its kernel up
# when called, so a wrapper on this module (the benchmark's tracer) sees it
_CONSTANTS: dict[str, Callable[[int], Interval]] = {
    "pi": lambda bits: iv_pi(bits),
    "e": lambda bits: iv_exp(1, bits),
    "euler_gamma": lambda bits: euler_gamma_enclosure(bits),
    "batir_bstar": lambda bits: batir_bstar_enclosure(bits),
    "trigamma_one": lambda bits: trigamma_enclosure(1, bits),
}


@dataclass(frozen=True)
class NamedConstant(Expr):
    """One of: pi, e, euler_gamma, batir_bstar, trigamma_one."""

    name: str

    def __post_init__(self) -> None:
        if self.name not in _CONSTANTS:
            raise ValueError(
                f"unknown constant {self.name!r}; expected one of {tuple(_CONSTANTS)}"
            )

    def _eval(self, x: Fraction, ctx: EvalContext) -> Interval:
        return _CONSTANTS[self.name](ctx.work_precision)


def evaluate(expr: Expr, x: Fraction | int, ctx: EvalContext | None = None) -> Interval:
    """Certified enclosure of ``expr`` at the exact rational point ``x``."""
    return expr._eval(Fraction(x), ctx if ctx is not None else EvalContext())


def rational_function(expr: Expr) -> RationalFunction:
    """The exact rational function denoted by a tree of rational nodes.

    Only Const, Var, Add, Neg, Mul, Div and PowInt are allowed; any other node
    raises ``TypeError``.  ``RationalFunction`` is canonical, so equal functions
    lower to equal values however their trees are written.
    """
    match expr:
        case Const(value):
            return RationalFunction.constant(value)
        case Var():
            return RationalFunction.x()
        case Add(left, right):
            return rational_function(left) + rational_function(right)
        case Neg(arg):
            return -rational_function(arg)
        case Mul(left, right):
            return rational_function(left) * rational_function(right)
        case Div(num, den):
            return rational_function(num) / rational_function(den)
        case PowInt(base, exponent):
            return rational_function(base) ** exponent
    raise TypeError(f"{type(expr).__name__} node does not denote a rational function")
