"""Expression trees evaluated to certified enclosures at exact rational points.

The node set covers everything the inequality catalog needs: field
operations, integer powers, ``exp``/``ln``/``sinh``, the digamma and
trigamma functions, and a few named constants.  Evaluation is recursive and
interval-valued throughout, so the result provably contains the true value
of the expression; precision is controlled by an :class:`EvalContext`.

Every interval node rounds its result outward onto the node grid
``2**-(p + 64)`` for the context's precision ``p``: ``Var``, ``Add``,
``Mul``, ``Div``, ``PowInt``, ``Digamma`` and ``Trigamma`` through
:func:`~psicert.interval.round_outward`, and ``Exp``, ``Ln`` and ``Sinh``
through their kernels, which round onto ``2**-(p + 32)``.  Rounding outward
after a node keeps its result an enclosure of the node's true value, so
the result stays sound; it costs at most one grid step per end, 64 bits
below the target, and it keeps endpoint sizes near ``p`` bits whatever the
size of ``x`` or the depth of the tree.  ``Var`` keeps an end of ``x``
exact where rounding would reach or cross zero, so a domain check sees the
sign of the caller's ``x``.  ``Const`` and ``Neg`` are exact, and
:func:`rational_function` lowers a rational tree exactly, without
evaluating it.

Operator overloading builds trees readably: ``(X + F(1, 2)) * Exp(-2 * Digamma(X + 1))``.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from .elementary import _snap, iv_exp, iv_ln, iv_pi, iv_sinh
from .interval import DomainError, Frozen, Interval, round_outward
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


class EvalContext(Frozen):
    """The working precision threaded through an evaluation."""

    __slots__ = ("work_precision",)
    work_precision: int

    def __init__(self, work_precision: int = 64) -> None:
        if work_precision < 8:
            raise ValueError("work precision must be at least 8")
        super().__init__(work_precision)

    def refined(self) -> "EvalContext":
        """The next rung of the precision ladder: double the precision."""
        return EvalContext(self.work_precision * 2)


def _outward(iv: Interval, ctx: EvalContext) -> Interval:
    """``iv`` rounded outward onto the node grid, ``2**-(ctx.work_precision + 64)``."""
    return round_outward(iv, ctx.work_precision + 32)


class Expr(Frozen):
    """Base node; subclasses are immutable values (see
    :class:`~psicert.interval.Frozen`) implementing `_eval`."""

    __slots__ = ()

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


class Const(Expr):
    __slots__ = ("value",)
    value: Fraction

    def _eval(self, x: Fraction, ctx: EvalContext) -> Interval:
        return Interval.point(self.value)


class Var(Expr):
    __slots__ = ()

    def _eval(self, x: Fraction, ctx: EvalContext) -> Interval:
        # on the node grid, but never rounded onto or across zero
        return _snap(Interval.point(x), ctx.work_precision + 32)


class Add(Expr):
    __slots__ = ("left", "right")
    left: Expr
    right: Expr

    def _eval(self, x: Fraction, ctx: EvalContext) -> Interval:
        return _outward(self.left._eval(x, ctx) + self.right._eval(x, ctx), ctx)


class Mul(Expr):
    __slots__ = ("left", "right")
    left: Expr
    right: Expr

    def _eval(self, x: Fraction, ctx: EvalContext) -> Interval:
        return _outward(self.left._eval(x, ctx) * self.right._eval(x, ctx), ctx)


class Div(Expr):
    __slots__ = ("num", "den")
    num: Expr
    den: Expr

    def _eval(self, x: Fraction, ctx: EvalContext) -> Interval:
        return _outward(self.num._eval(x, ctx) / self.den._eval(x, ctx), ctx)


class Neg(Expr):
    __slots__ = ("arg",)
    arg: Expr

    def _eval(self, x: Fraction, ctx: EvalContext) -> Interval:
        return -self.arg._eval(x, ctx)


class PowInt(Expr):
    __slots__ = ("base", "exponent")
    base: Expr
    exponent: int

    def __init__(self, base: Expr, exponent: int) -> None:
        if not isinstance(exponent, int):
            raise TypeError(
                f"exponent must be an integer, got {exponent!r}; "
                "only integer powers are supported"
            )
        super().__init__(base, exponent)

    def _eval(self, x: Fraction, ctx: EvalContext) -> Interval:
        return _outward(self.base._eval(x, ctx) ** self.exponent, ctx)


class Exp(Expr):
    __slots__ = ("arg",)
    arg: Expr

    def _eval(self, x: Fraction, ctx: EvalContext) -> Interval:
        return iv_exp(self.arg._eval(x, ctx), ctx.work_precision)


class Ln(Expr):
    __slots__ = ("arg",)
    arg: Expr

    def _eval(self, x: Fraction, ctx: EvalContext) -> Interval:
        return iv_ln(self.arg._eval(x, ctx), ctx.work_precision)


class Sinh(Expr):
    __slots__ = ("arg",)
    arg: Expr

    def _eval(self, x: Fraction, ctx: EvalContext) -> Interval:
        return iv_sinh(self.arg._eval(x, ctx), ctx.work_precision)


class Digamma(Expr):
    """psi applied to a subexpression; monotonicity gives interval images."""

    __slots__ = ("arg",)
    arg: Expr

    def _eval(self, x: Fraction, ctx: EvalContext) -> Interval:
        iv = self.arg._eval(x, ctx)
        if iv.lo <= 0:
            raise DomainError(f"digamma argument must be positive, got {iv}")
        lo = digamma_enclosure(iv.lo, ctx.work_precision)
        hi = lo if iv.is_point else digamma_enclosure(iv.hi, ctx.work_precision)
        return _outward(Interval(lo.lo, hi.hi), ctx)


class Trigamma(Expr):
    """psi' applied to a subexpression; decreasing, so endpoints swap."""

    __slots__ = ("arg",)
    arg: Expr

    def _eval(self, x: Fraction, ctx: EvalContext) -> Interval:
        iv = self.arg._eval(x, ctx)
        if iv.lo <= 0:
            raise DomainError(f"trigamma argument must be positive, got {iv}")
        hi_end = trigamma_enclosure(iv.lo, ctx.work_precision)
        lo_end = hi_end if iv.is_point else trigamma_enclosure(iv.hi, ctx.work_precision)
        return _outward(Interval(lo_end.lo, hi_end.hi), ctx)


# name -> enclosure at the work precision; each lambda looks its kernel up
# when called, so a wrapper on this module (the benchmark's tracer) sees it
_CONSTANTS: dict[str, Callable[[int], Interval]] = {
    "pi": lambda bits: iv_pi(bits),
    "e": lambda bits: iv_exp(1, bits),
    "euler_gamma": lambda bits: euler_gamma_enclosure(bits),
    "batir_bstar": lambda bits: batir_bstar_enclosure(bits),
    "trigamma_one": lambda bits: trigamma_enclosure(1, bits),
}


class NamedConstant(Expr):
    """One of: pi, e, euler_gamma, batir_bstar, trigamma_one."""

    __slots__ = ("name",)
    name: str

    def __init__(self, name: str) -> None:
        if name not in _CONSTANTS:
            raise ValueError(
                f"unknown constant {name!r}; expected one of {tuple(_CONSTANTS)}"
            )
        super().__init__(name)

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
