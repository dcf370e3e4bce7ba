"""Expression trees evaluated to certified enclosures at exact rational points.

The node set covers everything the inequality catalog needs: field
operations, integer powers, ``exp``/``ln``/``sinh``, the digamma and
trigamma functions, and a few named constants.  Evaluation is recursive and
interval-valued throughout, so the result provably contains the true value
of the expression; its precision is the kernels' bit target ``bits``.

A node evaluates to its ends ``(lo, hi, d)``: integers ``lo <= hi`` over
one positive denominator ``d``, the interval ``[lo/d, hi/d]`` and what an
:class:`~psicert.interval.Interval` holds; ``Add``, ``Mul``, ``Div`` (``n *
d**-1``) and ``PowInt`` use ``Interval``'s end formulas.  ``Var``,
``Add``, ``Mul``, ``Div`` and ``PowInt`` keep a short point exact: an exact
result that is a single point ``a/b`` in lowest terms with ``b < 2**s`` and
``|a| < 2**(2s)``, where ``2**-s``, ``s = p + G``, is the one grid of
:mod:`psicert.interval` for the precision ``p = bits``.  So at a short
``x`` such as ``177687919/125000``, ``Digamma(X + 1)`` calls its kernel
once, at an exact argument.  Every other result is
rounded outward onto that grid: its ends are the floor and ceiling integer
quotients over ``d = 2**s`` (shifts when the exact denominator is a power
of two, as for a product of two grid values), the cells that
:func:`~psicert.interval.round_outward` picks.  Every kernel at ``p``
rounds onto the same grid, so a kernel node rounds nothing more.  Rounding
outward after a node keeps its result an enclosure of the node's true
value, so the result stays sound; it costs at most one grid step per end,
``G`` bits below the target, and it keeps endpoint sizes near ``p`` bits
whatever the size of ``x`` or the depth of the tree.  Where ``Var`` rounds
a long ``x``, it keeps an end exact where rounding would reach or cross
zero, so a domain check sees the sign of the caller's ``x``.  ``Const``
and ``Neg`` keep their own denominators, and kernels and constants are on
the grid, so a node over them rounds once, after an exact operation.
The nodes pass and read the kernels' ends as they are; ``Fraction``
appears only in the psi and psi' kernels' arguments.
:func:`rational_function` lowers a rational tree exactly, without
evaluating it.

Operator overloading builds trees readably: ``(X + F(1, 2)) * Exp(-2 * Digamma(X + 1))``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction

from . import polycert
from .elementary import _snap, iv_exp, iv_ln, iv_pi, iv_sinh
from .interval import DomainError, Frozen, Interval, _add_ends, _grid, _mul_ends, _outward, _pow_ends
from .polygamma import batir_bstar_enclosure, digamma_enclosure, euler_gamma_enclosure, trigamma_enclosure

__all__ = [
    "Add",
    "Const",
    "Digamma",
    "Div",
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


class _Point:
    """What every node of one evaluation reads: the kernels' precision
    ``bits``, the node grid ``2**-s`` with ``one = 2**s``, and ``Var``'s value."""

    __slots__ = ("bits", "s", "one", "var")

    def __init__(self, x: Fraction, bits: int) -> None:
        self.bits = bits
        self.s = s = _grid(bits)
        self.one = one = 1 << s
        a, b = x.numerator, x.denominator
        if _is_short(a, b, self):
            self.var = (a, a, b)
            return
        # on the node grid, but an end that rounding takes onto or across zero stays exact
        lo, lo_d = _snap(a, b, s, up=False)
        hi, hi_d = _snap(a, b, s, up=True)
        self.var = (lo, hi, one) if lo_d == hi_d else (lo * hi_d, hi * lo_d, lo_d * hi_d)


def _is_short(a: int, b: int, at: _Point) -> bool:
    """Whether the point ``a/b``, in lowest terms, is kept exact: ``b < 2**s``
    and ``|a| < 2**(2s)``."""
    return b < at.one and a.bit_length() <= 2 * at.s


def _rounded(lo: int, hi: int, d: int, at: _Point) -> tuple[int, int, int]:
    """``[lo/d, hi/d]`` kept exact if it is a short point, in lowest terms,
    and rounded outward onto the node grid if not."""
    if lo == hi:
        g = math.gcd(lo, d)
        a, b = lo // g, d // g
        if _is_short(a, b, at):
            return a, a, b
    return (*_outward(lo, hi, d, at.s), at.one)


class Expr(Frozen):
    """Base node; subclasses are immutable values (see
    :class:`~psicert.interval.Frozen`) implementing `_eval`, which returns
    the node's ends ``(lo, hi, d)``: the interval ``[lo/d, hi/d]``."""

    __slots__ = ()

    def _eval(self, at: _Point) -> tuple[int, int, int]:
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

    def _eval(self, at: _Point) -> tuple[int, int, int]:
        value = self.value
        return value.numerator, value.numerator, value.denominator


class Var(Expr):
    __slots__ = ()

    def _eval(self, at: _Point) -> tuple[int, int, int]:
        return at.var


class Add(Expr):
    __slots__ = ("left", "right")
    left: Expr
    right: Expr

    def _eval(self, at: _Point) -> tuple[int, int, int]:
        return _rounded(*_add_ends(self.left._eval(at), self.right._eval(at)), at)


class Mul(Expr):
    __slots__ = ("left", "right")
    left: Expr
    right: Expr

    def _eval(self, at: _Point) -> tuple[int, int, int]:
        return _rounded(*_mul_ends(self.left._eval(at), self.right._eval(at)), at)


class Div(Expr):
    __slots__ = ("num", "den")
    num: Expr
    den: Expr

    def _eval(self, at: _Point) -> tuple[int, int, int]:
        num = self.num._eval(at)  # n * d**-1, evaluated in the order n, d
        return _rounded(*_mul_ends(num, _pow_ends(self.den._eval(at), -1)), at)


class Neg(Expr):
    __slots__ = ("arg",)
    arg: Expr

    def _eval(self, at: _Point) -> tuple[int, int, int]:
        lo, hi, d = self.arg._eval(at)
        return -hi, -lo, d


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

    def _eval(self, at: _Point) -> tuple[int, int, int]:
        return _rounded(*_pow_ends(self.base._eval(at), self.exponent), at)


class Exp(Expr):
    __slots__ = ("arg",)
    arg: Expr

    def _eval(self, at: _Point) -> tuple[int, int, int]:
        return iv_exp(Interval._of(*self.arg._eval(at)), at.bits)._ends


class Ln(Expr):
    __slots__ = ("arg",)
    arg: Expr

    def _eval(self, at: _Point) -> tuple[int, int, int]:
        return iv_ln(Interval._of(*self.arg._eval(at)), at.bits)._ends


class Sinh(Expr):
    __slots__ = ("arg",)
    arg: Expr

    def _eval(self, at: _Point) -> tuple[int, int, int]:
        return iv_sinh(Interval._of(*self.arg._eval(at)), at.bits)._ends


class Digamma(Expr):
    """psi applied to a subexpression; monotonicity gives interval images."""

    __slots__ = ("arg",)
    arg: Expr

    def _eval(self, at: _Point) -> tuple[int, int, int]:
        lo, hi, d = self.arg._eval(at)
        if lo <= 0:
            raise DomainError(f"digamma argument must be positive, got {Interval._of(lo, hi, d)}")
        lo_end = digamma_enclosure(Fraction(lo, d), at.bits)._ends
        hi_end = lo_end if lo == hi else digamma_enclosure(Fraction(hi, d), at.bits)._ends
        return lo_end[0], hi_end[1], at.one  # both on the grid, never a point


class Trigamma(Expr):
    """psi' applied to a subexpression; decreasing, so endpoints swap."""

    __slots__ = ("arg",)
    arg: Expr

    def _eval(self, at: _Point) -> tuple[int, int, int]:
        lo, hi, d = self.arg._eval(at)
        if lo <= 0:
            raise DomainError(f"trigamma argument must be positive, got {Interval._of(lo, hi, d)}")
        hi_end = trigamma_enclosure(Fraction(lo, d), at.bits)._ends
        lo_end = hi_end if lo == hi else trigamma_enclosure(Fraction(hi, d), at.bits)._ends
        return lo_end[0], hi_end[1], at.one  # both on the grid, never a point


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

    def _eval(self, at: _Point) -> tuple[int, int, int]:
        return _CONSTANTS[self.name](at.bits)._ends


def evaluate(expr: Expr, x: Fraction | int, bits: int = 64) -> Interval:
    """Certified enclosure of ``expr`` at the exact rational point ``x``, with
    ``bits`` the kernels' bit target."""
    if bits < 8:
        raise ValueError("work precision must be at least 8")
    return Interval._of(*expr._eval(_Point(Fraction(x), bits)))


def rational_function(expr: Expr) -> polycert.RationalFunction:
    """The exact rational function denoted by a tree of rational nodes.

    Only Const, Var, Add, Neg, Mul, Div and PowInt are allowed; any other node
    raises ``TypeError``.  ``RationalFunction`` is canonical, so equal functions
    lower to equal values however their trees are written.
    """
    match expr:
        case Const(value):
            return polycert.RationalFunction.constant(value)
        case Var():
            return polycert.RationalFunction.x()
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
