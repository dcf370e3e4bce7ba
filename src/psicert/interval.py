"""Exact interval arithmetic over the rationals.

Every quantity in this package that cannot be represented exactly is carried
as a closed interval with rational endpoints.  All operations are *outward*:
a result interval always contains the true image of its inputs, so a strict
comparison between two disjoint intervals is a proof about the underlying
real numbers.  Field operations on :class:`Interval` are exact.  Rounding
may widen but never shrink an interval.  An :class:`Interval` holds integer
ends ``(lo, hi, d)`` over one positive denominator, the form in which the
kernels of :mod:`psicert.elementary` and :mod:`psicert.polygamma` compute
and the nodes of :mod:`psicert.expressions` evaluate, and the nodes share
``Interval``'s end formulas (:func:`_add_ends`, :func:`_mul_ends`,
:func:`_pow_ends`).

One grid and one guard rule: at a precision ``p`` every kernel (exp, ln,
sinh, pi, ln 2, psi, psi' and the constants on them), every expression node
and :func:`round_outward` round outward onto ``2**-(p + G)``, ``G =
ROUNDING_GUARD_BITS``, with :func:`_outward`, which keeps endpoint sizes
bounded by the precision.  A kernel's width ``2**-p`` is ``2**G`` steps of
that grid; its docstring spends them on its parts' counted errors and one
step per end for each rounding, and its working precisions follow from that
budget.  :func:`_grid` is the grid's exponent and every kernel's one
precision check.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "DomainError",
    "Frozen",
    "Interval",
    "ROUNDING_GUARD_BITS",
    "iv_arith",
    "parse_rational",
    "round_outward",
]

#: ``G``, the guard of the one grid ``2**-(p + G)`` (see the module docstring).
ROUNDING_GUARD_BITS = 32


def _grid(precision: int) -> int:
    """``precision + ROUNDING_GUARD_BITS``, the exponent of the one grid, for a
    precision ``>= 0``; a negative one raises ``ValueError``."""
    if precision < 0:
        raise ValueError("precision must be nonnegative")
    return precision + ROUNDING_GUARD_BITS


class DomainError(ValueError):
    """An operation was applied outside its mathematical domain."""


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"``, integer, or decimal notation into an exact rational.

    Decimal literals are converted exactly (``"0.1"`` becomes ``1/10``), so
    no rounding can sneak in at the boundary of the system.
    """
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def _as_fraction(value: Fraction | int | str) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class Frozen:
    """Base of psicert's immutable value types; the fields are the ``__slots__``.

    A subclass lists its fields in ``__slots__`` and gets a constructor that
    takes them positionally or by keyword, ``__eq__`` (same type and equal
    fields), ``__hash__``, ``__repr__`` and ``__match_args__``.  Assigning or
    deleting an attribute raises ``AttributeError``.  A subclass with rules
    of its own (coercion, validation, a default or a derived field) writes
    an ``__init__`` that passes the final values on to ``Frozen.__init__``.
    A subclass that stores its fields in another form declares ``_fields``
    and gives them as properties, as :class:`Interval` does.

    psicert does not use ``dataclasses``: every CLI call is a fresh
    interpreter, and importing ``dataclasses`` (with ``inspect``) and
    generating the methods of 29 frozen dataclasses through ``exec`` at each
    import cost about 40 ms of it.  A fresh ``python -m psicert bern 0`` took
    about 0.20 s with them and 0.16 s without (medians of 21 runs, Python
    3.11 without bytecode files, two vCPUs).
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if "__slots__" not in cls.__dict__:
            raise TypeError(f"{cls.__name__} must declare its fields in __slots__")
        cls._fields = cls.__dict__.get("_fields") or tuple(
            name for klass in reversed(cls.__mro__) for name in klass.__dict__.get("__slots__", ())
        )
        if "__match_args__" not in cls.__dict__:
            cls.__match_args__ = cls._fields

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self._fields
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, got {len(args)}")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{type(self).__name__} got a repeated or unknown field {name!r}")
            values[name] = value
        missing = [name for name in names if name not in values]
        if missing:
            raise TypeError(f"{type(self).__name__} is missing field(s) {', '.join(missing)}")
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


class Interval(Frozen):
    """A closed interval ``[lo, hi]`` with exact rational endpoints, held as
    integer ends ``(lo, hi, d)``, ``d > 0``; ``lo`` and ``hi`` are built when
    read.  Any ``d`` can hold a value: equality cross-multiplies the ends and
    the hash is that of ``(lo, hi)``, so all of them are equal and hash alike."""

    __slots__ = ("_ends",)
    _fields = ("lo", "hi")
    _ends: tuple[int, int, int]

    def __init__(self, lo: Fraction | int | str, hi: Fraction | int | str) -> None:
        lo, hi = _as_fraction(lo), _as_fraction(hi)
        if lo > hi:
            raise ValueError(f"empty interval: lo={lo} > hi={hi}")
        a, b = lo.denominator, hi.denominator
        d = math.lcm(a, b)
        object.__setattr__(self, "_ends", (lo.numerator * (d // a), hi.numerator * (d // b), d))

    @classmethod
    def _of(cls, lo: int, hi: int, d: int) -> "Interval":
        """``[lo/d, hi/d]`` from integers ``lo <= hi`` and ``d > 0``, unchecked."""
        iv = object.__new__(cls)
        object.__setattr__(iv, "_ends", (lo, hi, d))
        return iv

    @classmethod
    def point(cls, value: Fraction | int | str) -> "Interval":
        q = _as_fraction(value)
        return cls._of(q.numerator, q.numerator, q.denominator)

    # -- inspection ---------------------------------------------------------

    @property
    def lo(self) -> Fraction:
        lo, _, d = self._ends
        return Fraction(lo, d)

    @property
    def hi(self) -> Fraction:
        _, hi, d = self._ends
        return Fraction(hi, d)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def __contains__(self, value: object) -> bool:
        q = _as_fraction(value)  # type: ignore[arg-type]
        return self.lo <= q <= self.hi

    def encloses(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        alo, ahi, ad = self._ends
        blo, bhi, bd = other._ends  # type: ignore[attr-defined]
        return alo * bd == blo * ad and ahi * bd == bhi * ad

    __hash__ = Frozen.__hash__  # defining __eq__ drops it; hash((lo, hi)) over the Fractions

    # -- certified order predicates ------------------------------------------

    def strictly_less(self, other: "Interval") -> bool:
        """True only if every point of ``self`` is below every point of ``other``."""
        _, hi, d = self._ends
        lo, _, e = other._ends
        return hi * e < lo * d

    def strictly_greater(self, other: "Interval") -> bool:
        return other.strictly_less(self)

    def strictly_positive(self) -> bool:
        return self._ends[0] > 0

    def strictly_negative(self) -> bool:
        return self._ends[1] < 0

    # -- exact field arithmetic ----------------------------------------------

    def __add__(self, other: "Interval | Fraction | int") -> "Interval":
        return Interval._of(*_add_ends(self._ends, _coerce(other)._ends))

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        lo, hi, d = self._ends
        return Interval._of(-hi, -lo, d)

    def __sub__(self, other: "Interval | Fraction | int") -> "Interval":
        return self + (-_coerce(other))

    def __rsub__(self, other: "Interval | Fraction | int") -> "Interval":
        return _coerce(other) + (-self)

    def __mul__(self, other: "Interval | Fraction | int") -> "Interval":
        return Interval._of(*_mul_ends(self._ends, _coerce(other)._ends))

    __rmul__ = __mul__

    def __truediv__(self, other: "Interval | Fraction | int") -> "Interval":
        return self * _coerce(other) ** -1

    def __rtruediv__(self, other: "Interval | Fraction | int") -> "Interval":
        return _coerce(other) / self

    def __pow__(self, exponent: int) -> "Interval":
        if not isinstance(exponent, int):
            return NotImplemented
        return Interval._of(*_pow_ends(self._ends, exponent))

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def _add_ends(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    """The ends of the sum of two intervals given by their ends."""
    alo, ahi, ad = a
    blo, bhi, bd = b
    if ad == bd:
        return alo + blo, ahi + bhi, ad
    return alo * bd + blo * ad, ahi * bd + bhi * ad, ad * bd


def _mul_ends(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    """The ends of the product: the least and the greatest of the four end products."""
    alo, ahi, ad = a
    blo, bhi, bd = b
    products = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    return min(products), max(products), ad * bd


def _pow_ends(ends: tuple[int, int, int], e: int) -> tuple[int, int, int]:
    """The ends of the ``e``-th power for an integer ``e``; for ``e < 0``,
    of the reciprocal's ``-e``-th power, over an interval without zero."""
    lo, hi, d = ends
    if e == 0:
        return 1, 1, 1
    if e < 0:  # [lo/d, hi/d]**-1 = [d/hi, d/lo] = [d lo, d hi] / (lo hi), with lo hi > 0
        if lo <= 0 <= hi:
            raise DomainError(f"division by an interval containing zero: {Interval._of(lo, hi, d)}")
        lo, hi, d, e = d * lo, d * hi, lo * hi, -e
    a, b = lo**e, hi**e
    if e % 2 == 0 and lo < 0:
        a, b = (b, a) if hi <= 0 else (0, max(a, b))
    return a, b, d**e


def _coerce(value: "Interval | Fraction | int | str") -> Interval:
    if isinstance(value, Interval):
        return value
    return Interval.point(_as_fraction(value))


def iv_arith(
    op: str,
    a: Interval,
    b: "Interval | Fraction | int | None" = None,
) -> Interval:
    """Dispatch one primitive interval operation by name.

    ``op`` is one of ``add``, ``sub``, ``mul``, ``div``, ``neg``, ``pow_int``.
    ``neg`` is unary; ``pow_int`` takes an integer exponent for ``b``.
    """
    if op == "neg":
        if b is not None:
            raise ValueError("neg is a unary operation")
        return -a
    if b is None:
        raise ValueError(f"operation {op!r} needs a second operand")
    if op == "add":
        return a + _coerce(b)
    if op == "sub":
        return a - _coerce(b)
    if op == "mul":
        return a * _coerce(b)
    if op == "div":
        return a / _coerce(b)
    if op == "pow_int":
        if isinstance(b, Interval):
            raise ValueError("pow_int takes an integer exponent, not an interval")
        exponent = int(b)
        if Fraction(exponent) != _as_fraction(b):
            raise ValueError(f"pow_int exponent must be an integer, got {b!r}")
        return a**exponent
    raise ValueError(f"unknown interval operation {op!r}")


def round_outward(iv: Interval, precision: int) -> Interval:
    """Round endpoints outward onto the one grid, of step ``2^-(precision + G)``.

    The result contains ``iv`` and its endpoints have denominators dividing
    ``2^(precision + ROUNDING_GUARD_BITS)``, the grid of every kernel and
    node at that precision.  Grids for increasing precision are nested, so
    re-rounding at higher precision never loses containment.  An interval
    already on the grid is returned as it is; the others get the floor and
    the ceiling of :func:`_outward`, at most one step outward at each end.
    """
    shift = _grid(precision)
    lo, hi, d = iv._ends
    if d & (d - 1) == 0 and d.bit_length() <= shift + 1:
        return iv
    return Interval._of(*_outward(lo, hi, d, shift), 1 << shift)


def _outward(lo: int, hi: int, d: int, s: int) -> tuple[int, int]:
    """``[lo/d, hi/d]`` rounded outward onto the grid ``2**-s``, as the
    numerators over ``2**s`` of the floor of ``lo/d`` and the ceiling of
    ``hi/d``: quotients of integers, or shifts when ``d`` is a power of two."""
    if d & (d - 1):
        return (lo << s) // d, -((-hi << s) // d)
    shift = d.bit_length() - 1 - s
    if shift < 0:
        return lo << -shift, hi << -shift
    return lo >> shift, -(-hi >> shift)
