"""Exact interval arithmetic over the rationals.

Every quantity in this package that cannot be represented exactly is carried
as a closed interval with rational endpoints.  All operations are *outward*:
a result interval always contains the true image of its inputs, so a strict
comparison between two disjoint intervals is a proof about the underlying
real numbers.  Field operations on :class:`Interval` are exact.  Rounding
may widen but never shrink an interval.  :func:`round_outward` rounds an
``Interval`` onto the dyadic grid of a precision; the kernels in
:mod:`psicert.elementary` and :mod:`psicert.polygamma` and the nodes of
:mod:`psicert.expressions` pick the same cells on integer ends of their
own (see :func:`_outward`), which keeps endpoint sizes bounded by the
working precision, and build an ``Interval`` only for their results.
"""

from __future__ import annotations

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

#: Extra bits of head-room used by :func:`round_outward` beyond the requested
#: precision, so rounding never dominates the error budget of the routine
#: that produced the interval.
ROUNDING_GUARD_BITS = 32


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
        cls._fields = tuple(
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
    """A closed interval ``[lo, hi]`` with exact rational endpoints."""

    __slots__ = ("lo", "hi")
    lo: Fraction
    hi: Fraction

    def __init__(self, lo: Fraction | int | str, hi: Fraction | int | str) -> None:
        lo, hi = _as_fraction(lo), _as_fraction(hi)
        if lo > hi:
            raise ValueError(f"empty interval: lo={lo} > hi={hi}")
        # the hot constructor: set the two fields without Frozen.__init__'s matching
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def point(cls, value: Fraction | int | str) -> "Interval":
        q = _as_fraction(value)
        return cls(q, q)

    # -- inspection ---------------------------------------------------------

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

    # -- certified order predicates ------------------------------------------

    def strictly_less(self, other: "Interval") -> bool:
        """True only if every point of ``self`` is below every point of ``other``."""
        return self.hi < other.lo

    def strictly_greater(self, other: "Interval") -> bool:
        return self.lo > other.hi

    def strictly_positive(self) -> bool:
        return self.lo > 0

    def strictly_negative(self) -> bool:
        return self.hi < 0

    # -- exact field arithmetic ----------------------------------------------

    def __add__(self, other: "Interval | Fraction | int") -> "Interval":
        o = _coerce(other)
        return Interval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other: "Interval | Fraction | int") -> "Interval":
        return self + (-_coerce(other))

    def __rsub__(self, other: "Interval | Fraction | int") -> "Interval":
        return _coerce(other) + (-self)

    def __mul__(self, other: "Interval | Fraction | int") -> "Interval":
        o = _coerce(other)
        products = (
            self.lo * o.lo,
            self.lo * o.hi,
            self.hi * o.lo,
            self.hi * o.hi,
        )
        return Interval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other: "Interval | Fraction | int") -> "Interval":
        o = _coerce(other)
        if o.lo <= 0 <= o.hi:
            raise DomainError(f"division by an interval containing zero: {o}")
        return self * Interval(1 / o.hi, 1 / o.lo)

    def __rtruediv__(self, other: "Interval | Fraction | int") -> "Interval":
        return _coerce(other) / self

    def __pow__(self, exponent: int) -> "Interval":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return (Interval.point(1) / self) ** (-exponent)
        if exponent == 0:
            return Interval.point(1)
        a, b = self.lo**exponent, self.hi**exponent
        if exponent % 2 == 1 or self.lo >= 0:
            return Interval(a, b)
        if self.hi <= 0:
            return Interval(b, a)
        # even power of an interval straddling zero
        return Interval(Fraction(0), max(a, b))

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


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
    """Round endpoints outward onto the dyadic grid of step ``2^-(precision+guard)``.

    The result contains ``iv`` and its endpoints have denominators dividing
    ``2^(precision + ROUNDING_GUARD_BITS)``, which keeps endpoint bit-size
    bounded across long computations.  Grids for increasing precision are
    nested, so re-rounding at higher precision never loses containment.
    An endpoint already on the grid is returned as it is; the others are
    floor and ceiling quotients of integers, ``(n << s) // d``.
    """
    if precision < 0:
        raise ValueError("precision must be nonnegative")
    shift = precision + ROUNDING_GUARD_BITS
    lo, hi = iv.lo, iv.hi
    if not _on_grid(lo, shift):
        lo = Fraction((lo.numerator << shift) // lo.denominator, 1 << shift)
    if not _on_grid(hi, shift):
        hi = Fraction(-((-hi.numerator << shift) // hi.denominator), 1 << shift)
    if lo is iv.lo and hi is iv.hi:
        return iv
    return Interval(lo, hi)


def _interval(lo: int, hi: int, d: int) -> Interval:
    """``[lo/d, hi/d]`` from integer ends over one positive denominator ``d``."""
    return Interval(Fraction(lo, d), Fraction(hi, d))


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


def _on_grid(q: Fraction, shift: int) -> bool:
    """Whether ``q`` is a multiple of ``2^-shift``: its denominator is ``2^j``, ``j <= shift``."""
    d = q.denominator
    return d & (d - 1) == 0 and d.bit_length() <= shift + 1
