"""Catalog of digamma/trigamma inequalities with two certification backends.

Each catalog entry states one published inequality (or monotonicity claim)
as expression trees.  ``check_grid`` evaluates both sides with certified
enclosures at chosen points and reports, per point, ``holds`` (decisive
separation the claimed way), ``violated`` (decisive separation the opposite
way — a disproof at that point), or ``undecided`` (enclosures still overlap
after the precision ladder is exhausted).  ``certify_symbolic`` replays the
exact proof skeleton for the entries whose proofs reduce to elementary
log-rational comparisons: it builds the auxiliary comparison function,
certifies its derivative's sign by shifted coefficient positivity, and
classifies its limit at infinity.

Every bound is stated once, in ``_catalog()``.  ``compare_bounds`` reads its
rows off the catalog's pairs, and ``tightness_report`` its windows and gaps
off the THM3 corrections.  The symbolic auxiliaries reuse the catalog's
rational pieces (alpha, beta, m, M, the 1/(120 x^4) and THM3a corrections)
through ``expressions.rational_function``, and take the psi' and exp
truncations from ``series`` through ``rational_from_expansion``.

The two backends answer different questions: the symbolic backend certifies
the auxiliary functions on a whole ray; the grid backend tests the stated
inequality itself at sample points.  They can legitimately disagree when a
statement's published reduction to its auxiliary function does not hold.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from fractions import Fraction
from functools import lru_cache

from . import polycert
from .elementary import _climb
from .expressions import (
    Const,
    Digamma,
    Exp,
    Expr,
    Ln,
    NamedConstant,
    Sinh,
    Trigamma,
    Var,
    evaluate,
    rational_function,
)
from .interval import Frozen, Interval
from .series import expansion, series_exp, trigamma_expansion

__all__ = [
    "CertReport",
    "CheckRecord",
    "ComparisonReport",
    "GridEvidence",
    "InequalityEntry",
    "InequalityPair",
    "MAX_REFINEMENTS",
    "SymbolicEvidence",
    "catalog",
    "certify_symbolic",
    "check_grid",
    "combined_total",
    "compare_bounds",
    "default_grid",
    "entry",
    "geometric_grid",
    "symbolic_ids",
    "tightness_report",
]

MAX_REFINEMENTS = 4
DEFAULT_GRID_POINTS = 40
DEFAULT_GRID_STOP = Fraction(10_000)


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------


class InequalityPair(Frozen):
    """One ordered claim ``lhs < rhs`` (or ``<=`` when not strict)."""

    __slots__ = ("label", "lhs", "rhs", "strict")
    label: str
    lhs: Expr
    rhs: Expr
    strict: bool

    def __init__(self, label: str, lhs: Expr, rhs: Expr, strict: bool = True) -> None:
        super().__init__(label, lhs, rhs, strict)


class InequalityEntry(Frozen):
    __slots__ = ("id", "description", "domain_start", "open_start", "pairs", "monotone_expr")
    id: str
    description: str
    domain_start: Fraction
    open_start: bool
    pairs: tuple[InequalityPair, ...]
    monotone_expr: Expr | None

    def __init__(
        self,
        id: str,
        description: str,
        domain_start: Fraction,
        open_start: bool,
        pairs: tuple[InequalityPair, ...],
        monotone_expr: Expr | None = None,
    ) -> None:
        super().__init__(id, description, domain_start, open_start, pairs, monotone_expr)

    def grid_floor(self) -> Fraction:
        """Smallest admissible grid start for this entry."""
        if not self.open_start:
            return self.domain_start
        return max(self.domain_start, Fraction(1, 10))


class GridEvidence(Frozen):
    """Both sides' enclosures at the rung that decided a check, or at the last one."""

    __slots__ = ("lhs", "rhs", "work_precision")
    lhs: Interval
    rhs: Interval
    work_precision: int


class SymbolicEvidence(Frozen):
    """One certificate step's detail, and the start of the ray it covers."""

    __slots__ = ("detail", "ray_start")
    detail: str
    ray_start: Fraction


class CheckRecord(Frozen):
    __slots__ = ("label", "verdict", "evidence")
    label: str
    verdict: str
    evidence: GridEvidence | SymbolicEvidence


class CertReport(Frozen):
    __slots__ = ("id", "method", "total", "checks")
    id: str
    method: str
    total: str
    checks: tuple[CheckRecord, ...]


# ---------------------------------------------------------------------------
# shared expression pieces
# ---------------------------------------------------------------------------

_X = Var()
_X1 = _X + 1
_PSI1_HERE = Trigamma(_X)
_PSI1_NEXT = Trigamma(_X1)


def _beta() -> Expr:
    return Const(Fraction(1, 2)) + 1 / (90 * _X**3)


def _alpha() -> Expr:
    return _beta() - 1 / (60 * _X**4)


def _quartic_correction() -> Expr:
    """1/(120 x^4): THM1's exponent correction, also subtracted in R1U and R1V."""
    return 1 / (120 * _X**4)


def _exponent_corrected() -> Expr:
    return Exp(-2 * Digamma(_X1) - _quartic_correction())


# The (lower, upper) terms that THM3a and THM3b add to theta(x, 1) and theta(x, 2).
def _thm3a_corrections() -> tuple[Expr, Expr]:
    upper = 1 / (24 * _X**5)
    return upper - 5 / (48 * _X**6), upper


def _thm3b_corrections() -> tuple[Expr, Expr]:
    lower = -1 / (45 * _X**7)
    return lower, lower + 7 / (90 * _X**8)


def _theta(m: int) -> Expr:
    return (Exp(Const(Fraction(m)) / _X1) - Exp(Const(Fraction(-m)) / _X)) / (2 * m)


def _m_expr() -> Expr:
    return 1 / _X - 1 / (24 * _X**4) + 7 / (360 * _X**6)


def _M_expr() -> Expr:
    return _m_expr() + 1 / (90 * _X**7)


def _thm1_lower() -> Expr:
    return (_X + _alpha()) * _exponent_corrected()


def _thm1_upper() -> Expr:
    return (_X + _beta()) * _exponent_corrected()


@lru_cache(maxsize=1)
def _catalog() -> tuple[InequalityEntry, ...]:
    half = Const(Fraction(1, 2))
    zero = Const(Fraction(0))
    bstar = NamedConstant("batir_bstar")
    decay = Exp(-2 * Digamma(_X1))
    theta_fn = _PSI1_NEXT * Exp(2 * Digamma(_X1)) - _X
    thm3a_lower, thm3a_upper = _thm3a_corrections()
    thm3b_lower, thm3b_upper = _thm3b_corrections()
    return (
        InequalityEntry(
            id="THM1",
            description=(
                "psi'(x+1) between (x + alpha(x)) and (x + beta(x)) times "
                "exp(-2 psi(x+1) - 1/(120 x^4)), x >= 3"
            ),
            domain_start=Fraction(3),
            open_start=False,
            pairs=(
                InequalityPair("lower", _thm1_lower(), _PSI1_NEXT, strict=False),
                InequalityPair("upper", _PSI1_NEXT, _thm1_upper(), strict=False),
            ),
        ),
        InequalityEntry(
            id="THM2",
            description="exp(m(x)) - 1 < psi'(x) < exp(M(x)) - 1, x >= 3",
            domain_start=Fraction(3),
            open_start=False,
            pairs=(
                InequalityPair("lower", Exp(_m_expr()) - 1, _PSI1_HERE),
                InequalityPair("upper", _PSI1_HERE, Exp(_M_expr()) - 1),
            ),
        ),
        InequalityEntry(
            id="THM3a",
            description=(
                "theta(x,1) + 1/(24 x^5) - 5/(48 x^6) < psi'(x+1) "
                "< theta(x,1) + 1/(24 x^5), x >= 1"
            ),
            domain_start=Fraction(1),
            open_start=False,
            pairs=(
                InequalityPair("lower", _theta(1) + thm3a_lower, _PSI1_NEXT),
                InequalityPair("upper", _PSI1_NEXT, _theta(1) + thm3a_upper),
            ),
        ),
        InequalityEntry(
            id="THM3b",
            description=(
                "theta(x,2) - 1/(45 x^7) < psi'(x+1) "
                "< theta(x,2) - 1/(45 x^7) + 7/(90 x^8), x >= 1"
            ),
            domain_start=Fraction(1),
            open_start=False,
            pairs=(
                InequalityPair("lower", _theta(2) + thm3b_lower, _PSI1_NEXT),
                InequalityPair("upper", _PSI1_NEXT, _theta(2) + thm3b_upper),
            ),
        ),
        InequalityEntry(
            id="ELE",
            description="psi'(x) < exp(-psi(x)), x > 0",
            domain_start=Fraction(0),
            open_start=True,
            pairs=(InequalityPair("upper", _PSI1_HERE, Exp(-Digamma(_X))),),
        ),
        InequalityEntry(
            id="GUO-QI",
            description="psi'(x) < exp(1/x) - 1, x > 0",
            domain_start=Fraction(0),
            open_start=True,
            pairs=(InequalityPair("upper", _PSI1_HERE, Exp(1 / _X) - 1),),
        ),
        InequalityEntry(
            id="BATIR",
            description=(
                "(x + 1/2) exp(-2 psi(x+1)) < psi'(x+1) "
                "<= (x + b*) exp(-2 psi(x+1)), x > 0"
            ),
            domain_start=Fraction(0),
            open_start=True,
            pairs=(
                InequalityPair("lower", (_X + half) * decay, _PSI1_NEXT),
                InequalityPair("upper", _PSI1_NEXT, (_X + bstar) * decay, strict=False),
            ),
        ),
        InequalityEntry(
            id="YCT",
            description="theta(x,1) < psi'(x+1) < theta(x,2), x > 0",
            domain_start=Fraction(0),
            open_start=True,
            pairs=(
                InequalityPair("lower", _theta(1), _PSI1_NEXT),
                InequalityPair("upper", _PSI1_NEXT, _theta(2)),
            ),
        ),
        InequalityEntry(
            id="XP1",
            description=(
                "exp(1/(x+1)) - e + psi'(1) < psi'(x+1) < exp(1/(x+1)) - 1 "
                "< sinh(2/x)/2, x > 0"
            ),
            domain_start=Fraction(0),
            open_start=True,
            pairs=(
                InequalityPair(
                    "lower",
                    Exp(1 / _X1) - NamedConstant("e") + NamedConstant("trigamma_one"),
                    _PSI1_NEXT,
                ),
                InequalityPair("upper", _PSI1_NEXT, Exp(1 / _X1) - 1),
                InequalityPair("sinh cap", Exp(1 / _X1) - 1, Sinh(2 / _X) / 2),
            ),
        ),
        InequalityEntry(
            id="R1U",
            description=(
                "u(x) = ln(x + alpha(x)) - ln(x + 1/2) - 1/(120 x^4) "
                "claimed negative, x >= 1"
            ),
            domain_start=Fraction(1),
            open_start=False,
            pairs=(
                InequalityPair(
                    "negativity",
                    Ln(_X + _alpha()) - Ln(_X + half) - _quartic_correction(),
                    zero,
                ),
            ),
        ),
        InequalityEntry(
            id="R1V",
            description=(
                "v(x) = ln(x + beta(x)) - 1/(120 x^4) - ln(x + b*) "
                "claimed negative, x >= 1"
            ),
            domain_start=Fraction(1),
            open_start=False,
            pairs=(
                InequalityPair(
                    "negativity",
                    Ln(_X + _beta())
                    - _quartic_correction()
                    - Ln(_X + bstar),
                    zero,
                ),
            ),
        ),
        InequalityEntry(
            id="BATIR-THETA",
            description=(
                "theta(x) = psi'(x+1) exp(2 psi(x+1)) - x decreases from b* "
                "to 1/2 on (0, inf)"
            ),
            domain_start=Fraction(0),
            open_start=True,
            pairs=(
                InequalityPair("above limiting value 1/2", half, theta_fn),
                InequalityPair("below starting value b*", theta_fn, bstar),
            ),
            monotone_expr=theta_fn,
        ),
    )


def catalog() -> list[InequalityEntry]:
    """All certified inequality entries, in presentation order."""
    return list(_catalog())


def entry(entry_id: str) -> InequalityEntry:
    for e in _catalog():
        if e.id == entry_id:
            return e
    raise ValueError(f"unknown catalog entry {entry_id!r}")


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def geometric_grid(start: Fraction, stop: Fraction, count: int) -> list[Fraction]:
    """Geometrically spaced exact rationals from start to stop inclusive.

    Interior points are snapped to denominators of 10**6 for readable
    output; endpoints stay exact.  Strict monotonicity is preserved by
    linear fallback if snapping ever collides.  Spacing is computed in
    floats, so ends whose floats (or whose ratio) fall outside float range
    raise ``ValueError``.
    """
    start, stop = Fraction(start), Fraction(stop)
    if start <= 0:
        raise ValueError("grid start must be positive")
    if stop <= start:
        raise ValueError("grid stop must exceed start")
    if count < 2:
        raise ValueError("grid needs at least two points")
    try:
        ratio = (float(stop) / float(start)) ** (1.0 / (count - 1))
        snapped = [round(float(start) * ratio**i * 10**6) for i in range(1, count - 1)]
    except (OverflowError, ZeroDivisionError):
        raise ValueError("grid ends are outside float range") from None
    points = [start]
    for i, numerator in enumerate(snapped, start=1):
        candidate = Fraction(numerator, 10**6)
        if candidate <= points[-1]:
            candidate = points[-1] + (stop - points[-1]) / (count - i)
        points.append(candidate)
    points.append(stop)
    return points


def default_grid(
    e: InequalityEntry,
    count: int = DEFAULT_GRID_POINTS,
    stop: Fraction = DEFAULT_GRID_STOP,
) -> list[Fraction]:
    return geometric_grid(e.grid_floor(), stop, count)


def _validated_grid(e: InequalityEntry, grid: list[Fraction]) -> list[Fraction]:
    points = sorted({Fraction(x) for x in grid})
    if not points:
        raise ValueError("empty grid")
    low = points[0]
    if low < e.domain_start or (e.open_start and low <= e.domain_start):
        bound = f"> {e.domain_start}" if e.open_start else f">= {e.domain_start}"
        raise ValueError(
            f"grid point {low} outside domain of {e.id} (requires x {bound})"
        )
    return points


# ---------------------------------------------------------------------------
# grid certification
# ---------------------------------------------------------------------------


def _separation(lhs: Interval, rhs: Interval, strict: bool) -> str | None:
    if lhs.strictly_less(rhs) or (not strict and lhs.hi == rhs.lo):
        return "holds"
    if lhs.strictly_greater(rhs) or (strict and lhs.lo == rhs.hi):
        return "violated"
    return None


def _refine(
    sides: Callable[[int], tuple[Interval, Interval]],
    separation: Callable[[Interval, Interval], str | None],
    base: int,
) -> tuple[str, GridEvidence]:
    """Climb the precision ladder, ``base`` bits and its ``MAX_REFINEMENTS``
    doublings, until ``separation`` decides."""
    bits, (lhs, rhs) = _climb(
        base, base << MAX_REFINEMENTS, sides, lambda ends: separation(*ends) is not None
    )
    return separation(lhs, rhs) or "undecided", GridEvidence(lhs, rhs, bits)


def _decide_pair(pair: InequalityPair, x: Fraction, base: int) -> tuple[str, GridEvidence]:
    return _refine(
        lambda bits: (evaluate(pair.lhs, x, bits), evaluate(pair.rhs, x, bits)),
        lambda lhs, rhs: _separation(lhs, rhs, pair.strict),
        base,
    )


def combined_total(verdicts: Iterable[str]) -> str:
    """``violated`` if any verdict is, else ``undecided`` if any is, else ``holds``."""
    verdicts = set(verdicts)
    if "violated" in verdicts:
        return "violated"
    if "undecided" in verdicts:
        return "undecided"
    return "holds"


def check_grid(
    entry_id: str,
    grid: list[Fraction],
    work_precision: int = 64,
) -> CertReport:
    """Certified pointwise verification of one catalog entry on a grid."""
    e = entry(entry_id)
    points = _validated_grid(e, grid)
    checks: list[CheckRecord] = []
    for x in points:
        for pair in e.pairs:
            verdict, evidence = _decide_pair(pair, x, work_precision)
            checks.append(CheckRecord(f"{pair.label} at x={x}", verdict, evidence))
    expr = e.monotone_expr
    if expr is not None:
        for a, b in zip(points, points[1:]):
            # claim: expr(a) > expr(b); the evidence lists the value at a first
            verdict, evidence = _refine(
                lambda bits: (evaluate(expr, a, bits), evaluate(expr, b, bits)),
                lambda at_a, at_b: _separation(at_b, at_a, strict=True),
                work_precision,
            )
            checks.append(
                CheckRecord(f"decreasing from x={a} to x={b}", verdict, evidence)
            )
    total = combined_total(c.verdict for c in checks)
    return CertReport(e.id, "grid", total, tuple(checks))


# ---------------------------------------------------------------------------
# symbolic certification
# ---------------------------------------------------------------------------


def _digamma_tail_rf(order: int) -> polycert.RationalFunction:
    """The non-log part of the digamma upper truncation used by the proofs.

    Deliberately carries 1/240 at x^-4 (weaker than the expansion's exact
    1/120); with the explicit 1/(120 x^4) terms of the comparison functions
    this reproduces the exact second-order tail, which is why the auxiliary
    certificates close.
    """
    tail = 1 / (2 * _X) - 1 / (12 * _X**2) + 1 / (240 * _X**4)
    if order >= 6:
        tail = tail - 1 / (252 * _X**6)
    return rational_function(tail)


def _thm1_branches() -> list[tuple[str, polycert.LogRationalExpr, Fraction]]:
    x = polycert.RationalFunction.x()
    quartic = rational_function(_quartic_correction())
    lower_aux = polycert.LogRationalExpr(
        log_terms=(
            (Fraction(1), rational_function(_X + _alpha())),
            (Fraction(-2), x),
            (Fraction(-1), polycert.rational_from_expansion(trigamma_expansion(9))),
        ),
        rational_part=Fraction(-2) * _digamma_tail_rf(6) - quartic,
    )
    upper_aux = polycert.LogRationalExpr(
        log_terms=(
            (Fraction(-1), rational_function(_X + _beta())),
            (Fraction(1), polycert.rational_from_expansion(trigamma_expansion(7))),
            (Fraction(2), x),
        ),
        rational_part=Fraction(2) * _digamma_tail_rf(4) + quartic,
    )
    return [
        ("lower auxiliary", lower_aux, Fraction(3)),
        ("upper auxiliary", upper_aux, Fraction(3)),
    ]


def _thm2_branches() -> list[tuple[str, polycert.LogRationalExpr, Fraction]]:
    # ln(1 + psi'(x)) truncations: shift the psi'(x+1) series by +1/x^2.
    one_plus_shift = rational_function(1 + 1 / _X**2)
    shifted9 = one_plus_shift + polycert.rational_from_expansion(trigamma_expansion(9))
    shifted11 = one_plus_shift + polycert.rational_from_expansion(trigamma_expansion(11))
    lower_aux = polycert.LogRationalExpr(
        log_terms=((Fraction(-1), shifted9),),
        rational_part=rational_function(_m_expr()),
    )
    upper_aux = polycert.LogRationalExpr(
        log_terms=((Fraction(1), shifted11),),
        rational_part=-rational_function(_M_expr()),
    )
    return [
        ("lower auxiliary", lower_aux, Fraction(3)),
        ("negated upper auxiliary", upper_aux, Fraction(3)),
    ]


def _thm3a_lower_branch() -> list[tuple[str, polycert.LogRationalExpr, Fraction]]:
    # exp(-1/x) through x^-7, a lower bound for x >= 1
    exp_lower7 = polycert.rational_from_expansion(series_exp(expansion({1: -1}, 7)))
    folded = (
        exp_lower7
        - 2 * rational_function(_thm3a_corrections()[0])
        + 2 * polycert.rational_from_expansion(trigamma_expansion(5))
    )
    aux = polycert.LogRationalExpr(
        log_terms=((Fraction(-1), folded),),
        rational_part=1 / (polycert.RationalFunction.x() + 1),
    )
    return [("lower auxiliary", aux, Fraction(1))]


def _r1u_branch() -> list[tuple[str, polycert.LogRationalExpr, Fraction]]:
    aux = polycert.LogRationalExpr(
        log_terms=(
            (Fraction(1), rational_function(_X + _alpha())),
            (Fraction(-1), polycert.RationalFunction.x() + Fraction(1, 2)),
        ),
        rational_part=-rational_function(_quartic_correction()),
    )
    return [("negativity", aux, Fraction(1))]


_SYMBOLIC_BUILDERS = {
    "THM1": _thm1_branches,
    "THM2": _thm2_branches,
    "THM3a-lower": _thm3a_lower_branch,
    "R1U": _r1u_branch,
}


def symbolic_ids() -> tuple[str, ...]:
    return tuple(_SYMBOLIC_BUILDERS)


def certify_symbolic(entry_id: str) -> CertReport:
    """Exact ray certificate for the symbolically replayable entries.

    The verdict is ``holds`` only when every branch's negativity
    certificate closes; an inconclusive sub-certificate yields
    ``undecided`` (the method is sufficient, not complete).
    """
    try:
        builder = _SYMBOLIC_BUILDERS[entry_id]
    except KeyError:
        raise ValueError(
            f"no symbolic certificate for {entry_id!r}; "
            f"available: {', '.join(_SYMBOLIC_BUILDERS)}"
        ) from None
    checks: list[CheckRecord] = []
    for branch_label, aux, threshold in builder():
        report = polycert.certify_negative_on_ray(aux, threshold)
        for step in report.steps:
            checks.append(
                CheckRecord(
                    f"{branch_label}: {step.label}",
                    "holds" if step.verdict == "ok" else "undecided",
                    SymbolicEvidence(step.detail, threshold),
                )
            )
    total = combined_total(c.verdict for c in checks)
    return CertReport(entry_id, "symbolic", total, tuple(checks))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _window_membership(value: Interval, window: Interval) -> str | None:
    if window.encloses(value):
        return "in"
    if value.strictly_less(window) or value.strictly_greater(window):
        return "out"
    return None


def tightness_report(
    grid: list[Fraction],
    work_precision: int = 96,
) -> list[dict[str, object]]:
    """Per-point tightness data for the theta windows and bound gaps.

    Row keys: scaled shortfalls ``x5_d1`` (of ``x^5 (psi'(x+1) - theta(x,1))``)
    and ``x7_d2``, their certified window verdicts (refined through the
    precision ladder until decidable), the three bound gaps, and the two
    completely-monotonic candidate functions with first and second forward
    differences (reported, never asserted).
    """
    points = sorted({Fraction(x) for x in grid})
    if points and points[0] < 1:
        raise ValueError("tightness grid points must be >= 1")
    d1_expr = _PSI1_NEXT - _theta(1)
    d2_expr = _PSI1_NEXT - _theta(2)
    thm1_gap_expr = _thm1_upper() - _thm1_lower()
    thm2_gap_expr = Exp(_M_expr()) - Exp(_m_expr())
    cm_upper_expr = Exp(_M_expr()) - _PSI1_HERE - 1
    cm_lower_expr = _PSI1_HERE - Exp(_m_expr()) + 1
    thm3a_lower, thm3a_upper = map(rational_function, _thm3a_corrections())
    thm3b_lower, thm3b_upper = map(rational_function, _thm3b_corrections())

    rows: list[dict[str, object]] = []
    for x in points:
        thm3a = Interval(thm3a_lower(x), thm3a_upper(x))
        thm3b = Interval(thm3b_lower(x), thm3b_upper(x))
        bits, (d1, d2) = _climb(
            work_precision,
            work_precision << MAX_REFINEMENTS,
            lambda bits: (evaluate(d1_expr, x, bits), evaluate(d2_expr, x, bits)),
            lambda ds: None not in (_window_membership(ds[0], thm3a), _window_membership(ds[1], thm3b)),
        )
        # x^5 > 0 scales exactly: d1 is in the band iff x^5 d1 is in the window
        verdict1 = _window_membership(d1, thm3a)
        verdict2 = _window_membership(d2, thm3b)
        u0, u1, u2 = (evaluate(cm_upper_expr, x + k, work_precision) for k in range(3))
        l0, l1, l2 = (evaluate(cm_lower_expr, x + k, work_precision) for k in range(3))
        rows.append(
            {
                "x": x,
                "psi_prime_next": evaluate(_PSI1_NEXT, x, bits),
                "d1": d1,
                "d2": d2,
                "x5_d1": d1 * x**5,
                "x7_d2": d2 * x**7,
                "x5_window": thm3a * x**5,
                "x7_window": thm3b * x**7,
                "x5_verdict": verdict1 or "undecided",
                "x7_verdict": verdict2 or "undecided",
                "x5_in_window": verdict1 == "in",
                "x7_in_window": verdict2 == "in",
                "thm1_gap": evaluate(thm1_gap_expr, x, work_precision),
                "thm2_gap": evaluate(thm2_gap_expr, x, work_precision),
                "thm3a_gap": thm3a.width,
                "thm3b_gap": thm3b.width,
                "cm_upper": u0,
                "cm_upper_diff1": u1 - u0,
                "cm_upper_diff2": u2 - 2 * u1 + u0,
                "cm_lower": l0,
                "cm_lower_diff1": l1 - l0,
                "cm_lower_diff2": l2 - 2 * l1 + l0,
            }
        )
    return rows


class BoundRow(Frozen):
    __slots__ = ("entry_id", "side", "target", "enclosure")
    entry_id: str
    side: str
    target: str
    enclosure: Interval


class ComparisonReport(Frozen):
    __slots__ = ("x", "targets", "rows", "relations")
    x: Fraction
    targets: dict[str, Interval]
    rows: tuple[BoundRow, ...]
    relations: tuple[CheckRecord, ...]

    @property
    def total(self) -> str:
        return combined_total(r.verdict for r in self.relations)


def compare_bounds(x: Fraction | int, work_precision: int = 64) -> ComparisonReport:
    """Evaluate every catalog bound at ``x`` and certify the dominance claims.

    The dominance relations compare bound *values* (which of two published
    bounds is tighter), independent of whether each bound correctly brackets
    the function at ``x``.
    """
    x = Fraction(x)
    if x < 1:
        raise ValueError("comparison point must be >= 1")
    labels = {_PSI1_NEXT: "psi'(x+1)", _PSI1_HERE: "psi'(x)"}
    # (id, side) -> (psi' target, bound).  Every catalog pair with psi' on one
    # side bounds it; XP1's sinh cap caps that entry's upper bound.
    bounds: dict[tuple[str, str], tuple[Expr, Expr]] = {}
    for e in _catalog():
        for pair in e.pairs:
            if pair.lhs in labels:
                bounds[e.id, pair.label] = pair.lhs, pair.rhs
            elif pair.rhs in labels:
                bounds[e.id, pair.label] = pair.rhs, pair.lhs
            elif pair.label == "sinh cap":
                bounds[e.id, "cap"] = bounds[e.id, "upper"][0], pair.rhs
    bounds["YCT", "lower (shifted)"] = _PSI1_HERE, 1 / _X**2 + _theta(1)
    bounds["YCT", "upper (shifted)"] = _PSI1_HERE, 1 / _X**2 + _theta(2)
    rows = [
        BoundRow(entry_id, side, labels[target], evaluate(bound, x, work_precision))
        for (entry_id, side), (target, bound) in bounds.items()
    ]
    rows.sort(key=lambda r: (r.target, r.enclosure.lo))
    targets = {label: evaluate(target, x, work_precision) for target, label in labels.items()}
    relations = []
    for label, lhs, rhs in [
        (
            "THM1 upper bound value below BATIR upper bound value",
            ("THM1", "upper"),
            ("BATIR", "upper"),
        ),
        (
            "THM1 lower bound value below BATIR lower bound value",
            ("THM1", "lower"),
            ("BATIR", "lower"),
        ),
        (
            "shifted theta(x,2) upper bound value below exp(1/x) - 1",
            ("YCT", "upper (shifted)"),
            ("GUO-QI", "upper"),
        ),
    ]:
        pair = InequalityPair(label, bounds[lhs][1], bounds[rhs][1])
        relations.append(CheckRecord(label, *_decide_pair(pair, x, work_precision)))
    return ComparisonReport(x, targets, tuple(rows), tuple(relations))
