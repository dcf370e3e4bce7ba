"""Command-line front end for certified enclosures, series, and inequality checks.

Exit codes: 0 when every requested verdict is ``holds`` (or the command is
purely informational and succeeds), 1 when any verdict is ``undecided`` or
``violated``, 2 for usage errors (malformed rationals, out-of-domain grids,
bad flags).  All output goes to stdout; diagnostics go to stderr.

Rationals on the command line are written ``p/q``, as integers, or as
decimal literals; decimals are converted exactly, so no rounding happens at
the boundary of the system.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction

from .elementary import iv_pi
from .interval import DomainError, Interval, parse_rational
from .polygamma import (
    batir_bstar_enclosure,
    digamma_enclosure,
    digamma_zero,
    euler_gamma_enclosure,
    trigamma_enclosure,
)
from .series import (
    AsymptoticExpansion,
    bernoulli_numbers,
    digamma_expansion,
    format_expansion,
    theta_expansion,
    trigamma_exp_digamma_expansion,
    trigamma_expansion,
)
from .theorems import (
    CertReport,
    CheckRecord,
    ComparisonReport,
    GridEvidence,
    catalog,
    certify_symbolic,
    check_grid,
    combined_total,
    compare_bounds,
    default_grid,
    entry,
    geometric_grid,
    symbolic_ids,
    tightness_report,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_UNDECIDED = 1
EXIT_USAGE = 2

CERTIFY_GROUPS: dict[str, tuple[str, ...]] = {
    "thm1": ("THM1",),
    "thm2": ("THM2",),
    "thm3": ("THM3a", "THM3b"),
    "classical": ("ELE", "GUO-QI", "BATIR", "YCT", "XP1"),
    "remark1": ("R1U", "R1V", "BATIR-THETA"),
    "all": tuple(e.id for e in catalog()),
}

SYMBOLIC_GROUPS: dict[str, tuple[str, ...]] = {
    "thm1": ("THM1",),
    "thm2": ("THM2",),
    "thm3": ("THM3a-lower",),
    "remark1": ("R1U",),
    "all": symbolic_ids(),
}


class UsageError(Exception):
    """Bad command-line input; reported on stderr with exit code 2."""


# ---------------------------------------------------------------------------
# formatting helpers
# ---------------------------------------------------------------------------


# str() refuses ints past sys.get_int_max_str_digits() digits (4300 by
# default, never below 640); 1600 bits is at most 482 digits.
_STR_PIECE_BITS = 1600


def _int_text(n: int) -> str:
    """``str(n)`` for ints of any size, converted in pieces under the limit."""
    if n < 0:
        return "-" + _int_text(-n)
    if n.bit_length() <= _STR_PIECE_BITS:
        return str(n)
    # About half the decimal digits: bit_length * log10(2) / 2.
    places = n.bit_length() * 3 // 20
    high, low = divmod(n, 10**places)
    return _int_text(high) + _int_text(low).rjust(places, "0")


def _rational_text(value: Fraction) -> str:
    """``str(value)`` for rationals of any size."""
    numerator = _int_text(value.numerator)
    if value.denominator == 1:
        return numerator
    return f"{numerator}/{_int_text(value.denominator)}"


def _decimal(value: Fraction, places: int, direction: Callable[[Fraction], int]) -> str:
    """Fixed-point decimal rendering of an exact rational.

    ``direction`` is ``math.floor`` or ``math.ceil``: a lower endpoint rounds
    toward -inf and an upper one toward +inf, so the printed interval still
    encloses the exact one.  The sign is that of the rounded value, so a
    value that rounds to zero never prints as ``-0.000...``.
    """
    scaled = direction(Fraction(value) * 10**places)
    sign = "-" if scaled < 0 else ""
    digits = _int_text(abs(scaled)).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def _scientific(value: Fraction, digits: int = 3) -> str:
    """Scientific-notation rendering that cannot underflow like floats."""
    if value == 0:
        return "0"
    sign = "-" if value < 0 else ""
    magnitude = abs(Fraction(value))
    # bits * log10(2) is within one of the exponent; the loops settle it.
    bits = magnitude.numerator.bit_length() - magnitude.denominator.bit_length()
    exponent = bits * 30103 // 100000
    while magnitude >= Fraction(10) ** (exponent + 1):
        exponent += 1
    while magnitude < Fraction(10) ** exponent:
        exponent -= 1
    mantissa = round(magnitude * Fraction(10) ** (digits - exponent))
    if mantissa >= 10 ** (digits + 1):
        mantissa //= 10
        exponent += 1
    text = str(mantissa)
    return f"{sign}{text[0]}.{text[1:]}e{exponent:+03d}"


def _iv_text(iv: Interval, places: int = 20) -> str:
    return f"[{_decimal(iv.lo, places, math.floor)}, {_decimal(iv.hi, places, math.ceil)}]"


def _iv_json(iv: Interval) -> dict[str, str]:
    return {
        "lo": _rational_text(iv.lo),
        "hi": _rational_text(iv.hi),
        "lo_decimal": _decimal(iv.lo, 30, math.floor),
        "hi_decimal": _decimal(iv.hi, 30, math.ceil),
    }


def _json_value(value: object) -> object:
    if isinstance(value, Interval):
        return _iv_json(value)
    if isinstance(value, Fraction):
        return _rational_text(value)
    return value


def _emit(
    args: argparse.Namespace,
    payload: Callable[[], dict[str, object]],
    rows: Callable[[], Iterable[dict[str, object]]],
    lines: Callable[[], Iterable[str]],
) -> None:
    """Print a command's result in ``--format``; only that format is built.

    CSV columns are the keys of all rows in order of first appearance.
    """
    if args.format == "json":
        print(json.dumps(payload(), indent=2))
    elif args.format == "csv":
        table = list(rows())
        fieldnames = list(dict.fromkeys(key for row in table for key in row))
        writer = csv.DictWriter(sys.stdout, fieldnames=fieldnames, restval="")
        writer.writeheader()
        writer.writerows(table)
    else:
        for line in lines():
            print(line)


def _flatten_for_csv(row: dict[str, object]) -> dict[str, object]:
    flat: dict[str, object] = {}
    for key, value in row.items():
        if isinstance(value, Interval):
            flat[f"{key}_lo"] = _rational_text(value.lo)
            flat[f"{key}_hi"] = _rational_text(value.hi)
        else:
            flat[key] = _json_value(value)
    return flat


def _parse_grid_spec(spec: str) -> list[Fraction]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(
            f"grid spec must be start:stop:count, got {spec!r}"
        )
    try:
        start = parse_rational(parts[0])
        stop = parse_rational(parts[1])
        count = int(parts[2])
        return geometric_grid(start, stop, count)
    except ValueError as exc:
        raise UsageError(f"bad grid spec {spec!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_bern(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise UsageError("bern index must be >= 0")
    values = list(enumerate(bernoulli_numbers(args.n)))
    _emit(
        args,
        lambda: {
            "command": "bern",
            "max_index": args.n,
            "values": {str(n): _rational_text(v) for n, v in values},
        },
        lambda: [{"n": n, "value": _rational_text(v)} for n, v in values],
        lambda: (f"B_{n} = {_rational_text(v)}" for n, v in values),
    )
    return EXIT_OK


def _build_series(args: argparse.Namespace) -> AsymptoticExpansion:
    if args.kind == "digamma":
        return digamma_expansion(args.order)
    if args.kind == "trigamma":
        return trigamma_expansion(args.order)
    if args.kind == "theta":
        return theta_expansion(parse_rational(args.m), args.order)
    return trigamma_exp_digamma_expansion(args.order)


def _cmd_series(args: argparse.Namespace) -> int:
    if args.order < 0:
        raise UsageError("series order must be >= 0")
    try:
        series = _build_series(args)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    coeffs = series.coeff_map()
    terms = [
        {"power": -k, "coefficient": _rational_text(coeffs.get(k, Fraction(0)))}
        for k in range(-series.low_degree, series.order + 1)
    ]
    _emit(
        args,
        lambda: {
            "command": "series",
            "kind": args.kind,
            "order": series.order,
            "log_coeff": _rational_text(series.log_coeff),
            "terms": terms,
        },
        lambda: terms,
        lambda: [format_expansion(series)],
    )
    return EXIT_OK


def _cmd_enclose(args: argparse.Namespace) -> int:
    x = parse_rational(args.x)
    if x <= 0:
        raise UsageError(f"{args.function} enclosure requires x > 0, got {x}")
    fn = digamma_enclosure if args.function == "digamma" else trigamma_enclosure
    name = "psi" if args.function == "digamma" else "psi'"
    header = {"function": args.function, "x": _rational_text(x)}
    return _emit_enclosure(
        args,
        f"{name}({header['x']})",
        fn(x, args.precision),
        {"command": "enclose", **header},
        header,
    )


def _emit_enclosure(
    args: argparse.Namespace,
    label: str,
    iv: Interval,
    payload: dict[str, str],
    row: dict[str, str],
) -> int:
    """The output of ``enclose`` and ``const``: one enclosure and its width.

    ``payload`` and ``row`` hold the fields that precede the enclosure in the
    json object and in the csv row.
    """
    width = iv.hi - iv.lo
    _emit(
        args,
        lambda: {**payload, "enclosure": _iv_json(iv), "width": _rational_text(width)},
        lambda: [{**row, "lo": _rational_text(iv.lo), "hi": _rational_text(iv.hi)}],
        lambda: [f"{label} in {_iv_text(iv)}  (width ~ {_scientific(width)})"],
    )
    return EXIT_OK


_CONSTANT_LABELS = {
    "gamma": "Euler-Mascheroni constant",
    "bstar": "pi^2 / (6 exp(2 gamma))",
    "pi": "pi",
    "digamma-zero": "positive zero of psi",
}


def _cmd_const(args: argparse.Namespace) -> int:
    tolerance = parse_rational(args.tol) if args.tol is not None else None
    if tolerance is not None and tolerance <= 0:
        raise UsageError("tolerance must be positive")
    name = args.name
    if name == "digamma-zero":
        enclosure = digamma_zero(tolerance if tolerance is not None else Fraction(1, 10**6))
    else:
        bits = args.precision
        if tolerance is not None:  # the fewest bits with 2**-bits <= tolerance
            ceil_inverse = -(-tolerance.denominator // tolerance.numerator)
            bits = max(bits, (ceil_inverse - 1).bit_length())
        kernels = {"gamma": euler_gamma_enclosure, "bstar": batir_bstar_enclosure, "pi": iv_pi}
        enclosure = kernels[name](bits)  # of width at most 2**-bits
        if tolerance is not None and enclosure.width > tolerance:
            print("error: tolerance not reached", file=sys.stderr)
            return EXIT_UNDECIDED
    return _emit_enclosure(
        args,
        name,
        enclosure,
        {"command": "const", "name": name, "description": _CONSTANT_LABELS[name]},
        {"name": name},
    )


def _evidence_fields(check: CheckRecord) -> dict[str, str]:
    """A check's evidence as strings, rationals printed at any size."""
    evidence = check.evidence
    if not isinstance(evidence, GridEvidence):
        return {"detail": evidence.detail, "ray_start": _rational_text(evidence.ray_start)}
    return {
        "lhs_lo": _rational_text(evidence.lhs.lo),
        "lhs_hi": _rational_text(evidence.lhs.hi),
        "rhs_lo": _rational_text(evidence.rhs.lo),
        "rhs_hi": _rational_text(evidence.rhs.hi),
        "work_precision": str(evidence.ctx.work_precision),
    }


def _check_json(check: CheckRecord) -> dict[str, object]:
    return {"label": check.label, "verdict": check.verdict, "evidence": _evidence_fields(check)}


def _report_json(report: CertReport) -> dict[str, object]:
    return {
        "id": report.id,
        "method": report.method,
        "total": report.total,
        "checks": [_check_json(c) for c in report.checks],
    }


def _report_text(report: CertReport) -> list[str]:
    lines = [f"{report.id} [{report.method}] -> {report.total}"]
    shown = 0
    for check in report.checks:
        if report.method == "symbolic":
            mark = "ok" if check.verdict == "holds" else "??"
            lines.append(f"  {mark} {check.label}: {check.evidence.detail}")
        elif check.verdict != "holds":
            lines.append(
                f"  {check.verdict.upper()} {check.label}: lhs "
                f"{_iv_text(check.evidence.lhs, 12)} vs rhs {_iv_text(check.evidence.rhs, 12)}"
            )
            shown += 1
            if shown >= 20:
                remaining = sum(
                    1 for c in report.checks if c.verdict != "holds"
                ) - shown
                if remaining > 0:
                    lines.append(f"  ... and {remaining} more")
                break
    if report.method == "grid":
        counts: dict[str, int] = {}
        for check in report.checks:
            counts[check.verdict] = counts.get(check.verdict, 0) + 1
        summary = ", ".join(f"{v}: {n}" for v, n in sorted(counts.items()))
        lines.append(f"  checks -- {summary}")
    return lines


def _certify_csv_rows(reports: list[CertReport]) -> Iterator[dict[str, object]]:
    for report in reports:
        for check in report.checks:
            yield {
                "id": report.id,
                "method": report.method,
                "label": check.label,
                "verdict": check.verdict,
                **_evidence_fields(check),
            }


def _cmd_certify(args: argparse.Namespace) -> int:
    if args.symbolic and args.grid:
        raise UsageError("--symbolic and --grid are mutually exclusive")
    reports: list[CertReport] = []
    if args.symbolic:
        symbolic = SYMBOLIC_GROUPS.get(args.selection)
        if not symbolic:
            raise UsageError(
                f"no symbolic certificates for selection {args.selection!r}"
            )
        reports = [certify_symbolic(sid) for sid in symbolic]
    else:
        grid_points = _parse_grid_spec(args.grid) if args.grid else None
        for entry_id in CERTIFY_GROUPS[args.selection]:
            grid = grid_points if grid_points is not None else default_grid(entry(entry_id))
            reports.append(check_grid(entry_id, grid, work_precision=args.precision))
    total = combined_total(r.total for r in reports)
    _emit(
        args,
        lambda: {
            "command": "certify",
            "selection": args.selection,
            "mode": "symbolic" if args.symbolic else "grid",
            "total": total,
            "reports": [_report_json(r) for r in reports],
        },
        lambda: _certify_csv_rows(reports),
        lambda: [
            *(line for report in reports for line in _report_text(report)),
            f"total: {total}",
        ],
    )
    return EXIT_OK if total == "holds" else EXIT_UNDECIDED


_WINDOW_VERDICTS = {"in": "holds", "out": "violated", "undecided": "undecided"}


def _tightness_outcome(rows: list[dict[str, object]]) -> str:
    verdicts = (row[key] for row in rows for key in ("x5_verdict", "x7_verdict"))
    return combined_total(_WINDOW_VERDICTS[v] for v in verdicts)


def _tightness_lines(rows: list[dict[str, object]], outcome: str) -> Iterator[str]:
    for row in rows:
        yield (
            f"x={_rational_text(row['x'])}: x^5*d1 ~ {_iv_text(row['x5_d1'], 12)}"
            f" ({row['x5_verdict']}),"
            f" x^7*d2 ~ {_iv_text(row['x7_d2'], 12)}"
            f" ({row['x7_verdict']})"
        )
        yield (
            f"    gaps: thm1 ~ {_scientific(row['thm1_gap'].hi)},"
            f" thm2 ~ {_scientific(row['thm2_gap'].hi)},"
            f" thm3a = {_rational_text(row['thm3a_gap'])},"
            f" thm3b = {_rational_text(row['thm3b_gap'])}"
        )
    yield f"total: {outcome}"


def _compare_csv_rows(reports: list[ComparisonReport]) -> Iterator[dict[str, object]]:
    for c in reports:
        for row in c.rows:
            yield {
                "record": "bound",
                "x": _rational_text(c.x),
                "id": row.entry_id,
                "side": row.side,
                "target": row.target,
                "lo": _rational_text(row.enclosure.lo),
                "hi": _rational_text(row.enclosure.hi),
                "verdict": "",
            }
        for relation in c.relations:
            yield {
                "record": "relation",
                "x": _rational_text(c.x),
                "id": relation.label,
                "side": "",
                "target": "",
                "lo": _rational_text(relation.evidence.lhs.lo),
                "hi": _rational_text(relation.evidence.rhs.hi),
                "verdict": relation.verdict,
            }


def _compare_lines(comparisons: list[ComparisonReport], total: str) -> Iterator[str]:
    for c in comparisons:
        yield f"x = {_rational_text(c.x)}"
        for label, iv in sorted(c.targets.items()):
            yield f"  {label:11s} = {_iv_text(iv)}"
        for row in c.rows:
            yield (
                f"  {row.target:11s} {row.entry_id:11s} {row.side:16s}"
                f" {_iv_text(row.enclosure)}"
            )
        for relation in c.relations:
            yield f"  {relation.verdict:9s} {relation.label}"
    yield f"total: {total}"


def _cmd_report(args: argparse.Namespace) -> int:
    grid = _parse_grid_spec(args.grid)
    if args.kind == "tightness":
        rows = tightness_report(grid, work_precision=args.precision)
        outcome = _tightness_outcome(rows)
        _emit(
            args,
            lambda: {
                "command": "report",
                "kind": "tightness",
                "total": outcome,
                "rows": [
                    {key: _json_value(value) for key, value in row.items()}
                    for row in rows
                ],
            },
            lambda: [_flatten_for_csv(row) for row in rows],
            lambda: _tightness_lines(rows, outcome),
        )
        return EXIT_OK if outcome == "holds" else EXIT_UNDECIDED

    comparisons = [compare_bounds(x, work_precision=args.precision) for x in grid]
    total = combined_total(c.total for c in comparisons)
    _emit(
        args,
        lambda: {
            "command": "report",
            "kind": "compare",
            "total": total,
            "points": [
                {
                    "x": _rational_text(c.x),
                    "targets": {label: _iv_json(iv) for label, iv in c.targets.items()},
                    "bounds": [
                        {
                            "id": row.entry_id,
                            "side": row.side,
                            "target": row.target,
                            "enclosure": _iv_json(row.enclosure),
                        }
                        for row in c.rows
                    ],
                    "relations": [_check_json(r) for r in c.relations],
                }
                for c in comparisons
            ],
        },
        lambda: _compare_csv_rows(comparisons),
        lambda: _compare_lines(comparisons, total),
    )
    return EXIT_OK if total == "holds" else EXIT_UNDECIDED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Reads a token such as ``-7/5`` or ``-.5`` as a value, not an option.

    argparse takes a token that starts with ``-`` for an option unless it
    looks like a negative integer or decimal, which ``-7/5`` does not.  No
    psicert option starts with a digit, so every such token is a value.
    Subparsers are built with the parent's class and inherit this.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="psicert",
        description=(
            "Certified rational enclosures of digamma/trigamma values, exact "
            "asymptotic series, and replayable inequality certificates."
        ),
    )
    parser.add_argument(
        "--precision",
        type=int,
        default=64,
        help="working precision in bits, >= 8 (default 64)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format (default text)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bern = sub.add_parser("bern", help="print Bernoulli numbers B_0..B_n")
    p_bern.add_argument("n", type=int)
    p_bern.set_defaults(handler=_cmd_bern)

    p_series = sub.add_parser("series", help="exact asymptotic expansions")
    p_series.add_argument(
        "kind", choices=("digamma", "trigamma", "theta", "product")
    )
    p_series.add_argument("--order", type=int, required=True)
    p_series.add_argument(
        "--m", default="1", help="theta parameter (rational, default 1)"
    )
    p_series.set_defaults(handler=_cmd_series)

    p_enclose = sub.add_parser(
        "enclose", help="certified enclosure of psi or psi' at a rational point"
    )
    p_enclose.add_argument("function", choices=("digamma", "trigamma"))
    p_enclose.add_argument("x")
    p_enclose.set_defaults(handler=_cmd_enclose)

    p_const = sub.add_parser("const", help="certified enclosures of constants")
    p_const.add_argument("name", choices=("gamma", "bstar", "pi", "digamma-zero"))
    p_const.add_argument("--tol", default=None, help="target enclosure width")
    p_const.set_defaults(handler=_cmd_const)

    p_certify = sub.add_parser(
        "certify", help="check catalog inequalities on a grid or symbolically"
    )
    p_certify.add_argument("selection", choices=tuple(CERTIFY_GROUPS))
    p_certify.add_argument("--symbolic", action="store_true")
    p_certify.add_argument(
        "--grid", default=None, help="geometric grid spec start:stop:count"
    )
    p_certify.set_defaults(handler=_cmd_certify)

    p_report = sub.add_parser(
        "report", help="tightness or bound-comparison tables"
    )
    p_report.add_argument("kind", choices=("tightness", "compare"))
    p_report.add_argument(
        "--grid", required=True, help="geometric grid spec start:stop:count"
    )
    p_report.set_defaults(handler=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.precision < 8:
            raise UsageError("precision must be at least 8 bits")
        return args.handler(args)
    except (UsageError, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
