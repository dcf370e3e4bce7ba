"""Command-line front end for certified enclosures, series, and inequality checks.

Exit codes: 0 when every requested verdict is ``holds`` (or the command is
purely informational and succeeds), 1 when any verdict is ``undecided`` or
``violated``, 2 for usage errors (malformed rationals, out-of-domain grids,
bad flags).  All output goes to stdout; diagnostics go to stderr.

Rationals on the command line are written ``p/q``, as integers, or as
decimal literals; decimals are converted exactly, so no rounding happens at
the boundary of the system.  Output prints every exact value in full, at any
size, through ``interval._rational_text``; a literal past ``int``'s
4,300-digit parse limit is refused with exit code 2.
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

# Modules, not names: each loads on first use (see the package docstring),
# so a command runs only the modules it calls.
from . import elementary, interval, polygamma, series, theorems

__all__ = ["main"]

EXIT_OK = 0
EXIT_UNDECIDED = 1
EXIT_USAGE = 2

# Selection ``all`` is every catalog entry (grid) or every symbolic
# certificate, read from ``theorems`` when a certify command runs.  A symbolic
# id is an entry's id, alone or followed by a dash and a pair label
# (``THM3a-lower``), and belongs to that entry's group.
CERTIFY_GROUPS: dict[str, tuple[str, ...]] = {
    "thm1": ("THM1",),
    "thm2": ("THM2",),
    "thm3": ("THM3a", "THM3b"),
    "classical": ("ELE", "GUO-QI", "BATIR", "YCT", "XP1"),
    "remark1": ("R1U", "R1V", "BATIR-THETA"),
}


class UsageError(Exception):
    """Bad command-line input; reported on stderr with exit code 2."""


# ---------------------------------------------------------------------------
# formatting helpers
# ---------------------------------------------------------------------------


def _decimal(value: Fraction, places: int, direction: Callable[[Fraction], int]) -> str:
    """Fixed-point decimal rendering of an exact rational.

    ``direction`` is ``math.floor`` or ``math.ceil``: a lower endpoint rounds
    toward -inf and an upper one toward +inf, so the printed interval still
    encloses the exact one.  The sign is that of the rounded value, so a
    value that rounds to zero never prints as ``-0.000...``.
    """
    scaled = direction(Fraction(value) * 10**places)
    sign = "-" if scaled < 0 else ""
    digits = interval._int_text(abs(scaled)).rjust(places + 1, "0")
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


def _iv_text(iv: interval.Interval, places: int = 20) -> str:
    return f"[{_decimal(iv.lo, places, math.floor)}, {_decimal(iv.hi, places, math.ceil)}]"


def _iv_json(iv: interval.Interval) -> dict[str, str]:
    return {
        "lo": interval._rational_text(iv.lo),
        "hi": interval._rational_text(iv.hi),
        "lo_decimal": _decimal(iv.lo, 30, math.floor),
        "hi_decimal": _decimal(iv.hi, 30, math.ceil),
    }


def _json_value(value: object) -> object:
    if isinstance(value, interval.Interval):
        return _iv_json(value)
    if isinstance(value, Fraction):
        return interval._rational_text(value)
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
        if isinstance(value, interval.Interval):
            flat[f"{key}_lo"] = interval._rational_text(value.lo)
            flat[f"{key}_hi"] = interval._rational_text(value.hi)
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
        start = interval.parse_rational(parts[0])
        stop = interval.parse_rational(parts[1])
        count = int(parts[2])
        return theorems.geometric_grid(start, stop, count)
    except ValueError as exc:
        raise UsageError(f"bad grid spec {spec!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_bern(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise UsageError("bern index must be >= 0")
    values = list(enumerate(series.bernoulli_numbers(args.n)))
    _emit(
        args,
        lambda: {
            "command": "bern",
            "max_index": args.n,
            "values": {str(n): interval._rational_text(v) for n, v in values},
        },
        lambda: [{"n": n, "value": interval._rational_text(v)} for n, v in values],
        lambda: (f"B_{n} = {interval._rational_text(v)}" for n, v in values),
    )
    return EXIT_OK


def _build_series(args: argparse.Namespace) -> series.AsymptoticExpansion:
    if args.kind == "digamma":
        return series.digamma_expansion(args.order)
    if args.kind == "trigamma":
        return series.trigamma_expansion(args.order)
    if args.kind == "theta":
        return series.theta_expansion(interval.parse_rational(args.m), args.order)
    return series.trigamma_exp_digamma_expansion(args.order)


def _cmd_series(args: argparse.Namespace) -> int:
    if args.order < 0:
        raise UsageError("series order must be >= 0")
    try:
        expansion = _build_series(args)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    coeffs = expansion.coeff_map()
    terms = [
        {"power": -k, "coefficient": interval._rational_text(coeffs.get(k, Fraction(0)))}
        for k in range(-expansion.low_degree, expansion.order + 1)
    ]
    _emit(
        args,
        lambda: {
            "command": "series",
            "kind": args.kind,
            "order": expansion.order,
            "log_coeff": interval._rational_text(expansion.log_coeff),
            "terms": terms,
        },
        lambda: terms,
        lambda: [series.format_expansion(expansion)],
    )
    return EXIT_OK


def _cmd_enclose(args: argparse.Namespace) -> int:
    x = interval.parse_rational(args.x)
    header = {"function": args.function, "x": interval._rational_text(x)}
    if x <= 0:
        raise UsageError(f"{args.function} enclosure requires x > 0, got {header['x']}")
    fn = polygamma.digamma_enclosure if args.function == "digamma" else polygamma.trigamma_enclosure
    name = "psi" if args.function == "digamma" else "psi'"
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
    iv: interval.Interval,
    payload: dict[str, str],
    row: dict[str, str],
) -> int:
    """The output of ``enclose`` and ``const``: one enclosure and its width.

    ``payload`` and ``row`` hold the fields that precede the enclosure in the
    json object and in the csv row.
    """
    width, text = iv.hi - iv.lo, interval._rational_text
    _emit(
        args,
        lambda: {**payload, "enclosure": _iv_json(iv), "width": text(width)},
        lambda: [{**row, "lo": text(iv.lo), "hi": text(iv.hi)}],
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
    tolerance = interval.parse_rational(args.tol) if args.tol is not None else None
    if tolerance is not None and tolerance <= 0:
        raise UsageError("tolerance must be positive")
    name = args.name
    if name == "digamma-zero":
        enclosure = polygamma.digamma_zero(
            tolerance if tolerance is not None else Fraction(1, 10**6)
        )
    else:
        bits = args.precision
        if tolerance is not None:
            bits = max(bits, elementary._tolerance_bits(tolerance))
        # Each kernel's width is at most 2**-bits; pi's runs without polygamma.
        if name == "pi":
            enclosure = elementary.iv_pi(bits)
        elif name == "gamma":
            enclosure = polygamma.euler_gamma_enclosure(bits)
        else:
            enclosure = polygamma.batir_bstar_enclosure(bits)
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


def _evidence_fields(check: theorems.CheckRecord) -> dict[str, str]:
    """A check's evidence as strings, rationals printed at any size."""
    evidence = check.evidence
    if not isinstance(evidence, theorems.GridEvidence):
        return {"detail": evidence.detail, "ray_start": interval._rational_text(evidence.ray_start)}
    return {
        "lhs_lo": interval._rational_text(evidence.lhs.lo),
        "lhs_hi": interval._rational_text(evidence.lhs.hi),
        "rhs_lo": interval._rational_text(evidence.rhs.lo),
        "rhs_hi": interval._rational_text(evidence.rhs.hi),
        "work_precision": str(evidence.work_precision),
    }


def _check_json(check: theorems.CheckRecord) -> dict[str, object]:
    return {"label": check.label, "verdict": check.verdict, "evidence": _evidence_fields(check)}


def _report_json(report: theorems.CertReport) -> dict[str, object]:
    return {
        "id": report.id,
        "method": report.method,
        "total": report.total,
        "checks": [_check_json(c) for c in report.checks],
    }


def _report_text(report: theorems.CertReport) -> list[str]:
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


def _certify_csv_rows(reports: list[theorems.CertReport]) -> Iterator[dict[str, object]]:
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
    every = args.selection == "all"
    reports: list[theorems.CertReport] = []
    if args.symbolic:
        group = CERTIFY_GROUPS.get(args.selection, ())
        symbolic = [
            sid
            for sid in theorems.symbolic_ids()
            if every or sid in group or sid.rpartition("-")[0] in group
        ]
        if not symbolic:
            raise UsageError(
                f"no symbolic certificates for selection {args.selection!r}"
            )
        reports = [theorems.certify_symbolic(sid) for sid in symbolic]
    else:
        grid_points = _parse_grid_spec(args.grid) if args.grid else None
        ids = [e.id for e in theorems.catalog()] if every else CERTIFY_GROUPS[args.selection]
        for entry_id in ids:
            grid = grid_points
            if grid is None:
                grid = theorems.default_grid(theorems.entry(entry_id))
            reports.append(theorems.check_grid(entry_id, grid, work_precision=args.precision))
    total = theorems.combined_total(r.total for r in reports)
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
    return theorems.combined_total(_WINDOW_VERDICTS[v] for v in verdicts)


def _tightness_lines(rows: list[dict[str, object]], outcome: str) -> Iterator[str]:
    for row in rows:
        yield (
            f"x={interval._rational_text(row['x'])}: x^5*d1 ~ {_iv_text(row['x5_d1'], 12)}"
            f" ({row['x5_verdict']}),"
            f" x^7*d2 ~ {_iv_text(row['x7_d2'], 12)}"
            f" ({row['x7_verdict']})"
        )
        yield (
            f"    gaps: thm1 ~ {_scientific(row['thm1_gap'].hi)},"
            f" thm2 ~ {_scientific(row['thm2_gap'].hi)},"
            f" thm3a = {interval._rational_text(row['thm3a_gap'])},"
            f" thm3b = {interval._rational_text(row['thm3b_gap'])}"
        )
    yield f"total: {outcome}"


def _compare_csv_rows(reports: list[theorems.ComparisonReport]) -> Iterator[dict[str, object]]:
    for c in reports:
        for row in c.rows:
            yield {
                "record": "bound",
                "x": interval._rational_text(c.x),
                "id": row.entry_id,
                "side": row.side,
                "target": row.target,
                "lo": interval._rational_text(row.enclosure.lo),
                "hi": interval._rational_text(row.enclosure.hi),
                "verdict": "",
            }
        for relation in c.relations:
            yield {
                "record": "relation",
                "x": interval._rational_text(c.x),
                "id": relation.label,
                "side": "",
                "target": "",
                "lo": interval._rational_text(relation.evidence.lhs.lo),
                "hi": interval._rational_text(relation.evidence.rhs.hi),
                "verdict": relation.verdict,
            }


def _compare_lines(comparisons: list[theorems.ComparisonReport], total: str) -> Iterator[str]:
    for c in comparisons:
        yield f"x = {interval._rational_text(c.x)}"
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
        rows = theorems.tightness_report(grid, work_precision=args.precision)
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

    comparisons = [theorems.compare_bounds(x, work_precision=args.precision) for x in grid]
    total = theorems.combined_total(c.total for c in comparisons)
    _emit(
        args,
        lambda: {
            "command": "report",
            "kind": "compare",
            "total": total,
            "points": [
                {
                    "x": interval._rational_text(c.x),
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
    p_certify.add_argument("selection", choices=(*CERTIFY_GROUPS, "all"))
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
    except (UsageError, ValueError) as exc:  # interval.DomainError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
