"""Rewrite the golden CLI outputs that ``tests/test_golden.py`` compares against.

Usage, from the repository root::

    PYTHONPATH=src python tests/golden/regen.py [NAME ...]

Each named case in ``CASES`` (every case when no name is given) runs
``psicert.cli.main`` in process once per output format in ``FORMATS``.  Its
stdout is written byte for byte to ``tests/golden/<name>.<suffix>`` (json,
txt, csv) and its exit code to ``exit_codes.json``; the other cases' files
and exit codes are left as they are.  A case whose exit code differs between
formats is refused.  Regenerate only for an intended change of output, and
list that change in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from psicert import cli

GOLDEN_DIR = Path(__file__).resolve().parent
EXIT_CODES = GOLDEN_DIR / "exit_codes.json"

# --format value -> golden file suffix
FORMATS = {"json": "json", "text": "txt", "csv": "csv"}

CASES: dict[str, tuple[str, ...]] = {
    "certify_thm1": ("certify", "thm1", "--grid", "3:200:4"),
    "certify_thm2": ("certify", "thm2", "--grid", "3:200:4"),
    "certify_thm3_p192": ("--precision", "192", "certify", "thm3", "--grid", "1:50:3"),
    "certify_thm2_p384": ("--precision", "384", "certify", "thm2", "--grid", "3:4:2"),
    "certify_classical": ("certify", "classical", "--grid", "1:100:3"),
    "certify_remark1": ("certify", "remark1", "--grid", "1:100:3"),
    "certify_thm1_symbolic": ("certify", "thm1", "--symbolic"),
    "certify_all_symbolic": ("certify", "all", "--symbolic"),
    "report_tightness": ("report", "tightness", "--grid", "1:1024:4"),
    "report_compare": ("report", "compare", "--grid", "2:10:2"),
    # base rung 8 bits: checks decide at every rung from 8 to 128 bits
    "certify_classical_ladder": (
        "--precision", "8", "certify", "classical", "--grid", "1:10000:3",
    ),
    "report_tightness_ladder": (
        "--precision", "8", "report", "tightness", "--grid", "1:1024:3",
    ),
    "enclose_digamma": ("enclose", "digamma", "7/3"),
    "enclose_trigamma": ("--precision", "256", "enclose", "trigamma", "7/3"),
    "const_gamma": ("const", "gamma", "--tol", "1e-20"),
    "const_bstar": ("const", "bstar"),
    "const_digamma_zero": ("const", "digamma-zero", "--tol", "1e-12"),
    "const_digamma_zero_tol30": ("const", "digamma-zero", "--tol", "1e-30"),
    "const_pi_p128": ("--precision", "128", "const", "pi"),
    "series_product": ("series", "product", "--order", "8"),
    "series_product_o60": ("series", "product", "--order", "60"),
    # negative, non-integer m: the operands' common denominators are nontrivial
    "series_theta": ("series", "theta", "--order", "40", "--m=-7/5"),
    "bern": ("bern", "30"),
    "bern_200": ("bern", "200"),
}


def golden_path(name: str, fmt: str) -> Path:
    return GOLDEN_DIR / f"{name}.{FORMATS[fmt]}"


def capture(args: tuple[str, ...], fmt: str) -> tuple[str, int]:
    """Stdout and exit code of one in-process ``psicert --format FMT`` call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--format", fmt, *args])
    return out.getvalue(), code


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        print(f"unknown case(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    exit_codes = {}
    if EXIT_CODES.exists():
        exit_codes = json.loads(EXIT_CODES.read_text(encoding="utf-8"))
    for name in names or CASES:
        captured = {fmt: capture(CASES[name], fmt) for fmt in FORMATS}
        codes = {code for _, code in captured.values()}
        if len(codes) != 1:
            print(f"{name}: exit code differs between formats", file=sys.stderr)
            return 1
        exit_codes[name] = codes.pop()
        for fmt, (stdout, _) in captured.items():
            golden_path(name, fmt).write_bytes(stdout.encode("utf-8"))
    ordered = {name: exit_codes[name] for name in CASES if name in exit_codes}
    EXIT_CODES.write_text(json.dumps(ordered, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
