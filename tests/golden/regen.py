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

``verdicts.json`` holds each case's verdict signature: its exit code, its
overall verdict, and the label, verdict and rung (``work_precision``) of
every check it prints (see :func:`verdict_signature`).  A regeneration that
would change a signature already recorded is refused, so new bytes can move
digits but not a verdict or a rung.  A case without a signature gets one.
To change a verdict on purpose, edit its entry by hand and say why in
CHANGES.md.
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
VERDICTS = GOLDEN_DIR / "verdicts.json"

# --format value -> golden file suffix
FORMATS = {"json": "json", "text": "txt", "csv": "csv"}

CASES: dict[str, tuple[str, ...]] = {
    "certify_thm1": ("certify", "thm1", "--grid", "3:200:4"),
    "certify_thm2": ("certify", "thm2", "--grid", "3:200:4"),
    "certify_thm3_p192": ("--precision", "192", "certify", "thm3", "--grid", "1:50:3"),
    "certify_thm2_p384": ("--precision", "384", "certify", "thm2", "--grid", "3:4:2"),
    # the smallest node grid, 2**-72
    "certify_thm3_p8": ("--precision", "8", "certify", "thm3", "--grid", "1:2:2"),
    "certify_classical": ("certify", "classical", "--grid", "1:100:3"),
    # small x: long shifts, and exp(1/x) far from 1
    "certify_classical_small": ("certify", "classical", "--grid", "1/1000:1:3"),
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
    "enclose_digamma_p1024": ("--precision", "1024", "enclose", "digamma", "29/7"),
    "enclose_trigamma_p1024": ("--precision", "1024", "enclose", "trigamma", "29/7"),
    "const_gamma": ("const", "gamma", "--tol", "1e-20"),
    "const_bstar": ("const", "bstar"),
    "const_digamma_zero": ("const", "digamma-zero", "--tol", "1e-12"),
    "const_digamma_zero_tol30": ("const", "digamma-zero", "--tol", "1e-30"),
    "const_pi_p128": ("--precision", "128", "const", "pi"),
    "series_product": ("series", "product", "--order", "8"),
    "series_product_o60": ("series", "product", "--order", "60"),
    "series_product_o120": ("series", "product", "--order", "120"),
    # negative, non-integer m: the operands' common denominators are nontrivial
    "series_theta": ("series", "theta", "--order", "40", "--m=-7/5"),
    "series_digamma": ("series", "digamma", "--order", "12"),
    "series_trigamma": ("series", "trigamma", "--order", "12"),
    "series_trigamma_o120": ("series", "trigamma", "--order", "120"),
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


def verdict_signature(stdout: str, code: int) -> dict[str, object]:
    """Exit code, overall verdict and ``[label, verdict, rung]`` of every check
    in one ``--format json`` output, in printed order.

    A check is an object with a ``verdict`` (certify checks and compare
    relations; the rung is its evidence's ``work_precision``, ``None`` when
    it has none) or a tightness row's ``x5_verdict``/``x7_verdict`` (no rung
    is printed).  Outputs without verdicts (enclose, const, series, bern)
    have an empty list.
    """
    checks: list[list[object]] = []

    def walk(node: object) -> None:
        if isinstance(node, list):
            for item in node:
                walk(item)
        elif isinstance(node, dict):
            if "verdict" in node:
                rung = node.get("evidence", {}).get("work_precision")
                checks.append([node["label"], node["verdict"], rung])
            for window in ("x5", "x7"):
                if f"{window}_verdict" in node:
                    checks.append([f"{window} at x={node['x']}", node[f"{window}_verdict"], None])
            for value in node.values():
                walk(value)

    output = json.loads(stdout)
    walk(output)
    return {"exit_code": code, "total": output.get("total"), "checks": checks}


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        print(f"unknown case(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    exit_codes = {}
    if EXIT_CODES.exists():
        exit_codes = json.loads(EXIT_CODES.read_text(encoding="utf-8"))
    verdicts = {}
    if VERDICTS.exists():
        verdicts = json.loads(VERDICTS.read_text(encoding="utf-8"))
    outputs = {}
    for name in names or CASES:  # check every case before writing any
        captured = {fmt: capture(CASES[name], fmt) for fmt in FORMATS}
        codes = {code for _, code in captured.values()}
        if len(codes) != 1:
            print(f"{name}: exit code differs between formats", file=sys.stderr)
            return 1
        exit_codes[name] = codes.pop()
        signature = verdict_signature(captured["json"][0], exit_codes[name])
        if verdicts.setdefault(name, signature) != signature:
            print(f"{name}: a verdict, rung or exit code changed; see verdicts.json", file=sys.stderr)
            return 1
        outputs[name] = captured
    for name, captured in outputs.items():
        for fmt, (stdout, _) in captured.items():
            golden_path(name, fmt).write_bytes(stdout.encode("utf-8"))
    ordered = {name: exit_codes[name] for name in CASES if name in exit_codes}
    EXIT_CODES.write_text(json.dumps(ordered, indent=2) + "\n", encoding="utf-8")
    entries = []
    for name in CASES:
        if name in verdicts:  # one check a line, so a diff shows which moved
            signature = verdicts[name]
            checks = "".join(f"\n    {json.dumps(check)}," for check in signature["checks"])
            entries.append(
                f'  "{name}": {{"exit_code": {signature["exit_code"]}, '
                f'"total": {json.dumps(signature["total"])}, "checks": [{checks.rstrip(",")}]}}'
            )
    VERDICTS.write_text("{\n" + ",\n".join(entries) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
