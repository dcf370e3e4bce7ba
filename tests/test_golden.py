"""Golden-output gate: ``--format json`` stdout and exit codes stay byte-identical.

The goldens under ``tests/golden`` were captured from in-process
``psicert.cli.main`` calls.  Each call runs twice, the first time with the
enclosure kernels' caches emptied, so a warm cache must reproduce the cold
bytes.  After an intended change of output, rewrite them with
``PYTHONPATH=src python tests/golden/regen.py [NAME ...]`` and list the
change in CHANGES.md.
"""

from __future__ import annotations

import json

import pytest

from golden.regen import CASES, EXIT_CODES, GOLDEN_DIR, capture
from psicert.elementary import iv_exp, iv_ln
from psicert.polygamma import digamma_enclosure, trigamma_enclosure

MEMOISED_KERNELS = (iv_exp, iv_ln, digamma_enclosure, trigamma_enclosure)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    expected_stdout = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
    expected_code = json.loads(EXIT_CODES.read_text(encoding="utf-8"))[name]
    hint = f"intended output change? rerun tests/golden/regen.py {name}; list it in CHANGES.md"
    for kernel in MEMOISED_KERNELS:
        kernel.cache_clear()
    for run in ("cold", "warm"):
        stdout, code = capture(CASES[name])
        assert code == expected_code, f"{name} ({run}) exit code changed; {hint}"
        assert stdout == expected_stdout, f"{name} ({run}) output changed; {hint}"


def test_every_golden_file_has_a_case():
    files = {path.stem for path in GOLDEN_DIR.glob("*.json")} - {EXIT_CODES.stem}
    assert files == set(CASES)
    assert set(json.loads(EXIT_CODES.read_text(encoding="utf-8"))) == set(CASES)
