"""Golden-output gate: stdout in every format and exit codes stay byte-identical.

The goldens under ``tests/golden`` were captured from in-process
``psicert.cli.main`` calls, one file per case and ``--format`` (json, text,
csv).  Each call runs twice, the first time with the enclosure kernels'
caches emptied (every cache of psicert's, see ``conftest.clear_psicert_caches``),
so a warm cache must reproduce the cold bytes.  One case
also runs as ``python -m psicert`` in a fresh interpreter, which takes the
path through ``__main__`` and the package's imports.  After an
intended change of output, rewrite them with
``PYTHONPATH=src python tests/golden/regen.py [NAME ...]`` and list the
change in CHANGES.md; ``verdicts.json`` pins each case's exit code, verdicts
and rungs, which a regeneration may not change.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from golden.regen import (
    CASES,
    EXIT_CODES,
    FORMATS,
    GOLDEN_DIR,
    VERDICTS,
    capture,
    golden_path,
    verdict_signature,
)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, cold_caches):
    expected_code = json.loads(EXIT_CODES.read_text(encoding="utf-8"))[name]
    hint = f"intended output change? rerun tests/golden/regen.py {name}; list it in CHANGES.md"
    for fmt in FORMATS:
        # bytes, not text: csv rows end in \r\n, which text mode would translate
        expected_stdout = golden_path(name, fmt).read_bytes().decode("utf-8")
        cold_caches()
        for run in ("cold", "warm"):
            stdout, code = capture(CASES[name], fmt)
            where = f"{name} --format {fmt} ({run})"
            assert code == expected_code, f"{where} exit code changed; {hint}"
            assert stdout == expected_stdout, f"{where} output changed; {hint}"


def test_every_golden_file_has_a_case():
    for suffix in FORMATS.values():
        files = {path.stem for path in GOLDEN_DIR.glob(f"*.{suffix}")} - {EXIT_CODES.stem, VERDICTS.stem}
        assert files == set(CASES), suffix
    assert set(json.loads(EXIT_CODES.read_text(encoding="utf-8"))) == set(CASES)
    assert set(json.loads(VERDICTS.read_text(encoding="utf-8"))) == set(CASES)


def test_fresh_process_output_matches_golden():
    name = "const_pi_p128"
    expected_code = json.loads(EXIT_CODES.read_text(encoding="utf-8"))[name]
    result = subprocess.run(
        [sys.executable, "-m", "psicert", "--format", "json", *CASES[name]],
        capture_output=True,
        check=False,
    )
    assert result.returncode == expected_code, result.stderr.decode()
    assert result.stdout == golden_path(name, "json").read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_verdicts_match_signature(name):
    """The golden json output's exit code, verdicts and rungs are the ones in
    verdicts.json, so regenerating a golden cannot move them unnoticed."""
    expected = json.loads(VERDICTS.read_text(encoding="utf-8"))[name]
    code = json.loads(EXIT_CODES.read_text(encoding="utf-8"))[name]
    stdout = golden_path(name, "json").read_bytes().decode("utf-8")
    assert verdict_signature(stdout, code) == expected


def test_signature_lists_checks_rungs_and_windows():
    output = {
        "total": "holds",
        "reports": [{"checks": [{"label": "a", "verdict": "holds", "evidence": {"work_precision": "128"}}]}],
        "rows": [{"x": "2", "x5_verdict": "in", "x7_verdict": "out"}],
    }
    assert verdict_signature(json.dumps(output), 1) == {
        "exit_code": 1,
        "total": "holds",
        "checks": [["a", "holds", "128"], ["x5 at x=2", "in", None], ["x7 at x=2", "out", None]],
    }
