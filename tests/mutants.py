"""Mutation check: every seeded mutant of psicert must fail the tests named for it.

Usage, from the repository root::

    python tests/mutants.py [NAME ...]

Each entry of ``MUTANTS`` names a file, an exact text in it, the text that
replaces it, and the test ids that must fail.  The tool copies ``src/``,
``tests/`` and ``pyproject.toml`` to a temporary directory and runs every named
test there once unmutated; they must pass.  Then, one entry at a time (every
entry when no name is given), it applies the entry, runs its tests with
``pytest -x`` and restores the file.  A mutant is killed when its tests fail,
or when they run past ``TIMEOUT_S`` (a mutant that turns a bounded loop into an
endless one); it survives when they pass.

``KNOWN_SURVIVORS`` are run the same way and reported with the reason they
survive.  The list is not a skip: closing a survivor means a test tight enough
to kill it, after which the entry moves to ``MUTANTS``.

Exit status: 0 when every entry of ``MUTANTS`` is killed, 1 when one survives
or a known survivor is killed, 2 when an entry's text is not found exactly
once or the unmutated tests fail.  The tool uses only the standard library and
pytest.  It is not part of the test suite (its name does not match
``test_*.py``); it takes a few minutes.  A change that adds a counted-ulp
argument adds its mutants here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 60


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]
    reason: str = ""  # why a known survivor survives


POLYGAMMA = "src/psicert/polygamma.py"
SERIES = "src/psicert/series.py"
ELEMENTARY = "src/psicert/elementary.py"
EXPRESSIONS = "src/psicert/expressions.py"
INTERVAL = "src/psicert/interval.py"
THEOREMS = "src/psicert/theorems.py"
POLYCERT = "src/psicert/polycert.py"

MUTANTS: tuple[Mutant, ...] = (
    # the psi/psi' terms and their truncation
    Mutant(
        "truncation-shrink-check-dropped",
        POLYGAMMA,
        "        if previous is not None and (\n",
        "        if False and (\n",
        ("tests/test_polygamma.py::TestTruncation::test_diverging_expansion_raises",),
    ),
    Mutant(
        "digamma-coefficient-sign-flipped",
        SERIES,
        "return _BERNOULLI[k] / -k",
        "return _BERNOULLI[k] / k",
        (
            "tests/test_series.py::TestNamedExpansions::test_digamma_coefficients",
            "tests/test_polygamma.py::TestDigamma::test_against_oracle",
        ),
    ),
    Mutant(
        "trigamma-derivative-sign-flipped",
        SERIES,
        "else (k + 1, _BERNOULLI[k])",
        "else (k + 1, -_BERNOULLI[k])",
        (
            "tests/test_series.py::TestNamedExpansions::test_trigamma_coefficients",
            "tests/test_polygamma.py::TestTrigamma::test_against_oracle",
        ),
    ),
    Mutant(
        "product-half-dropped",
        SERIES,
        "return series_scale(series_derivative(growth), Fraction(1, 2))",
        "return series_derivative(growth)",
        (
            "tests/test_series.py::TestNamedExpansions::test_product_expansion",
            "tests/test_series.py::TestNamedExpansions::test_product_is_the_cauchy_product_of_its_factors",
        ),
    ),
    Mutant(
        "product-truncated-at-order-plus-one",
        SERIES,
        "series_exp(series_scale(digamma_expansion(order + 1), 2))",
        "series_exp(series_scale(digamma_expansion(order + 2), 2))",
        (
            "tests/test_series.py::TestNamedExpansions::test_product_expansion",
            "tests/test_golden.py::test_cli_output_matches_golden[series_product]",
        ),
    ),
    Mutant(
        "reciprocal-sum-n-ulps-dropped",
        POLYGAMMA,
        "    return total, total + n, w\n",
        "    return total, total, w\n",
        ("tests/test_polygamma.py::test_reciprocal_sum_encloses_exact_sum",),
    ),
    # the error budgets, in steps of the one grid 2**-(p + G): a term dropped
    # from a working precision, or an end rounded inward
    Mutant(
        "psi-window-quarter-dropped",
        POLYGAMMA,
        "    w = bits + 2\n",
        "    w = bits\n",
        (
            "tests/test_polygamma.py::TestAsymptoticWindow::test_against_mpmath_without_recurrence",
            "tests/test_polygamma.py::TestTruncation::test_bernoulli_table_grows_only_to_the_last_term",
        ),
    ),
    Mutant(
        "psi-sum-grid-term-dropped",
        POLYGAMMA,
        "_reciprocal_sum(x, n, power, s)",
        "_reciprocal_sum(x, n, power, bits)",
        ("tests/test_cli.py::TestEncloseCommand::test_contains_mpmath_value[2048-29/7-digamma]",),
    ),
    Mutant(
        "exp-snap-slope-term-dropped",
        ELEMENTARY,
        "_image(_exp_point, iv, g + 2 * c + 3, g + 2, g)",
        "_image(_exp_point, iv, g + 3, g + 2, g)",
        ("tests/test_elementary.py::test_a_point_is_at_most_three_steps_wide",),
    ),
    Mutant(
        "exp-point-log-term-dropped",
        ELEMENTARY,
        "w += w.bit_length() + 4",
        "w += 4",
        ("tests/test_elementary.py::TestExp::test_point_contains_truth",),
    ),
    Mutant(
        "image-upper-end-rounded-inward",
        ELEMENTARY,
        "_outward(hi, hi, 1 << v, g)[1]",
        "_outward(hi, hi, 1 << v, g)[0]",
        ("tests/test_elementary.py::TestExp::test_high_precision_contains_truth",),
    ),
    Mutant(
        "ln-snap-slope-term-dropped",
        ELEMENTARY,
        "_image(_ln_point, iv, g + m + 3, g + 2, g)",
        "_image(_ln_point, iv, g + 3, g + 2, g)",
        ("tests/test_elementary.py::test_a_point_is_at_most_three_steps_wide",),
    ),
    Mutant(
        "ln-point-ln2-term-dropped",
        ELEMENTARY,
        "_ln2(work + 1 + max(k, -k).bit_length())",
        "_ln2(work + 1)",
        ("tests/test_elementary.py::TestLn::test_high_precision_series_enclosure_contains_truth",),
    ),
    Mutant(
        "ln2-upper-end-rounded-inward",
        ELEMENTARY,
        "    return Interval._of(*_outward(lo, hi, 1 << w, g), 1 << g)\n",
        "    return Interval._of(_outward(lo, hi, 1 << w, g)[0], hi >> (w - g), 1 << g)\n",
        ("tests/test_elementary.py::TestLn::test_ln2_high_precision_contains_truth",),
    ),
    Mutant(
        "pi-grid-term-dropped",
        ELEMENTARY,
        "_arctan_inverse(5, g + 6)\n    lo239, hi239, _ = _arctan_inverse(239, g + 6)",
        "_arctan_inverse(5, work_precision + 6)\n    lo239, hi239, _ = _arctan_inverse(239, work_precision + 6)",
        ("tests/test_elementary.py::test_a_point_is_at_most_three_steps_wide",),
    ),
    Mutant(
        "enveloped-last-term-dropped",
        POLYGAMMA,
        "ends = (partial, partial + last)",
        "ends = (partial, partial)",
        ("tests/test_polygamma.py::TestAsymptoticWindow",),
    ),
    # exp, ln and pi
    Mutant(
        "atanh-small-3n-ulps-dropped",
        ELEMENTARY,
        "return total, total + 3 * n + 2, w",
        "return total, total + 2, w",
        ("tests/test_elementary.py::TestLn::test_atanh_small_contains_truth_at_every_low_work",),
    ),
    Mutant(
        "atanh-small-one-term-early",
        ELEMENTARY,
        "    while power:\n        total += power // (2 * n + 1)\n",
        "    while power * p2 // q2:\n        total += power // (2 * n + 1)\n",
        ("tests/test_elementary.py::TestLn::test_atanh_small_contains_truth_at_every_low_work",),
    ),
    Mutant(
        "exp-point-first-term-ulp-high",
        ELEMENTARY,
        "power = 1 << w  # P_k",
        "power = (1 << w) + 1  # P_k",
        ("tests/test_elementary.py::TestExp::test_point_contains_truth",),
    ),
    Mutant(
        "exp-point-upper-square-floored",
        ELEMENTARY,
        "hi = -(-hi * hi >> w)",
        "hi = hi * hi >> w",
        ("tests/test_elementary.py::TestExp::test_point_contains_truth",),
    ),
    Mutant(
        "arctan-inverse-upper-tail-ulp-dropped",
        ELEMENTARY,
        "return total - (n + 1) // 2, total + n // 2 + 1, w",
        "return total - (n + 1) // 2, total + n // 2, w",
        ("tests/test_elementary.py::TestPi::test_arctan_inverse_contains_truth",),
    ),
    Mutant(
        "arctan-inverse-lower-tail-ulp-dropped",
        ELEMENTARY,
        "return total - (n + 1) // 2, total + n // 2 + 1, w",
        "return total - n // 2, total + n // 2 + 1, w",
        ("tests/test_elementary.py::TestPi::test_arctan_inverse_contains_truth",),
    ),
    # expression nodes and outward rounding
    Mutant(
        "rounded-point-rule-dropped",
        EXPRESSIONS,
        "    if lo == hi:\n        g = math.gcd(lo, d)\n",
        "    if False:\n        g = math.gcd(lo, d)\n",
        ("tests/test_expressions.py::TestIntegerNodes",),
    ),
    Mutant(
        "outward-upper-end-floored",
        INTERVAL,
        "return (lo << s) // d, -((-hi << s) // d)",
        "return (lo << s) // d, (hi << s) // d",
        ("tests/test_expressions.py::TestIntegerNodes",),
    ),
    Mutant(
        "round-outward-half-step-taken-as-on-grid",
        INTERVAL,
        "if d & (d - 1) == 0 and d.bit_length() <= shift + 1:",
        "if d & (d - 1) == 0 and d.bit_length() <= shift + 2:",
        ("tests/test_interval.py::TestOutwardRounding::test_endpoints_on_the_grid_are_returned_as_they_are",),
    ),
    # the end formulas that Interval and the expression nodes share
    Mutant(
        "reciprocal-negative-divisor-sign-lost",
        INTERVAL,
        "lo, hi, d, e = d * lo, d * hi, lo * hi, -e",
        "lo, hi, d, e = d * lo, d * hi, abs(lo) * hi, -e",
        (
            "tests/test_interval.py::TestArithmeticAgainstFractions::test_binary_operations",
            "tests/test_expressions.py::TestIntegerNodes",
        ),
    ),
    Mutant(
        "pow-even-straddle-lower-end-not-zero",
        INTERVAL,
        "a, b = (b, a) if hi <= 0 else (0, max(a, b))",
        "a, b = (b, a) if hi <= 0 else (min(a, b), max(a, b))",
        ("tests/test_interval.py::TestFieldOps::test_integer_powers",),
    ),
    Mutant(
        "pow-reciprocal-zero-check-dropped",
        INTERVAL,
        "        if lo <= 0 <= hi:\n            raise DomainError(",
        "        if False:\n            raise DomainError(",
        ("tests/test_interval.py::TestFieldOps::test_negative_power_through_zero_rejected",),
    ),
    Mutant(
        "mul-ends-first-product-as-lower",
        INTERVAL,
        "return min(products), max(products), ad * bd",
        "return products[0], max(products), ad * bd",
        ("tests/test_interval.py::TestFieldOps::test_multiplication_sign_cases",),
    ),
    Mutant(
        "strictly-less-not-strict",
        INTERVAL,
        "return hi * e < lo * d",
        "return hi * e <= lo * d",
        ("tests/test_interval.py::TestPredicates::test_strict_order",),
    ),
    # the exact algebra of the ray certificates
    Mutant(
        "divmod-remainder-one-slot-short",
        POLYCERT,
        "Polynomial(rem[:d])",
        "Polynomial(rem[:d - 1])",
        ("tests/test_polycert.py::TestPolynomial::test_divmod_is_euclidean_division",),
    ),
    Mutant(
        "taylor-shift-inner-range-one-short",
        POLYCERT,
        "for k in range(len(c) - 2, i - 1, -1):",
        "for k in range(len(c) - 2, i, -1):",
        ("tests/test_polycert.py::TestTaylorShift::test_shift_is_evaluation",),
    ),
    # negating the whole degree sum leaves its test against zero unchanged,
    # so the sign flips inside each term
    Mutant(
        "limit-degree-difference-sign-flipped",
        POLYCERT,
        "degree += k * (arg.num.degree - arg.den.degree)",
        "degree += k * (arg.num.degree + arg.den.degree)",
        (
            "tests/test_polycert.py::TestLogExpr::test_limit_class_matches_the_folded_reference",
            "tests/test_polycert.py::TestLogExpr::test_fractional_log_coefficients_classify_conservatively",
        ),
    ),
    # the symbolic builders.  THM1's lower auxiliary lies about 1/(120 x^4)
    # above its pair's log-gap, so psi''s order-7 truncation, an upper bound
    # where a lower one is needed, still leaves a sound certificate that
    # closes; the source's reference derivative and the golden transcript
    # kill it, not the soundness net.
    Mutant(
        "thm1-lower-truncation-parity-swapped",
        THEOREMS,
        "(Fraction(-1), polycert.rational_from_expansion(trigamma_expansion(9))),",
        "(Fraction(-1), polycert.rational_from_expansion(trigamma_expansion(7))),",
        (
            "tests/test_polycert.py::TestDerivativeCrossChecks::test_thm1_lower_auxiliary_derivative",
            "tests/test_golden.py::test_cli_output_matches_golden[certify_thm1_symbolic]",
        ),
    ),
    # an auxiliary that does not bound its pair's log-gap
    Mutant(
        "thm2-lower-truncation-parity-swapped",
        THEOREMS,
        "shifted9 = one_plus_shift + polycert.rational_from_expansion(trigamma_expansion(9))",
        "shifted9 = one_plus_shift + polycert.rational_from_expansion(trigamma_expansion(11))",
        ("tests/test_theorems.py::TestSymbolicSoundness::test_auxiliary_is_not_below_the_log_gap[THM2-lower auxiliary]",),
    ),
    # the root of psi
    Mutant(
        "zero-bisection-quarter-probe-first",
        POLYGAMMA,
        "probes = [(lo + hi) / 2, (3 * lo + hi) / 4, (lo + 3 * hi) / 4]",
        "probes = [(3 * lo + hi) / 4, (lo + hi) / 2, (lo + 3 * hi) / 4]",
        ("tests/test_polygamma.py::TestDigammaZeroNewton::test_bisection_fallback_matches_bisection",),
    ),
    # the refinement climb that every precision ladder runs
    Mutant(
        "climb-sixth-rung",
        ELEMENTARY,
        "and bits < ceiling:\n",
        "and bits <= ceiling:\n",
        (
            "tests/test_elementary.py::TestClimb::test_a_grid_check_sees_at_most_five_rungs",
            "tests/test_theorems.py::TestUndecidedPath::test_tautology_cannot_be_decided_by_intervals",
        ),
    ),
    Mutant(
        "climb-settled-test-dropped",
        ELEMENTARY,
        "    while not settled(value) and bits < ceiling:\n",
        "    while bits < ceiling:\n",
        (
            "tests/test_theorems.py::TestGridChecks::test_evidence_fields",
            "tests/test_golden.py::test_cli_output_matches_golden[certify_classical_ladder]",
        ),
    ),
    Mutant(
        "climb-triples-the-bits",
        ELEMENTARY,
        "        bits *= 2\n",
        "        bits *= 3\n",
        (
            "tests/test_elementary.py::TestClimb::test_doubles_the_bits_until_the_value_settles",
            "tests/test_theorems.py::TestUndecidedPath::test_tautology_cannot_be_decided_by_intervals",
        ),
    ),
    Mutant(
        "eq-lower-ends-only",
        INTERVAL,
        "return alo * bd == blo * ad and ahi * bd == bhi * ad",
        "return alo * bd == blo * ad",
        (
            "tests/test_frozen.py::test_other_fields_are_unequal",
            "tests/test_interval.py::TestRepresentation::test_unequal_values_compare_unequal",
        ),
    ),
)

KNOWN_SURVIVORS: tuple[Mutant, ...] = (
    Mutant(
        "truncation-stop-strict",
        POLYGAMMA,
        "if abs(c.numerator) * b_k << w <= c.denominator * a_k:",
        "if abs(c.numerator) * b_k << w < c.denominator * a_k:",
        (
            "tests/test_polygamma.py::TestTruncation",
            "tests/test_polygamma.py::TestIntegerTruncation",
        ),
        "equivalent: no Bernoulli term c / y**k equals 2**-w.  B_2m's denominator "
        "holds 3 once (von Staudt-Clausen), so psi's c = -B_2m/(2m) has 3-adic "
        "valuation -1 - v3(2m) and psi''s c = B_2m has -1, neither a multiple of "
        "k = 2m or 2m + 1, as the valuation of 2**-w y**k would be",
    ),
    Mutant(
        "bstar-one-bit-short",
        POLYGAMMA,
        "    v = bits + 2\n    two_gamma",
        "    v = bits + 1\n    two_gamma",
        ("tests/test_polygamma.py::TestConstants::test_width_at_most_two_to_the_minus_bits",),
        "the measured widths are 0.03-0.09 of 2**-bits at 8 to 256 bits, so the "
        "bit that the counted bound needs is never used",
    ),
)


def run_tests(copy: Path, tests: list[str], timeout: float | None) -> tuple[str, str]:
    """``("passed" | "failed" | "timeout" | "error", output)`` of ``pytest -x`` on ``tests``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(copy / "src"))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(
            command, cwd=copy, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return "timeout", ""
    status = {0: "passed", 1: "failed"}.get(proc.returncode, "error")
    return status, proc.stdout + proc.stderr


def main(names: list[str]) -> int:
    entries = {m.name: m for m in (*MUTANTS, *KNOWN_SURVIVORS)}
    unknown = sorted(set(names) - set(entries))
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [entries[name] for name in names] if names else list(entries.values())
    known = {m.name for m in KNOWN_SURVIVORS}
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    with tempfile.TemporaryDirectory(prefix="psicert-mutants-") as tmp:
        copy = Path(tmp)
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, copy / tree, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        for m in chosen:
            count = (copy / m.path).read_text(encoding="utf-8").count(m.old)
            if count != 1:
                print(f"{m.name}: its text occurs {count} times in {m.path}", file=sys.stderr)
                return 2
        status, output = run_tests(copy, sorted({t for m in chosen for t in m.tests}), None)
        if status != "passed":
            print(f"the unmutated tests did not pass:\n{output}", file=sys.stderr)
            return 2
        failures = 0
        for m in chosen:
            path = copy / m.path
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(m.old, m.new), encoding="utf-8")
            start = time.perf_counter()
            try:
                status, output = run_tests(copy, list(m.tests), TIMEOUT_S)
            finally:
                path.write_text(original, encoding="utf-8")
            took = f"{time.perf_counter() - start:.1f} s"
            if status == "error":
                print(f"{m.name}: pytest could not run its tests:\n{output}", file=sys.stderr)
                return 2
            survived = status == "passed"
            if m.name in known:
                verdict = f"survived (known): {m.reason}" if survived else "KILLED, move it to MUTANTS"
                failures += not survived
            else:
                verdict = "SURVIVED" if survived else f"killed ({'timeout' if status == 'timeout' else 'failed'})"
                failures += survived
            print(f"{m.name}: {verdict} [{took}]", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
