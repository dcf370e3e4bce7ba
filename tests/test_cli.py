"""End-to-end command-line tests via subprocess."""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from psicert import (
    Interval,
    check_grid,
    compare_bounds,
    digamma_enclosure,
    parse_rational,
    trigamma_enclosure,
)
from psicert.cli import _emit, _int_text, _iv_json, _iv_text, _rational_text, _scientific
from psicert.interval import ROUNDING_GUARD_BITS

from _oracles import _to_mpf, encloses_truth, scaled_bracket
from golden.regen import capture

F = Fraction


def run_cli(*args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "-m", "psicert", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def run_json(*args: str) -> tuple[dict, int]:
    proc = run_cli("--format", "json", *args)
    return json.loads(proc.stdout), proc.returncode


@pytest.fixture
def unlimited_int_str():
    """Lift the int/str digit limit in this test process only.

    The CLI runs in a subprocess with the default limit, so what it prints
    is still produced under that limit; only the checks here parse it.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # Python without the limit
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


class TestSeriesCommand:
    def test_product_coefficients_exact(self):
        data, code = run_json("series", "product", "--order", "6")
        assert code == 0
        assert data["kind"] == "product"
        assert data["log_coeff"] == "0"
        assert [t["coefficient"] for t in data["terms"]] == [
            "1",
            "1/2",
            "0",
            "0",
            "1/90",
            "-1/60",
            "2/567",
            "43/2268",
        ]
        assert [t["power"] for t in data["terms"]] == [1, 0, -1, -2, -3, -4, -5, -6]

    def test_digamma_text_rendering(self):
        proc = run_cli("series", "digamma", "--order", "4")
        assert proc.returncode == 0
        assert (
            "ln(x) + 1/(2x) - 1/(12x^2) + 1/(120x^4) + O(x^-5)" in proc.stdout
        )

    @pytest.mark.parametrize(
        ("kind", "rendered"),
        [
            ("digamma", "ln(x) + O(x^-1)"),
            ("trigamma", "0 + O(x^-1)"),
            ("theta", "0 + O(x^-1)"),
            ("product", "x + 1/2 + O(x^-1)"),
        ],
    )
    def test_order_zero_prints_the_remainder(self, kind, rendered):
        proc = run_cli("series", kind, "--order", "0")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == rendered + "\n"
        data, code = run_json("series", kind, "--order", "0")
        assert code == 0 and data["order"] == 0

    def test_theta_accepts_rational_m(self):
        data, code = run_json("series", "theta", "--order", "5", "--m", "3/2")
        assert code == 0
        coefficients = {t["power"]: t["coefficient"] for t in data["terms"]}
        assert coefficients[-1] == "1"  # leading 1/x term survives any m

    def test_theta_accepts_negative_rational_m_as_separate_token(self):
        separate = run_cli("--format", "json", "series", "theta", "--order", "6", "--m", "-7/5")
        joined = run_cli("--format", "json", "series", "theta", "--order", "6", "--m=-7/5")
        assert separate.returncode == joined.returncode == 0, separate.stderr
        assert separate.stdout == joined.stdout


class TestBernCommand:
    def test_values(self):
        data, code = run_json("bern", "8")
        assert code == 0
        assert data["values"]["4"] == "-1/30"
        assert data["values"]["7"] == "0"
        assert data["values"]["8"] == "-1/30"

    def test_text_table(self):
        proc = run_cli("bern", "2")
        assert proc.returncode == 0
        assert "-1/2" in proc.stdout and "1/6" in proc.stdout


class TestEncloseCommand:
    def test_matches_library(self):
        data, code = run_json("enclose", "digamma", "29/7")
        assert code == 0
        enclosure = digamma_enclosure(F(29, 7), 64)
        assert parse_rational(data["enclosure"]["lo"]) == enclosure.lo
        assert parse_rational(data["enclosure"]["hi"]) == enclosure.hi
        assert list(data) == ["command", "function", "x", "enclosure", "width"]

    def test_precision_sets_the_bits(self):
        data, code = run_json("--precision", "128", "enclose", "digamma", "29/7")
        assert code == 0
        enclosure = digamma_enclosure(F(29, 7), 128)
        assert parse_rational(data["enclosure"]["lo"]) == enclosure.lo
        assert parse_rational(data["enclosure"]["hi"]) == enclosure.hi
        assert parse_rational(data["width"]) <= F(1, 2**128)

    def test_trigamma(self):
        data, code = run_json("enclose", "trigamma", "2")
        assert code == 0
        enclosure = trigamma_enclosure(F(2), 64)
        assert parse_rational(data["width"]) == enclosure.width

    @pytest.mark.parametrize(
        "precision, x, function",
        [
            *itertools.product(
                [8, 64, 128, 256, 512],
                ["1/1000", "7/3", "29/7", "1000000"],
                ["digamma", "trigamma"],
            ),
            # ln of a huge y, and ln at a high bit count: once 23 s and 98 s
            (64, "1e4000", "digamma"),
            (1024, "29/7", "digamma"),
            *itertools.product([2048, 4096], ["29/7", "1/1000"], ["digamma", "trigamma"]),
            # a 13,000-bit denominator in the shifted argument y = x + 10
            (64, "1e-4000", "digamma"),
        ],
    )
    def test_contains_mpmath_value(self, function, x, precision, unlimited_int_str):
        """``--precision p enclose`` contains psi or psi' as mpmath computes it,
        in an enclosure of width at most ``2**-p``."""
        stdout, code = capture(("--precision", str(precision), "enclose", function, x), "json")
        assert code == 0
        data = json.loads(stdout)
        enclosure = Interval(
            parse_rational(data["enclosure"]["lo"]), parse_rational(data["enclosure"]["hi"])
        )
        order = 0 if function == "digamma" else 1
        point = parse_rational(x)  # converted inside, at the bracket's precision
        # The bracket's precision is relative to its value, and psi(1e-4000) is
        # about -1e4000.  So the check runs one step up, exactly:
        # psi(x + 1) = psi(x) + 1/x and psi'(x + 1) = psi'(x) - 1/x**2.
        step = 1 / point if order == 0 else -1 / point**2
        bracket = scaled_bracket(lambda: mpmath.psi(order, _to_mpf(point + 1)), enclosure.width)
        assert encloses_truth(enclosure + step, bracket)
        assert enclosure.width <= F(1, 2**precision)

    def test_ends_lie_on_the_kernel_grid(self, unlimited_int_str):
        """psi rounds its sum onto the one grid 2**-(p + G), however long x's denominator."""
        stdout, code = capture(("--precision", "64", "enclose", "digamma", "1e-4000"), "json")
        assert code == 0
        data = json.loads(stdout)
        for end in ("lo", "hi"):
            assert parse_rational(data["enclosure"][end]).denominator <= 2 ** (64 + ROUNDING_GUARD_BITS)

    def test_rejects_nonpositive_argument(self):
        proc = run_cli("enclose", "digamma", "--", "-3")
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_rejects_malformed_rational(self):
        proc = run_cli("enclose", "digamma", "two")
        assert proc.returncode == 2


class TestConstCommand:
    def test_digamma_zero_respects_tolerance(self):
        data, code = run_json("const", "digamma-zero", "--tol", "1e-4")
        assert code == 0
        lo = parse_rational(data["enclosure"]["lo"])
        hi = parse_rational(data["enclosure"]["hi"])
        assert hi - lo <= F(1, 10_000)
        # the zero is 1.46163214...; the enclosure must straddle it
        assert lo < F(146163215, 10**8)
        assert hi > F(146163214, 10**8)

    def test_gamma_tolerance_escalation(self):
        data, code = run_json("const", "gamma", "--tol", "1e-10")
        assert code == 0
        lo = parse_rational(data["enclosure"]["lo"])
        hi = parse_rational(data["enclosure"]["hi"])
        assert hi - lo <= F(1, 10**10)
        # gamma is 0.5772156649015...; the enclosure must straddle it
        assert lo < F(5772156650, 10**10)
        assert hi > F(5772156649, 10**10)

    def test_bstar_exceeds_one_half(self):
        data, code = run_json("const", "bstar")
        assert code == 0
        assert parse_rational(data["enclosure"]["lo"]) > F(1, 2)

    @pytest.mark.parametrize(
        "args, tolerance, truth",
        [
            (("const", "gamma", "--tol", "1e-25"), F(1, 10**25), lambda: +mpmath.euler),
            (("const", "gamma", "--tol", "1e-45"), F(1, 10**45), lambda: +mpmath.euler),
            (("const", "gamma", "--tol", "1e-100"), F(1, 10**100), lambda: +mpmath.euler),
            (
                ("const", "bstar", "--tol", "1e-30"),
                F(1, 10**30),
                lambda: mpmath.pi**2 / (6 * mpmath.exp(2 * mpmath.euler)),
            ),
            (
                ("const", "bstar", "--tol", "1e-300"),
                F(1, 10**300),
                lambda: mpmath.pi**2 / (6 * mpmath.exp(2 * mpmath.euler)),
            ),
            (
                ("const", "digamma-zero", "--tol", "1e-12"),
                F(1, 10**12),
                lambda: mpmath.findroot(mpmath.digamma, mpmath.mpf("1.4616")),
            ),
            (
                ("const", "digamma-zero", "--tol", "1e-30"),
                F(1, 10**30),
                lambda: mpmath.findroot(mpmath.digamma, mpmath.mpf("1.4616")),
            ),
            (
                ("const", "digamma-zero", "--tol", "1e-40"),
                F(1, 10**40),
                lambda: mpmath.findroot(mpmath.digamma, mpmath.mpf("1.4616")),
            ),
            (("--precision", "16384", "const", "pi"), F(1, 2**16384), lambda: +mpmath.pi),
        ],
        ids=[
            "gamma-1e-25",
            "gamma-1e-45",
            "gamma-1e-100",
            "bstar-1e-30",
            "bstar-1e-300",
            "digamma-zero-1e-12",
            "digamma-zero-1e-30",
            "digamma-zero-1e-40",
            "pi-16384",
        ],
    )
    def test_high_precision_constants(self, args, tolerance, truth, unlimited_int_str):
        data, code = run_json(*args)
        assert code == 0
        enclosure = Interval(
            parse_rational(data["enclosure"]["lo"]), parse_rational(data["enclosure"]["hi"])
        )
        width = parse_rational(data["width"])
        assert width == enclosure.width
        assert width <= tolerance
        assert encloses_truth(enclosure, scaled_bracket(truth, width))

    def test_pi_uses_precision_flag(self):
        data, code = run_json("--precision", "80", "const", "pi")
        assert code == 0
        width = parse_rational(data["width"])
        assert width <= F(1, 2**80)


class TestCertifyCommand:
    def test_grid_pass_exits_zero(self):
        proc = run_cli("certify", "thm2")
        assert proc.returncode == 0
        assert "holds" in proc.stdout

    def test_grid_failure_exits_one(self):
        proc = run_cli("certify", "thm1")
        assert proc.returncode == 1
        assert "VIOLATED" in proc.stdout

    def test_symbolic_pass_exits_zero(self):
        proc = run_cli("certify", "thm1", "--symbolic")
        assert proc.returncode == 0

    def test_symbolic_undecided_exits_one(self):
        proc = run_cli("certify", "remark1", "--symbolic")
        assert proc.returncode == 1

    def test_symbolic_unavailable_group_is_usage_error(self):
        proc = run_cli("certify", "classical", "--symbolic")
        assert proc.returncode == 2

    def test_grid_below_domain_is_usage_error(self):
        proc = run_cli("certify", "thm1", "--grid", "1:100:5")
        assert proc.returncode == 2
        assert "outside domain" in proc.stderr

    def test_malformed_grid_spec(self):
        proc = run_cli("certify", "thm2", "--grid", "3-100-5")
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "args",
        [
            ("certify", "thm1", "--grid", "3:1e400:3"),
            ("report", "tightness", "--grid", "1:1e400:3"),
            ("certify", "classical", "--grid", "1e-400:1:3"),
        ],
    )
    def test_grid_end_outside_float_range_is_usage_error(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert "bad grid spec" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_grid_point_whose_exp_argument_is_out_of_range_is_usage_error(self):
        # the grid parses; ELE's exp(-psi(x)) at x = 1e-300 needs exp(~1e300)
        proc = run_cli("certify", "classical", "--grid", "1e-300:1:3")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"error: exp argument above {sys.maxsize // 2} is out of range"
        ]

    def test_symbolic_and_grid_conflict(self):
        proc = run_cli("certify", "thm2", "--symbolic", "--grid", "3:10:4")
        assert proc.returncode == 2

    def test_selection_help_and_usage_error(self):
        """The selections, in this order, as argparse prints them at 80 columns."""
        usage = (
            "usage: psicert certify [-h] [--symbolic] [--grid GRID]\n"
            "                       {thm1,thm2,thm3,classical,remark1,all}\n"
        )
        env = {**os.environ, "COLUMNS": "80"}
        argv = [sys.executable, "-m", "psicert", "certify"]
        shown = subprocess.run([*argv, "--help"], env=env, capture_output=True, text=True, check=True)
        assert shown.stdout.startswith(usage + "\npositional arguments:\n"
                                       "  {thm1,thm2,thm3,classical,remark1,all}\n")
        refused = subprocess.run([*argv, "nope"], env=env, capture_output=True, text=True)
        assert refused.returncode == 2
        assert refused.stderr == usage + (
            "psicert certify: error: argument selection: invalid choice: 'nope' "
            "(choose from 'thm1', 'thm2', 'thm3', 'classical', 'remark1', 'all')\n"
        )

    def test_json_report_structure(self):
        data, code = run_json("certify", "thm2", "--grid", "3:50:6")
        assert code == 0
        assert data["total"] == "holds"
        (report,) = data["reports"]
        assert report["id"] == "THM2"
        assert len(report["checks"]) == 12  # two sides, six points


class TestReportCommand:
    def test_tightness_ok(self):
        proc = run_cli("report", "tightness", "--grid", "1:16:3")
        assert proc.returncode == 0

    def test_tightness_json_fields(self):
        data, code = run_json("report", "tightness", "--grid", "1:4:2")
        assert code == 0
        rows = data["rows"]
        assert [r["x"] for r in rows] == ["1", "4"]
        assert all(r["x5_verdict"] == "in" for r in rows)

    def test_compare_detects_reversal(self):
        proc = run_cli("report", "compare", "--grid", "10:12:2")
        assert proc.returncode == 1

    def test_compare_small_points_pass(self):
        proc = run_cli("report", "compare", "--grid", "2:3:2")
        assert proc.returncode == 0

    def test_csv_output_parses(self):
        proc = run_cli("--format", "csv", "report", "compare", "--grid", "2:3:2")
        assert proc.returncode == 0
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        assert rows
        assert {"record", "x", "lo", "hi"} <= set(rows[0])
        kinds = {row["record"] for row in rows}
        assert kinds == {"bound", "relation"}


class TestGlobalFlags:
    def test_precision_floor_enforced(self):
        proc = run_cli("--precision", "4", "const", "pi")
        assert proc.returncode == 2

    def test_unknown_subcommand(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2

    def test_csv_series(self):
        proc = run_cli("--format", "csv", "series", "trigamma", "--order", "3")
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        # the constant term is reported even when zero
        assert [r["coefficient"] for r in rows] == ["0", "1", "-1/2", "1/6"]


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_emit_builds_only_the_requested_format(fmt, capsys):
    def not_asked_for():
        raise AssertionError(f"--format {fmt} built another format's output")

    builders = {
        "json": lambda: {"a": "1"},
        "csv": lambda: iter([{"a": "1"}]),
        "text": lambda: iter(["a = 1"]),
    }
    _emit(
        argparse.Namespace(format=fmt),
        *(builders[f] if f == fmt else not_asked_for for f in ("json", "csv", "text")),
    )
    expected = {"json": '{\n  "a": "1"\n}\n', "csv": "a\r\n1\r\n", "text": "a = 1\n"}
    assert capsys.readouterr().out == expected[fmt]


class TestExactPrinting:
    def test_int_text_matches_str(self, unlimited_int_str):
        rng = random.Random(20150311)
        for bits in (10, 64, 1599, 1600, 1601, 4000, 14_300, 50_000, 100_000):
            n = rng.getrandbits(bits) | (1 << (bits - 1))
            assert _int_text(n) == str(n)
            assert _int_text(-n) == str(-n)
            # powers of ten around a split point exercise the zero padding
            assert _int_text(10**bits) == str(10**bits)
        q = F(rng.getrandbits(20_000), rng.getrandbits(30_000) | 1)
        assert _rational_text(q) == str(q)

    def test_scientific_beyond_str_limit(self):
        assert _scientific(F(1, 7**6000)) == "2.581e-5071"
        assert _scientific(F(-(10**5000) * 123456, 100)) == "-1.235e+5003"

    @given(
        st.fractions(min_value=-1000, max_value=1000, max_denominator=10**45),
        st.fractions(min_value=0, max_value=F(1, 10**6), max_denominator=10**50),
        st.integers(min_value=1, max_value=45),
    )
    def test_printed_decimals_enclose_the_interval(self, lo, width, places):
        """Decimal endpoints round outward; the exact lo/hi fields are the oracle."""
        iv = Interval(lo, lo + width)
        printed = _iv_json(iv)
        exact_lo, exact_hi = F(printed["lo"]), F(printed["hi"])
        assert F(printed["lo_decimal"]) <= exact_lo
        assert F(printed["hi_decimal"]) >= exact_hi
        text_lo, text_hi = _iv_text(iv, places)[1:-1].split(", ")
        assert F(text_lo) <= exact_lo and F(text_hi) >= exact_hi
        decimals = {30: (printed["lo_decimal"], printed["hi_decimal"]), places: (text_lo, text_hi)}
        for count, pair in decimals.items():
            for decimal in pair:
                assert len(decimal.split(".")[1]) == count
                assert not decimal.startswith("-") or F(decimal) < 0  # no "-0.000"

    def test_const_pi_decimals_enclose_pi(self):
        data, code = run_json("--precision", "128", "const", "pi")
        assert code == 0
        enclosure = data["enclosure"]
        assert enclosure["lo_decimal"] == "3.141592653589793238462643383279"
        assert enclosure["hi_decimal"] == "3.141592653589793238462643383280"
        text = run_cli("--precision", "128", "const", "pi").stdout
        assert "[3.14159265358979323846, 3.14159265358979323847]" in text


class TestLargeExactEndpoints:
    """Endpoints past str()'s digit limit print through the chunked printer."""

    P, Q = 3 * 10**4000 + 1, 10**4000
    GRID = f"{P}/{Q}:4:2"

    def outputs(self, *command: str) -> dict:
        """The JSON output, after each format has exited 0 within the limit."""
        for fmt in ("text", "csv", "json"):
            proc = run_cli("--format", fmt, *command, "--grid", self.GRID)
            assert proc.returncode == 0, proc.stderr
            assert "Exceeds" not in proc.stderr
        return json.loads(proc.stdout)

    @staticmethod
    def assert_parses_back(printed: list[dict], records) -> None:
        assert len(printed) == len(records)
        for evidence, record in zip(printed, records):
            lhs, rhs = record.evidence.lhs, record.evidence.rhs
            assert F(evidence["lhs_lo"]) == lhs.lo and F(evidence["lhs_hi"]) == lhs.hi
            assert F(evidence["rhs_lo"]) == rhs.lo and F(evidence["rhs_hi"]) == rhs.hi

    def test_certify(self, unlimited_int_str):
        data = self.outputs("certify", "thm2")
        printed = [c["evidence"] for c in data["reports"][0]["checks"]]
        checks = check_grid("THM2", [F(self.P, self.Q), F(4)]).checks
        assert len(checks) == 4
        self.assert_parses_back(printed, checks)

    def test_report_compare(self, unlimited_int_str):
        data = self.outputs("report", "compare")
        printed = [r["evidence"] for r in data["points"][0]["relations"]]
        relations = compare_bounds(F(self.P, self.Q)).relations
        assert len(relations) == 3
        self.assert_parses_back(printed, relations)
