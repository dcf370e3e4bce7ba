"""Inequality catalog, grid checking, symbolic certificates, reports."""

from __future__ import annotations

from fractions import Fraction

import pytest

from psicert import (
    Exp,
    Expr,
    Interval,
    Ln,
    Trigamma,
    Var,
    catalog,
    certify_symbolic,
    check_grid,
    compare_bounds,
    default_grid,
    evaluate,
    geometric_grid,
    iv_ln,
    tightness_report,
)
from psicert.cli import _report_json
from psicert.theorems import (
    _SYMBOLIC_BUILDERS,
    _X,
    _X1,
    GridEvidence,
    InequalityPair,
    SymbolicEvidence,
    _M_expr,
    _decide_pair,
    _m_expr,
    _thm3a_corrections,
    combined_total,
    entry,
    symbolic_ids,
)

F = Fraction

CATALOG_IDS = [
    "THM1",
    "THM2",
    "THM3a",
    "THM3b",
    "ELE",
    "GUO-QI",
    "BATIR",
    "YCT",
    "XP1",
    "R1U",
    "R1V",
    "BATIR-THETA",
]


class TestCatalog:
    def test_ids_and_order(self):
        assert [e.id for e in catalog()] == CATALOG_IDS

    def test_domain_starts(self):
        starts = {e.id: e.domain_start for e in catalog()}
        assert starts == {
            "THM1": 3,
            "THM2": 3,
            "THM3a": 1,
            "THM3b": 1,
            "ELE": 0,
            "GUO-QI": 0,
            "BATIR": 0,
            "YCT": 0,
            "XP1": 0,
            "R1U": 1,
            "R1V": 1,
            "BATIR-THETA": 0,
        }

    def test_open_versus_closed_starts(self):
        open_ids = {e.id for e in catalog() if e.open_start}
        assert open_ids == {"ELE", "GUO-QI", "BATIR", "YCT", "XP1", "BATIR-THETA"}

    def test_strictness_flags(self):
        by_id = {e.id: e for e in catalog()}
        assert all(not pair.strict for pair in by_id["THM1"].pairs)
        batir = {pair.label: pair.strict for pair in by_id["BATIR"].pairs}
        assert batir["lower"] is True
        assert batir["upper"] is False
        for eid in ("THM2", "THM3a", "THM3b", "ELE", "GUO-QI", "YCT", "XP1"):
            assert all(pair.strict for pair in by_id[eid].pairs), eid

    def test_pair_counts(self):
        counts = {e.id: len(e.pairs) for e in catalog()}
        assert counts["XP1"] == 3
        assert counts["ELE"] == counts["GUO-QI"] == counts["R1U"] == counts["R1V"] == 1
        for two_sided in ("THM1", "THM2", "THM3a", "THM3b", "BATIR", "YCT"):
            assert counts[two_sided] == 2, two_sided

    def test_monotone_entry(self):
        by_id = {e.id: e for e in catalog()}
        assert by_id["BATIR-THETA"].monotone_expr is not None
        assert all(
            e.monotone_expr is None for e in catalog() if e.id != "BATIR-THETA"
        )

    def test_entry_lookup(self):
        assert entry("YCT").id == "YCT"
        with pytest.raises(ValueError):
            entry("THM9")

    def test_grid_floor(self):
        assert entry("THM1").grid_floor() == 3
        assert entry("THM3a").grid_floor() == 1
        assert entry("ELE").grid_floor() == F(1, 10)


class TestGrids:
    def test_geometric_grid_endpoints_exact(self):
        grid = geometric_grid(F(3), F(100), 7)
        assert grid[0] == 3 and grid[-1] == 100
        assert len(grid) == 7

    def test_strictly_increasing(self):
        grid = geometric_grid(F(1, 10), F(10_000), 40)
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            geometric_grid(F(0), F(10), 5)
        with pytest.raises(ValueError):
            geometric_grid(F(5), F(5), 5)
        with pytest.raises(ValueError):
            geometric_grid(F(1), F(10), 1)

    @pytest.mark.parametrize(
        "start, stop",
        [
            (F(3), F(10**400)),  # stop overflows a float
            (F(1, 10**400), F(1)),  # start underflows to 0.0
            (F(1, 10**300), F(10**300)),  # each end fits, their ratio does not
        ],
    )
    def test_ends_outside_float_range_raise_value_error(self, start, stop):
        with pytest.raises(ValueError, match="outside float range"):
            geometric_grid(start, stop, 3)

    def test_default_grid_starts_at_domain(self):
        assert default_grid(entry("THM1"))[0] == 3
        assert default_grid(entry("THM3a"))[0] == 1
        assert default_grid(entry("GUO-QI"))[0] == F(1, 10)

    def test_default_grid_size_and_stop(self):
        grid = default_grid(entry("YCT"))
        assert len(grid) == 40
        assert grid[-1] == 10_000


class TestGridChecks:
    def test_thm1_small_grid_upper_fails_everywhere(self):
        report = check_grid("THM1", [F(3), F(4), F(5), F(10), F(50), F(100)])
        assert report.total == "violated"
        by_label = {c.label: c.verdict for c in report.checks}
        for x in (3, 4, 5, 10, 50, 100):
            assert by_label[f"lower at x={x}"] == "holds"
            assert by_label[f"upper at x={x}"] == "violated"

    def test_guo_qi_small_grid_holds(self):
        report = check_grid("GUO-QI", [F(1, 2), F(1), F(2), F(10)])
        assert report.total == "holds"
        assert all(c.verdict == "holds" for c in report.checks)

    def test_monotone_entry_includes_decreasing_checks(self):
        report = check_grid("BATIR-THETA", [F(1), F(2), F(4), F(8)])
        assert report.total == "holds"
        decreasing = [c for c in report.checks if c.label.startswith("decreasing")]
        assert [c.label for c in decreasing] == [
            "decreasing from x=1 to x=2",
            "decreasing from x=2 to x=4",
            "decreasing from x=4 to x=8",
        ]

    def test_sign_change_splits_verdict(self):
        assert check_grid("R1U", [F(1), F(2), F(5), F(7)]).total == "holds"
        report = check_grid("R1U", [F(8), F(10), F(100)])
        assert report.total == "violated"
        assert all(c.verdict == "violated" for c in report.checks)

    def test_companion_bound_holds_on_both_sides_of_eight(self):
        assert check_grid("R1V", [F(1), F(5), F(8), F(100)]).total == "holds"

    def test_out_of_domain_point_rejected(self):
        with pytest.raises(ValueError, match="outside domain"):
            check_grid("THM1", [F(2), F(4)])
        with pytest.raises(ValueError, match="outside domain"):
            check_grid("ELE", [F(0), F(1)])

    def test_grid_is_sorted_and_deduplicated(self):
        report = check_grid("GUO-QI", [F(2), F(1), F(2)])
        labels = [c.label for c in report.checks]
        assert labels == ["upper at x=1", "upper at x=2"]

    def test_evidence_fields(self):
        report = check_grid("THM2", [F(3)])
        for check in report.checks:
            evidence = check.evidence
            assert isinstance(evidence, GridEvidence)
            assert isinstance(evidence.lhs, Interval) and isinstance(evidence.rhs, Interval)
            assert evidence.work_precision == 64

    def test_precision_stability(self):
        for wp in (64, 256):
            assert check_grid("THM2", [F(3), F(10)], work_precision=wp).total == "holds"
            report = check_grid("THM1", [F(3)], work_precision=wp)
            assert {c.verdict for c in report.checks} == {"holds", "violated"}

    def test_report_serializes(self):
        report = check_grid("ELE", [F(1), F(2)])
        data = _report_json(report)
        assert data["id"] == "ELE"
        assert data["method"] == "grid"
        assert data["total"] == "holds"
        assert len(data["checks"]) == 2
        evidence = data["checks"][0]["evidence"]
        assert list(evidence) == [
            "lhs_lo",
            "lhs_hi",
            "rhs_lo",
            "rhs_hi",
            "work_precision",
        ]
        lhs = report.checks[0].evidence.lhs
        assert (F(evidence["lhs_lo"]), F(evidence["lhs_hi"])) == (lhs.lo, lhs.hi)
        assert evidence["work_precision"] == "64"
        symbolic = certify_symbolic("THM2")
        assert all(isinstance(c.evidence, SymbolicEvidence) for c in symbolic.checks)
        step = _report_json(symbolic)["checks"][0]
        assert list(step["evidence"]) == ["detail", "ray_start"]
        assert step["evidence"]["ray_start"] == "3"


class TestUndecidedPath:
    def test_tautology_cannot_be_decided_by_intervals(self):
        x = Var()
        pair = InequalityPair("tautology", Exp(Ln(x)), x, strict=True)
        verdict, evidence = _decide_pair(pair, F(2), 16)
        assert verdict == "undecided"
        assert evidence.work_precision == 16 * 2**4


class TestCombinedTotal:
    @pytest.mark.parametrize(
        "verdicts, total",
        [
            ([], "holds"),
            (["holds", "holds"], "holds"),
            (["holds", "undecided"], "undecided"),
            (["undecided", "violated", "holds"], "violated"),
        ],
    )
    def test_violated_outranks_undecided_outranks_holds(self, verdicts, total):
        assert combined_total(iter(verdicts)) == total


class TestSymbolicCertificates:
    def test_available_ids(self):
        assert set(symbolic_ids()) == {"THM1", "THM2", "THM3a-lower", "R1U"}

    @pytest.mark.parametrize("eid", ["THM1", "THM2", "THM3a-lower"])
    def test_certified_entries(self, eid):
        report = certify_symbolic(eid)
        assert report.method == "symbolic"
        assert report.total == "holds"
        assert all(c.verdict == "holds" for c in report.checks)

    def test_r1u_is_honestly_undecided(self):
        report = certify_symbolic("R1U")
        assert report.total == "undecided"
        stuck = [c for c in report.checks if c.verdict != "holds"]
        assert len(stuck) == 1
        assert stuck[0].label.endswith("derivative numerator positive")
        assert stuck[0].verdict == "undecided"

    def test_unknown_id_raises_with_choices(self):
        with pytest.raises(ValueError, match="THM3a-lower"):
            certify_symbolic("BATIR")


def _log_gaps() -> dict[tuple[str, str], Expr]:
    """The log-gap of the catalog pair that each symbolic branch proves, as an
    ``Expr`` over the catalog's pieces: negative exactly where the pair holds,
    so a sound auxiliary lies at or above it on the branch's ray."""
    thm1 = {pair.label: Ln(pair.lhs) - Ln(pair.rhs) for pair in entry("THM1").pairs}
    ln_one_plus = Ln(1 + Trigamma(_X))  # exp(m) - 1 < psi'(x) < exp(M) - 1
    # theta(x, 1) + c < psi'(x+1), with theta's exp(1/(x+1)) alone on one side
    thm3a = Exp(-1 / _X) - 2 * _thm3a_corrections()[0] + 2 * Trigamma(_X1)
    return {
        ("THM1", "lower auxiliary"): thm1["lower"],
        ("THM1", "upper auxiliary"): thm1["upper"],
        ("THM2", "lower auxiliary"): _m_expr() - ln_one_plus,
        ("THM2", "negated upper auxiliary"): ln_one_plus - _M_expr(),
        ("THM3a-lower", "lower auxiliary"): 1 / _X1 - Ln(thm3a),
        ("R1U", "negativity"): entry("R1U").pairs[0].lhs,
    }


LOG_GAPS = _log_gaps()

UNSOUND_BRANCHES = {
    ("THM1", "upper auxiliary"): pytest.mark.xfail(
        strict=True,
        reason=(
            "ROADMAP item 1: the upper auxiliary proves psi'(x+1) <= (x + beta) "
            "exp(-2 psi(x+1)), without the 1/(120 x^4); its holds verdict is "
            "pinned by perfbench/expected_symbolic.json"
        ),
    ),
}


class TestSymbolicSoundness:
    """A symbolic branch certifies its auxiliary negative on its ray, so the
    auxiliary must lie at or above the log-gap of the pair it names."""

    def test_every_branch_has_a_log_gap(self):
        built = [(eid, label) for eid, build in _SYMBOLIC_BUILDERS.items() for label, _, _ in build()]
        assert built == list(LOG_GAPS)

    @pytest.mark.parametrize(
        "eid, branch", [pytest.param(*b, marks=UNSOUND_BRANCHES.get(b, ())) for b in LOG_GAPS]
    )
    def test_auxiliary_is_not_below_the_log_gap(self, eid, branch):
        aux, threshold = next(
            (aux, start) for label, aux, start in _SYMBOLIC_BUILDERS[eid]() if label == branch
        )
        gap = LOG_GAPS[eid, branch]
        for x in (threshold, threshold + 2, F(10), F(100)):
            value = Interval.point(aux.rational_part(x))
            for c, arg in aux.log_terms:
                value = value + iv_ln(arg(x), 128) * c
            assert not value.strictly_less(evaluate(gap, x, 128)), x


def _certified_pairs(sid: str) -> tuple[str, set[str]]:
    """The catalog entry that a symbolic id certifies, and the labels of its
    pairs: all of them, or the one named after the dash (``THM3a-lower``)."""
    if sid in CATALOG_IDS:
        return sid, {pair.label for pair in entry(sid).pairs}
    eid, _, label = sid.rpartition("-")
    return eid, {label}


CROSS_METHOD_CONFLICTS = {
    "THM1": pytest.mark.xfail(
        strict=True,
        reason=(
            "ROADMAP item 1: the upper auxiliary proves psi'(x+1) <= (x + beta) "
            "exp(-2 psi(x+1)), without the 1/(120 x^4), while the grid finds the "
            "catalog's upper pair violated; the holds verdict is pinned by "
            "perfbench/expected_symbolic.json"
        ),
    ),
}


class TestCrossMethod:
    """A symbolic ``holds`` and a grid ``violated`` on the pairs it certifies
    cannot both be right.  ``undecided`` on either side is no conflict."""

    @pytest.mark.parametrize(
        "sid", [pytest.param(s, marks=CROSS_METHOD_CONFLICTS.get(s, ())) for s in symbolic_ids()]
    )
    def test_symbolic_holds_meets_no_grid_violation(self, sid):
        eid, labels = _certified_pairs(sid)
        symbolic = certify_symbolic(sid).total
        grid = check_grid(eid, default_grid(entry(eid)))
        violated = [
            check.label
            for check in grid.checks
            if check.verdict == "violated" and check.label.rpartition(" at x=")[0] in labels
        ]
        assert symbolic != "holds" or not violated, violated


@pytest.fixture(scope="module")
def octaves():
    return tightness_report([F(2**k) for k in range(11)])


class TestTightnessReport:

    def test_window_membership(self, octaves):
        for row in octaves:
            assert row["x5_verdict"] == "in", row["x"]
            assert row["x7_verdict"] == "in", row["x"]
            assert row["x5_in_window"] and row["x7_in_window"]

    def test_scaled_remainders_inside_stated_windows(self, octaves):
        for row in octaves:
            window = row["x5_window"]
            assert window.lo == F(1, 24) - F(5, 48) / row["x"]
            assert window.hi == F(1, 24)
            assert window.encloses(row["x5_d1"])

    def test_x7_window_and_thm3_gaps_match_reference(self, octaves):
        for row in octaves:
            x = row["x"]
            window = row["x7_window"]
            assert window.lo == F(-1, 45)
            assert window.hi == F(-1, 45) + F(7, 90) / x
            assert window.encloses(row["x7_d2"])
            assert row["thm3a_gap"] == F(5, 48) / x**6
            assert row["thm3b_gap"] == F(7, 90) / x**8

    def test_row_keys(self, octaves):
        expected = {
            "x",
            "psi_prime_next",
            "d1",
            "d2",
            "x5_d1",
            "x7_d2",
            "x5_window",
            "x7_window",
            "x5_verdict",
            "x7_verdict",
            "x5_in_window",
            "x7_in_window",
            "thm1_gap",
            "thm2_gap",
            "thm3a_gap",
            "thm3b_gap",
            "cm_upper",
            "cm_upper_diff1",
            "cm_upper_diff2",
            "cm_lower",
            "cm_lower_diff1",
            "cm_lower_diff2",
        }
        assert set(octaves[0]) == expected

    def test_thm2_gap_decays_like_two_to_the_seventh(self, octaves):
        by_x = {row["x"]: row["thm2_gap"] for row in octaves}
        for x in (4, 8, 16, 32, 64, 128, 256):
            ratio_lo = by_x[x].lo / by_x[2 * x].hi
            ratio_hi = by_x[x].hi / by_x[2 * x].lo
            assert F(100) < ratio_lo <= ratio_hi < F(156), x

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            tightness_report([F(1, 2), F(1)])


class TestCompareBounds:
    def test_relations_hold_at_small_points(self):
        for x in (F(2), F(3)):
            report = compare_bounds(x)
            assert report.total == "holds", x
            assert all(rel.verdict == "holds" for rel in report.relations)

    def test_dominance_reverses_at_ten(self):
        report = compare_bounds(F(10))
        verdicts = {rel.label: rel.verdict for rel in report.relations}
        assert (
            verdicts["THM1 lower bound value below BATIR lower bound value"]
            == "violated"
        )
        assert (
            verdicts["THM1 upper bound value below BATIR upper bound value"] == "holds"
        )
        assert report.total == "violated"

    def test_row_inventory(self):
        report = compare_bounds(F(3))
        assert len(report.rows) == 19
        targets = {row.target for row in report.rows}
        assert targets == {"psi'(x+1)", "psi'(x)"}
        sides = {row.side for row in report.rows if row.entry_id == "XP1"}
        assert sides == {"lower", "upper", "cap"}

    def test_rows_sorted_within_target(self):
        report = compare_bounds(F(2))
        for target in ("psi'(x+1)", "psi'(x)"):
            los = [row.enclosure.lo for row in report.rows if row.target == target]
            assert los == sorted(los)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            compare_bounds(F(1, 2))
