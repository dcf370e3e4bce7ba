"""Value semantics of the immutable types, and what the CLI loads and runs.

Every value type derives from :class:`psicert.interval.Frozen`: its fields
cannot be assigned or deleted, equal fields under the same type give equal
objects with equal hashes, another type with the same fields is unequal,
and ``repr`` names the class.  The CLI starts without ``dataclasses``,
``inspect`` or ``typing``, and each command runs only the psicert modules
it calls; ``perfbench/tracer.py`` still wraps the modules that run later.
"""

from __future__ import annotations

import marshal
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import psicert
from psicert import expressions, interval, polycert, series, theorems
from psicert.expressions import (
    Add,
    Const,
    Digamma,
    Div,
    Exp,
    Expr,
    Ln,
    Mul,
    NamedConstant,
    Neg,
    PowInt,
    Sinh,
    Trigamma,
    Var,
    rational_function,
)
from psicert.interval import Frozen, Interval
from psicert.polycert import (
    CertificateReport,
    CertificateStep,
    LogRationalExpr,
    Polynomial,
    RationalFunction,
)
from psicert.series import AsymptoticExpansion
from psicert.theorems import (
    BoundRow,
    CertReport,
    CheckRecord,
    ComparisonReport,
    GridEvidence,
    InequalityEntry,
    InequalityPair,
    SymbolicEvidence,
)

F = Fraction
ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def _iv() -> Interval:
    return Interval(F(1, 3), F(2, 3))


def _rf() -> RationalFunction:
    return RationalFunction(Polynomial((F(1),)), Polynomial((F(0), F(1))))


def _pair() -> InequalityPair:
    return InequalityPair("lower", Var(), Const(F(1)))


def _record() -> CheckRecord:
    return CheckRecord("lower at x=3", "holds", GridEvidence(_iv(), _iv(), 64))


def _row() -> BoundRow:
    return BoundRow("THM2", "lower", "psi1", _iv())


# one fresh instance per call, so two calls give equal but distinct objects
SAMPLES = {
    Interval: _iv,
    Const: lambda: Const(F(1, 2)),
    Var: Var,
    Add: lambda: Add(Var(), Const(F(1))),
    Mul: lambda: Mul(Var(), Const(F(1))),
    Div: lambda: Div(Var(), Const(F(2))),
    Neg: lambda: Neg(Var()),
    PowInt: lambda: PowInt(Var(), 3),
    Exp: lambda: Exp(Var()),
    Ln: lambda: Ln(Var()),
    Sinh: lambda: Sinh(Var()),
    Digamma: lambda: Digamma(Var()),
    Trigamma: lambda: Trigamma(Var()),
    NamedConstant: lambda: NamedConstant("pi"),
    Polynomial: lambda: Polynomial((F(1), F(2))),
    RationalFunction: _rf,
    LogRationalExpr: lambda: LogRationalExpr(((F(1), _rf()),), _rf()),
    CertificateStep: lambda: CertificateStep("limit", "ok", "classified zero"),
    CertificateReport: lambda: CertificateReport(
        True, F(3), (CertificateStep("limit", "ok", "classified zero"),)
    ),
    AsymptoticExpansion: lambda: AsymptoticExpansion(F(1), ((-1, F(2)), (1, F(1, 2))), 2),
    InequalityPair: _pair,
    InequalityEntry: lambda: InequalityEntry("THM2", "a claim", F(3), False, (_pair(),)),
    GridEvidence: lambda: GridEvidence(_iv(), _iv(), 96),
    SymbolicEvidence: lambda: SymbolicEvidence("after x -> x+3: coefficients +,+", F(3)),
    CheckRecord: _record,
    CertReport: lambda: CertReport("THM2", "grid", "holds", (_record(),)),
    BoundRow: _row,
    ComparisonReport: lambda: ComparisonReport(F(2), {"psi1": _iv()}, (_row(),), (_record(),)),
}
CLASSES = list(SAMPLES)


def _hashable(value: Frozen) -> bool:
    # a field that holds a dict makes the value unhashable, as a tuple holding one is
    return not any(isinstance(field, dict) for field in value._values())


def test_every_value_type_is_sampled():
    defined = set()
    for module in (interval, expressions, polycert, series, theorems):
        defined |= {
            obj
            for obj in vars(module).values()
            if isinstance(obj, type)
            and issubclass(obj, Frozen)
            and obj.__module__ == module.__name__
        }
    assert defined - {Frozen, Expr} == set(CLASSES)
    assert len(CLASSES) == 28


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_assignment_and_deletion_raise(cls):
    value = SAMPLES[cls]()
    before = value._values()
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value._values() == before
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equal_fields_give_equal_values_and_hashes(cls):
    first, second = SAMPLES[cls](), SAMPLES[cls]()
    assert first is not second
    assert first == second
    assert not first != second
    if _hashable(first):
        assert hash(first) == hash(second)
        assert len({first, second}) == 1
    else:
        with pytest.raises(TypeError):
            hash(first)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_same_fields_under_another_type_are_unequal(cls):
    value = SAMPLES[cls]()
    twin_type = type(f"Twin{cls.__name__}", (Frozen,), {"__slots__": cls._fields})
    twin = twin_type(*value._values())
    assert twin._values() == value._values()
    assert value != twin
    assert twin != value
    assert value != value._values()


def test_node_types_with_equal_operands_are_unequal():
    a, b = Var(), Const(F(1))
    assert Add(a, b) != Mul(a, b)
    assert Exp(a) != Ln(a) != Sinh(a) != Neg(a)
    assert Digamma(a) != Trigamma(a)


def test_other_fields_are_unequal():
    assert Interval(1, 2) != Interval(1, 3)
    assert Add(Var(), Const(F(1))) != Add(Const(F(1)), Var())
    strict = InequalityPair("lower", Var(), Var())
    assert strict != InequalityPair("lower", Var(), Var(), strict=False)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_names_the_class_and_its_fields(cls):
    value = SAMPLES[cls]()
    text = repr(value)
    assert text.startswith(f"{cls.__qualname__}(")
    for name in cls._fields:
        assert f"{name}={getattr(value, name)!r}" in text


def test_repr_format():
    assert repr(Const(F(1, 2))) == "Const(value=Fraction(1, 2))"
    assert repr(Var()) == "Var()"
    assert repr(Interval(0, 1)) == "Interval(lo=Fraction(0, 1), hi=Fraction(1, 1))"
    assert str(Interval(F(1, 3), 2)) == "[1/3, 2]"


def test_rational_nodes_match_positionally():
    x, one = Var(), Const(F(1))
    match Add(x, one):
        case Add(left, right):
            assert (left, right) == (x, one)
        case _:
            pytest.fail("Add did not match positionally")
    match PowInt(x, 3):
        case PowInt(base, 3):
            assert base == x
        case _:
            pytest.fail("PowInt did not match positionally")
    match Div(one, x):
        case Mul():
            pytest.fail("a Div matched Mul")
        case Div(num, den):
            assert (num, den) == (one, x)
        case _:
            pytest.fail("Div did not match positionally")
    for cls, fields in (
        (Const, ("value",)),
        (Var, ()),
        (Add, ("left", "right")),
        (Neg, ("arg",)),
        (Mul, ("left", "right")),
        (Div, ("num", "den")),
        (PowInt, ("base", "exponent")),
    ):
        assert cls.__match_args__ == fields
    assert rational_function((x + 1) / x**2 - Neg(one)) == rational_function(
        Div(Add(Mul(x, x), Add(x, Const(F(1)))), PowInt(x, 2))
    )


def test_constructors_take_keywords_and_defaults():
    assert Interval(lo=1, hi=2) == Interval(1, 2)
    assert InequalityPair(label="l", lhs=Var(), rhs=Var()).strict is True
    assert InequalityEntry("E", "d", F(0), True, ()).monotone_expr is None
    assert CheckRecord(label="l", verdict="holds", evidence=None) == CheckRecord("l", "holds", None)
    assert Polynomial(coeffs=(1, 0)).coeffs == (F(1),)


def test_generic_constructor_rejects_bad_fields():
    with pytest.raises(TypeError):
        CertificateStep("l", "ok")
    with pytest.raises(TypeError):
        CertificateStep("l", "ok", "d", "extra")
    with pytest.raises(TypeError):
        CertificateStep("l", "ok", detail="d", colour="red")
    with pytest.raises(TypeError):
        CertificateStep("l", "ok", "d", label="again")
    with pytest.raises(TypeError):
        type("NoSlots", (Frozen,), {})


def test_own_rules_still_apply():
    with pytest.raises(ValueError):
        Interval(2, 1)
    assert Interval("1/3", 1).lo == F(1, 3)
    with pytest.raises(TypeError):
        PowInt(Var(), F(1, 2))
    with pytest.raises(ValueError):
        NamedConstant("tau")
    expansion = SAMPLES[AsymptoticExpansion]()
    assert expansion.low_degree == 1
    with pytest.raises(TypeError):
        AsymptoticExpansion(F(1), ((1, F(1)),), 2, 0)


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    """A fresh ``python -S`` (no site packages) imports the CLI; the modules
    the value types used to need stay unloaded, and every psicert module is
    in ``sys.modules``, most of them not yet run (see the next test)."""
    code = (
        "import sys, psicert.cli; "
        "print(' '.join(sorted(m for m in sys.modules "
        "if m in ('dataclasses', 'inspect', 'typing') or m.startswith('psicert'))))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.split() == [
        "psicert",
        "psicert.cli",
        "psicert.elementary",
        "psicert.expressions",
        "psicert.interval",
        "psicert.polycert",
        "psicert.polygamma",
        "psicert.series",
        "psicert.theorems",
    ]


SUBMODULES = ("interval", "elementary", "series", "polygamma", "polycert", "expressions", "theorems")
# a grid check calls every module but polycert, which only certificates and
# the lowering of rational trees (THM3's corrections in ``report tightness``) run
GRID_MODULES = tuple(m for m in SUBMODULES if m != "polycert")


@pytest.mark.parametrize(
    "argv, runs",
    [
        (None, ()),
        (["bern", "5"], ("interval", "series")),
        (["const", "pi"], ("elementary", "interval")),
        (["const", "gamma"], ("elementary", "interval", "polygamma", "series")),
        (["certify", "thm2", "--grid", "3:4:2"], GRID_MODULES),
        (["report", "compare", "--grid", "2:3:2"], GRID_MODULES),
        (["certify", "thm1", "--symbolic"], SUBMODULES),
        (["report", "tightness", "--grid", "1:2:2"], SUBMODULES),
    ],
    ids=[
        "import", "bern", "const-pi", "const-gamma", "certify", "report-compare",
        "certify-symbolic", "report-tightness",
    ],
)
def test_a_command_runs_only_the_modules_it_calls(argv, runs):
    """In a fresh ``python -S``, ``import psicert.cli`` runs only ``psicert``
    and ``psicert.cli``, and ``main(argv)`` adds the modules it calls.  A lazy
    module's type is a subclass of ``ModuleType`` until it runs."""
    call = "" if argv is None else (
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert psicert.cli.main({argv!r}) == 0\n"
    )
    code = (
        "import sys, types, psicert.cli\n" + call
        + "print(' '.join(sorted(name for name, module in sys.modules.items() "
        "if name.startswith('psicert') and type(module) is types.ModuleType)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.split() == sorted(["psicert", "psicert.cli", *(f"psicert.{m}" for m in runs)])


def test_polycert_runs_without_the_elementary_kernels():
    """In a fresh ``python -S``, running ``psicert.polycert`` runs only
    ``psicert.interval`` beside it: a certificate evaluates nothing."""
    code = (
        "import sys, types, psicert.polycert\n"
        "psicert.polycert.RationalFunction.x()\n"
        "print(' '.join(sorted(name for name, module in sys.modules.items() "
        "if name.startswith('psicert') and type(module) is types.ModuleType)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.split() == ["psicert", "psicert.interval", "psicert.polycert"]


def test_public_names_resolve_through_their_modules():
    namespace: dict[str, object] = {}
    exec("from psicert import *", namespace)
    assert set(psicert.__all__) <= set(namespace)
    assert len(psicert.__all__) == 68  # 67 names from the table, and __version__
    assert set(psicert._EXPORTS) == set(SUBMODULES)
    for module_name, names in psicert._EXPORTS.items():
        module = getattr(psicert, module_name)
        assert module is sys.modules[f"psicert.{module_name}"]
        for name in names:
            assert name in module.__all__
            assert namespace[name] is getattr(module, name) is getattr(psicert, name)
    assert set(psicert.__all__) <= set(dir(psicert))
    with pytest.raises(AttributeError, match="no_such_name"):
        psicert.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from psicert import no_such_name", {})


@pytest.mark.parametrize(
    "argv, span",
    [
        (["const", "pi"], "elementary.iv_pi"),
        (["certify", "thm2", "--grid", "3:4:2"], "theorems.check_grid"),
    ],
    ids=["const-pi", "certify"],
)
def test_tracer_wraps_the_lazily_loaded_modules(argv, span, tmp_path):
    """``perfbench/tracer.py`` looks up each traced module in ``sys.modules``
    right after ``import psicert.cli``, so every module must be registered
    there before it runs; the traced call prints what ``python -m psicert``
    prints."""
    spans = tmp_path / "spans.bin"
    env = {**os.environ, "PYTHONPATH": SRC}
    traced = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), "0", "--format", "json", *argv],
        env=env,
        capture_output=True,
        check=False,
    )
    plain = subprocess.run(
        [sys.executable, "-m", "psicert", "--format", "json", *argv],
        env=env,
        capture_output=True,
        check=True,
    )
    assert traced.returncode == 0, traced.stderr.decode()
    assert traced.stdout == plain.stdout
    record = marshal.loads(spans.read_bytes())
    names = [record["names"][entry[0]] for entry in record["spans"]]
    assert "cli.main" in names
    assert span in names
