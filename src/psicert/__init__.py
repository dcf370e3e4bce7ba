"""Certified rational enclosures and inequality certificates for psi functions.

The package computes interval enclosures, with exact rational endpoints, of
the digamma and trigamma functions and of several classical constants; it
manipulates truncated asymptotic expansions exactly; and it replays a
collection of published two-sided bounds relating the two functions, either
by certified evaluation on grids or by polynomial positivity certificates.

Importing the package runs none of its submodules.  Each of the seven in
``_EXPORTS`` is registered in ``sys.modules`` and on the package through
:class:`importlib.util.LazyLoader`, and runs on the first access to one of
its attributes, whether through ``psicert.<module>``, an import of it, or a
public name of this package.  So a CLI command compiles only the modules it
calls.  Load them from one thread: on Python 3.11 a first access from two
threads at once is not safe.
"""

from __future__ import annotations

import importlib.util
import sys

__version__ = "0.1.0"

# Each submodule and the public names the package takes from it.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "interval": (
        "DomainError", "Interval", "ROUNDING_GUARD_BITS", "iv_arith", "parse_rational",
        "round_outward",
    ),
    "elementary": ("iv_exp", "iv_ln", "iv_pi", "iv_sinh", "ln2_enclosure"),
    "series": (
        "AsymptoticExpansion", "UnsupportedOperationError", "bernoulli", "bernoulli_numbers",
        "digamma_expansion", "expansion", "format_expansion", "series_add",
        "series_derivative", "series_exp", "series_mul", "series_scale", "series_sub",
        "theta_expansion", "trigamma_exp_digamma_expansion", "trigamma_expansion",
    ),
    "polygamma": (
        "batir_bstar_enclosure", "digamma_enclosure", "digamma_zero", "euler_gamma_enclosure",
        "trigamma_enclosure",
    ),
    "polycert": (
        "CertificateReport", "LogRationalExpr", "Polynomial", "RationalFunction",
        "certify_negative_on_ray", "logexpr_derivative", "logexpr_limit_at_infinity",
        "poly_taylor_shift", "positivity_on_ray", "rational_from_expansion",
    ),
    "expressions": (
        "Add", "Const", "Digamma", "Div", "Exp", "Expr", "Ln", "Mul", "Neg",
        "NamedConstant", "PowInt", "Sinh", "Trigamma", "Var", "evaluate",
    ),
    "theorems": (
        "CertReport", "InequalityEntry", "InequalityPair", "catalog", "certify_symbolic",
        "check_grid", "compare_bounds", "default_grid", "geometric_grid", "tightness_report",
    ),
}
_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["__version__", *_OWNERS])

for _name in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = _module
    _spec.loader.exec_module(_module)
    globals()[_name] = _module
del _name, _spec, _module


def __getattr__(name: str) -> object:
    """A public name, read from the submodule that defines it."""
    if name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_OWNERS[name]], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNERS})
