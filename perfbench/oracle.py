"""Independent check of psicert's ``--format json`` output against mpmath.

Every printed interval whose true value mpmath can compute is tested for
containment, at a working precision chosen from the interval's own width so
that mpmath's error is far below it.  Every decided verdict must agree with
the sign mpmath gives, and every exit code with the printed verdict.  The
catalog inequalities, the Bernoulli-based series coefficients and the
constants are restated here from their published closed forms; nothing is
taken from psicert.  Symbolic verdicts are compared with the hand-written
``expected_symbolic.json``.

``check(job, payload, exit_code, series_orders)`` returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable

import mpmath
from mpmath import mp, mpf

EXPECTED_SYMBOLIC: dict[str, str] = json.loads(
    (Path(__file__).parent / "expected_symbolic.json").read_text()
)
DIGAMMA_ZERO_GUESS = "1.46163214496836234126265954232572132846819620400644635"


# ---------------------------------------------------------------------------
# exact comparison of mpmath values with rational endpoints
# ---------------------------------------------------------------------------


def _mp(q: Fraction) -> mpf:
    return mpf(q.numerator) / q.denominator


def _exact(value: mpf) -> Fraction:
    sign, man, exp, _ = value._mpf_
    man = -int(man) if sign else int(man)
    return Fraction(man * 2**exp) if exp >= 0 else Fraction(man, 2**-exp)


def _bits_for(lo: Fraction, hi: Fraction) -> int:
    """Working precision well past the interval's width (and its magnitude)."""
    width = hi - lo
    fine = 64 if width == 0 else width.denominator.bit_length() - width.numerator.bit_length()
    big = max(abs(lo), abs(hi), Fraction(1))
    scale = big.numerator.bit_length() - big.denominator.bit_length()
    bits = max(64, fine) + max(0, scale) + 96
    return -(-bits // 64) * 64


def _slack(true: Fraction, prec: int) -> Fraction:
    return max(abs(true), Fraction(1)) / 2 ** (prec - 40)


def _interval(iv: dict[str, str]) -> tuple[Fraction, Fraction]:
    return Fraction(iv["lo"]), Fraction(iv["hi"])


def _contains(
    iv: dict[str, str], value: Callable[[], mpf], what: str, problems: list[str]
) -> tuple[Fraction, Fraction] | None:
    """Check that ``iv`` holds the true value; return (value, slack) or None."""
    lo, hi = _interval(iv)
    if lo > hi:
        problems.append(f"{what}: empty interval [{lo}, {hi}]")
        return None
    prec = _bits_for(lo, hi)
    with mp.workprec(prec):
        true = _exact(+value())
    slack = _slack(true, prec)
    if not lo - slack <= true <= hi + slack:
        problems.append(
            f"{what}: true value {mpmath.nstr(_mp(true), 25)} outside "
            f"[{mpmath.nstr(_mp(lo), 25)}, {mpmath.nstr(_mp(hi), 25)}]"
        )
    return true, slack


# ---------------------------------------------------------------------------
# the catalog, restated with mpmath (x is an exact rational, X its mpf)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _psi_at(order: int, y: Fraction, prec: int) -> mpf:
    with mp.workprec(prec):
        return mp.psi(order, _mp(y))


def _psi(y: Fraction) -> mpf:
    return _psi_at(0, y, mp.prec)


def _tri(y: Fraction) -> mpf:
    return _psi_at(1, y, mp.prec)


def _bstar() -> mpf:
    return mp.pi**2 / (6 * mp.exp(2 * mp.euler))


def _theta(X: mpf, m: int) -> mpf:
    return (mp.exp(m / (X + 1)) - mp.exp(-m / X)) / (2 * m)


def _small_m(X: mpf) -> mpf:
    return 1 / X - 1 / (24 * X**4) + mpf(7) / (360 * X**6)


def _big_m(X: mpf) -> mpf:
    return _small_m(X) + 1 / (90 * X**7)


def _thm1(x: Fraction, X: mpf, shift: mpf) -> mpf:
    return (X + shift) * mp.exp(-2 * _psi(x + 1) - 1 / (120 * X**4))


def _alpha(X: mpf) -> mpf:
    return mpf(1) / 2 + 1 / (90 * X**3) - 1 / (60 * X**4)


def _beta(X: mpf) -> mpf:
    return mpf(1) / 2 + 1 / (90 * X**3)


def _batir(x: Fraction, X: mpf, shift: mpf) -> mpf:
    return (X + shift) * mp.exp(-2 * _psi(x + 1))


def _batir_theta(x: Fraction, X: mpf) -> mpf:
    return _tri(x + 1) * mp.exp(2 * _psi(x + 1)) - X


Side = Callable[[Fraction, mpf], mpf]

_NEXT: Side = lambda x, X: _tri(x + 1)
_HERE: Side = lambda x, X: _tri(x)

# Named bound values, as ``report compare`` lists them by (id, side).
BOUNDS: dict[tuple[str, str], Side] = {
    ("THM1", "lower"): lambda x, X: _thm1(x, X, _alpha(X)),
    ("THM1", "upper"): lambda x, X: _thm1(x, X, _beta(X)),
    ("BATIR", "lower"): lambda x, X: _batir(x, X, mpf(1) / 2),
    ("BATIR", "upper"): lambda x, X: _batir(x, X, _bstar()),
    ("YCT", "lower"): lambda x, X: _theta(X, 1),
    ("YCT", "upper"): lambda x, X: _theta(X, 2),
    ("THM3a", "lower"): lambda x, X: _theta(X, 1) + 1 / (24 * X**5) - mpf(5) / (48 * X**6),
    ("THM3a", "upper"): lambda x, X: _theta(X, 1) + 1 / (24 * X**5),
    ("THM3b", "lower"): lambda x, X: _theta(X, 2) - 1 / (45 * X**7),
    ("THM3b", "upper"): lambda x, X: _theta(X, 2) - 1 / (45 * X**7) + mpf(7) / (90 * X**8),
    ("XP1", "lower"): lambda x, X: mp.exp(1 / (X + 1)) - mp.e + mp.psi(1, 1),
    ("XP1", "upper"): lambda x, X: mp.exp(1 / (X + 1)) - 1,
    ("XP1", "cap"): lambda x, X: mp.sinh(2 / X) / 2,
    ("THM2", "lower"): lambda x, X: mp.exp(_small_m(X)) - 1,
    ("THM2", "upper"): lambda x, X: mp.exp(_big_m(X)) - 1,
    ("GUO-QI", "upper"): lambda x, X: mp.exp(1 / X) - 1,
    ("ELE", "upper"): lambda x, X: mp.exp(-_psi(x)),
    ("YCT", "lower (shifted)"): lambda x, X: 1 / X**2 + _theta(X, 1),
    ("YCT", "upper (shifted)"): lambda x, X: 1 / X**2 + _theta(X, 2),
}

_ZERO: Side = lambda x, X: mpf(0)

# Grid pairs ``lhs < rhs`` by (entry id, pair label).
PAIRS: dict[tuple[str, str], tuple[Side, Side]] = {
    ("THM1", "lower"): (BOUNDS["THM1", "lower"], _NEXT),
    ("THM1", "upper"): (_NEXT, BOUNDS["THM1", "upper"]),
    ("THM2", "lower"): (BOUNDS["THM2", "lower"], _HERE),
    ("THM2", "upper"): (_HERE, BOUNDS["THM2", "upper"]),
    ("THM3a", "lower"): (BOUNDS["THM3a", "lower"], _NEXT),
    ("THM3a", "upper"): (_NEXT, BOUNDS["THM3a", "upper"]),
    ("THM3b", "lower"): (BOUNDS["THM3b", "lower"], _NEXT),
    ("THM3b", "upper"): (_NEXT, BOUNDS["THM3b", "upper"]),
    ("ELE", "upper"): (_HERE, BOUNDS["ELE", "upper"]),
    ("GUO-QI", "upper"): (_HERE, BOUNDS["GUO-QI", "upper"]),
    ("BATIR", "lower"): (BOUNDS["BATIR", "lower"], _NEXT),
    ("BATIR", "upper"): (_NEXT, BOUNDS["BATIR", "upper"]),
    ("YCT", "lower"): (BOUNDS["YCT", "lower"], _NEXT),
    ("YCT", "upper"): (_NEXT, BOUNDS["YCT", "upper"]),
    ("XP1", "lower"): (BOUNDS["XP1", "lower"], _NEXT),
    ("XP1", "upper"): (_NEXT, BOUNDS["XP1", "upper"]),
    ("XP1", "sinh cap"): (BOUNDS["XP1", "upper"], BOUNDS["XP1", "cap"]),
    ("R1U", "negativity"): (
        lambda x, X: mp.log(X + _alpha(X)) - mp.log(X + mpf(1) / 2) - 1 / (120 * X**4),
        _ZERO,
    ),
    ("R1V", "negativity"): (
        lambda x, X: mp.log(X + _beta(X)) - 1 / (120 * X**4) - mp.log(X + _bstar()),
        _ZERO,
    ),
    ("BATIR-THETA", "above limiting value 1/2"): (lambda x, X: mpf(1) / 2, _batir_theta),
    ("BATIR-THETA", "below starting value b*"): (_batir_theta, lambda x, X: _bstar()),
}

RELATIONS: dict[str, tuple[Side, Side]] = {
    "THM1 upper bound value below BATIR upper bound value": (
        BOUNDS["THM1", "upper"], BOUNDS["BATIR", "upper"]),
    "THM1 lower bound value below BATIR lower bound value": (
        BOUNDS["THM1", "lower"], BOUNDS["BATIR", "lower"]),
    "shifted theta(x,2) upper bound value below exp(1/x) - 1": (
        BOUNDS["YCT", "upper (shifted)"], BOUNDS["GUO-QI", "upper"]),
}


def _at(side: Side, x: Fraction) -> Callable[[], mpf]:
    return lambda: side(x, _mp(x))


def _check_pair(
    what: str,
    verdict: str,
    evidence: dict[str, str],
    lhs: Callable[[], mpf],
    rhs: Callable[[], mpf],
    problems: list[str],
) -> None:
    left = _contains({"lo": evidence["lhs_lo"], "hi": evidence["lhs_hi"]}, lhs, f"{what} lhs", problems)
    right = _contains({"lo": evidence["rhs_lo"], "hi": evidence["rhs_hi"]}, rhs, f"{what} rhs", problems)
    if left is None or right is None or verdict == "undecided":
        return
    gap = right[0] - left[0]
    slack = left[1] + right[1]
    if verdict == "holds" and gap < -slack or verdict == "violated" and gap > slack:
        problems.append(f"{what}: verdict {verdict} but mpmath gives rhs - lhs = {float(gap):.3e}")


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------


def _combined(verdicts: list[str]) -> str:
    if "violated" in verdicts:
        return "violated"
    if "undecided" in verdicts:
        return "undecided"
    return "holds"


def _check_exit(total: str, exit_code: int, problems: list[str]) -> None:
    expected = 0 if total == "holds" else 1
    if exit_code != expected:
        problems.append(f"total {total} but exit code {exit_code}")


def _check_grid_report(report: dict, problems: list[str]) -> None:
    entry_id = report["id"]
    for check in report["checks"]:
        label, verdict, evidence = check["label"], check["verdict"], check["evidence"]
        what = f"{entry_id} {label}"
        if label.startswith("decreasing from x="):
            a_text, b_text = label[len("decreasing from x="):].split(" to x=")
            a, b = Fraction(a_text), Fraction(b_text)
            # the claim theta(a) > theta(b) is checked as theta(b) < theta(a)
            _check_pair(what, verdict, {
                "lhs_lo": evidence["rhs_lo"], "lhs_hi": evidence["rhs_hi"],
                "rhs_lo": evidence["lhs_lo"], "rhs_hi": evidence["lhs_hi"],
            }, _at(_batir_theta, b), _at(_batir_theta, a), problems)
            continue
        pair_label, x_text = label.rsplit(" at x=", 1)
        sides = PAIRS.get((entry_id, pair_label))
        if sides is None:
            problems.append(f"{what}: unknown check")
            continue
        x = Fraction(x_text)
        _check_pair(what, verdict, evidence, _at(sides[0], x), _at(sides[1], x), problems)


def _check_certify(payload: dict, problems: list[str]) -> str:
    reports = payload["reports"]
    for report in reports:
        verdicts = [c["verdict"] for c in report["checks"]]
        if report["method"] == "symbolic":
            expected = EXPECTED_SYMBOLIC.get(report["id"])
            if report["total"] != expected:
                problems.append(f"symbolic {report['id']}: {report['total']}, expected {expected}")
            if report["total"] == "holds" and set(verdicts) != {"holds"}:
                problems.append(f"symbolic {report['id']}: holds with open steps")
        else:
            _check_grid_report(report, problems)
            if report["total"] != _combined(verdicts):
                problems.append(f"{report['id']}: total {report['total']} disagrees with its checks")
    total = _combined([r["total"] for r in reports])
    if payload["total"] != total:
        problems.append(f"total {payload['total']} disagrees with reports ({total})")
    return payload["total"]


def _window_verdict(value: Fraction, slack: Fraction, window: tuple[Fraction, Fraction]) -> str | None:
    lo, hi = window
    if lo + slack <= value <= hi - slack:
        return "in"
    if value < lo - slack or value > hi + slack:
        return "out"
    return None  # too close to an edge to call


def _check_tightness(payload: dict, problems: list[str]) -> str:
    verdicts = []
    for row in payload["rows"]:
        x = Fraction(row["x"])
        where = f"tightness x={x}"
        _contains(row["psi_prime_next"], _at(_NEXT, x), f"{where} psi_prime_next", problems)
        for key, power, m in (("d1", 5, 1), ("d2", 7, 2)):
            found = _contains(
                row[key], _at(lambda x, X, m=m: _tri(x + 1) - _theta(X, m), x), f"{where} {key}", problems
            )
            verdict = row[f"x{power}_verdict"]
            verdicts.append(verdict)
            if found is None or verdict == "undecided":
                continue
            true = found[0] * x**power
            window = _interval(row[f"x{power}_window"])
            truth = _window_verdict(true, found[1] * x**power, window)
            if truth is not None and truth != verdict:
                problems.append(f"{where} x^{power}*{key}: verdict {verdict}, mpmath says {truth}")
    total = "violated" if "out" in verdicts else "undecided" if "undecided" in verdicts else "holds"
    if payload["total"] != total:
        problems.append(f"total {payload['total']} disagrees with rows ({total})")
    return payload["total"]


def _check_compare(payload: dict, problems: list[str]) -> str:
    relation_verdicts = []
    for point in payload["points"]:
        x = Fraction(point["x"])
        where = f"compare x={x}"
        _contains(point["targets"]["psi'(x+1)"], _at(_NEXT, x), f"{where} psi'(x+1)", problems)
        _contains(point["targets"]["psi'(x)"], _at(_HERE, x), f"{where} psi'(x)", problems)
        for bound in point["bounds"]:
            side = BOUNDS.get((bound["id"], bound["side"]))
            if side is None:
                problems.append(f"{where}: unknown bound {bound['id']} {bound['side']}")
                continue
            _contains(bound["enclosure"], _at(side, x), f"{where} {bound['id']} {bound['side']}", problems)
        for relation in point["relations"]:
            sides = RELATIONS.get(relation["label"])
            if sides is None:
                problems.append(f"{where}: unknown relation {relation['label']}")
                continue
            relation_verdicts.append(relation["verdict"])
            _check_pair(f"{where} {relation['label']}", relation["verdict"], relation["evidence"],
                        _at(sides[0], x), _at(sides[1], x), problems)
    total = _combined(relation_verdicts)
    if payload["total"] != total:
        problems.append(f"total {payload['total']} disagrees with relations ({total})")
    return payload["total"]


def _digamma_zero() -> mpf:
    return mp.findroot(mp.digamma, mpf(DIGAMMA_ZERO_GUESS))


CONSTANTS: dict[str, Callable[[], mpf]] = {
    "gamma": lambda: +mp.euler,
    "bstar": _bstar,
    "pi": lambda: +mp.pi,
    "digamma-zero": _digamma_zero,
}


def _option(job, flag: str) -> str | None:
    return job.args[job.args.index(flag) + 1] if flag in job.args else None


def _check_const(job, payload: dict, problems: list[str]) -> None:
    name = payload["name"]
    _contains(payload["enclosure"], CONSTANTS[name], f"const {name}", problems)
    lo, hi = _interval(payload["enclosure"])
    tol = _option(job, "--tol")
    if tol is not None and hi - lo > Fraction(tol):
        problems.append(f"const {name}: width {float(hi - lo):.3e} above tolerance {tol}")
    if name == "pi" and hi - lo > Fraction(1, 2 ** max(int(_option(job, "--precision") or 64), 8)):
        problems.append("const pi: width above 2**-precision")


@lru_cache(maxsize=None)
def _bernoulli(n: int) -> Fraction:
    return Fraction(*mpmath.bernfrac(n))


def _digamma_series(order: int) -> dict[int, Fraction]:
    """psi(x+1) = ln x + 1/(2x) - sum_j B_2j / (2j x^2j)."""
    coeffs = {k: Fraction(0) for k in range(order + 1)}
    coeffs[1] = Fraction(1, 2)
    for k in range(2, order + 1, 2):
        coeffs[k] = -_bernoulli(k) / k
    return coeffs


def _trigamma_series(order: int) -> dict[int, Fraction]:
    """psi'(x+1) = 1/x - 1/(2x^2) + sum_j B_2j / x^(2j+1)."""
    coeffs = {k: Fraction(0) for k in range(order + 1)}
    coeffs[1] = Fraction(1)
    if order >= 2:
        coeffs[2] = Fraction(-1, 2)
    for k in range(3, order + 1, 2):
        coeffs[k] = _bernoulli(k - 1)
    return coeffs


def _theta_series(order: int) -> dict[int, Fraction]:
    """(exp(1/(x+1)) - exp(-1/x)) / 2 in powers of t = 1/x.

    exp(t/(1+t)) = sum_n t^n sum_{k=1..n} (-1)^(n+k) C(n-1, k-1) / k!
    (the Laguerre generating function at alpha = -1); the inner sum is
    carried over the common denominator n!.
    """
    coeffs = {0: Fraction(0)}
    for n in range(1, order + 1):
        grow = sum(
            (-1) ** (n + k) * math.comb(n - 1, k - 1) * math.perm(n, n - k)
            for k in range(1, n + 1)
        )
        coeffs[n] = Fraction(grow - (-1) ** n, 2 * math.factorial(n))
    return coeffs


def _product_series(order: int) -> dict[int, Fraction]:
    """psi'(x+1) exp(2 psi(x+1)) = t^-2 T(t) exp(2 A(t)), t = 1/x, with
    A and T the digamma and trigamma series above; key k is the power x^-k."""
    depth = order + 2
    a = _digamma_series(depth)
    e = [Fraction(1)]
    for n in range(1, depth + 1):
        e.append(sum((2 * k * a[k] * e[n - k] for k in range(1, n + 1) if a[k]), Fraction(0)) / n)
    t = _trigamma_series(depth)
    q = {n: sum((t[k] * e[n - k] for k in range(1, n + 1) if t[k]), Fraction(0)) for n in range(1, depth + 1)}
    return {n - 2: c for n, c in q.items()}


@lru_cache(maxsize=None)
def _series_reference(kind: str, order: int) -> tuple[int, dict[int, Fraction]]:
    if kind == "digamma":
        return 1, _digamma_series(order)
    if kind == "trigamma":
        return 0, _trigamma_series(order)
    if kind == "theta":
        return 0, _theta_series(order)
    return 0, _product_series(order)


def _check_series(payload: dict, order: int, reference_order: int, problems: list[str]) -> None:
    kind = payload["kind"]
    log_coeff, reference = _series_reference(kind, max(order, reference_order))
    expected = {k: c for k, c in reference.items() if k <= order}
    if payload["order"] != order:
        problems.append(f"series {kind}: order {payload['order']}, asked {order}")
    if Fraction(payload["log_coeff"]) != log_coeff:
        problems.append(f"series {kind}: log coefficient {payload['log_coeff']}")
    got = {-term["power"]: Fraction(term["coefficient"]) for term in payload["terms"]}
    for k in sorted(set(got) | set(expected)):
        if got.get(k, Fraction(0)) != expected.get(k, Fraction(0)):
            problems.append(
                f"series {kind}: coefficient of x^{-k} is {got.get(k)}, expected {expected.get(k)}"
            )
            break


def _check_bern(payload: dict, n: int, problems: list[str]) -> None:
    values = payload["values"]
    if sorted(map(int, values)) != list(range(n + 1)):
        problems.append(f"bern: indices are not 0..{n}")
        return
    for index, text in values.items():
        if Fraction(text) != _bernoulli(int(index)):
            problems.append(f"bern: B_{index} = {text}, mpmath gives {_bernoulli(int(index))}")
            break


def check(job, payload: dict, exit_code: int, series_orders: dict[str, int]) -> list[str]:
    """Problems with one job's output; an empty list means it is correct.

    ``series_orders`` gives the largest order of each series kind in the
    job list: references are built once at that order, and smaller orders
    are checked against its prefix.
    """
    problems: list[str] = []
    command = payload.get("command")
    if command == "certify":
        _check_exit(_check_certify(payload, problems), exit_code, problems)
    elif command == "report" and payload["kind"] == "tightness":
        _check_exit(_check_tightness(payload, problems), exit_code, problems)
    elif command == "report":
        _check_exit(_check_compare(payload, problems), exit_code, problems)
    elif command == "const":
        _check_const(job, payload, problems)
        _check_exit("holds", exit_code, problems)
    elif command == "series":
        order = int(_option(job, "--order"))
        _check_series(payload, order, series_orders.get(payload["kind"], order), problems)
        _check_exit("holds", exit_code, problems)
    elif command == "bern":
        _check_bern(payload, int(job.args[-1]), problems)
        _check_exit("holds", exit_code, problems)
    else:
        problems.append(f"unexpected output for command {command!r}")
    return problems
