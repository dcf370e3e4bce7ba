"""Hypothesis fuzzing of the CLI grammar, in process.

Each example is one ``psicert.cli.main`` call: a subcommand with bounded
parameters under each ``--format``, sometimes with one token replaced,
dropped or added.  Whatever the input, the call returns 0, 1 or 2 (an
argparse usage error, ``SystemExit(2)``, counts as 2), raises nothing else,
and ends within the example deadline.  A name missed on a rarely run path,
such as the csv flattening of a report or ``_scientific`` on a width, shows
here as an exception.
"""

from __future__ import annotations

import contextlib
import io
from datetime import timedelta
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from psicert import cli

# Inputs that run for minutes today, or past the example deadline, each with
# the ROADMAP item that is to make it finish: item 3 (psi/psi' at high
# precision), item 6 (ends that carry a binary exponent) or item 7 (a budget
# for every loop that can run long).  Until then the ranges below keep clear
# of them: grids start at 1/100 or above (1e-5 asks for exp(~1e5) on an
# absolute grid), ``bern`` stops at 300, ``series`` at order 40 and
# ``--precision`` at 128, and no rational is tiny.  An entry with a
# ``--precision`` option lists it first, as the filter in :func:`argvs` reads it.
KNOWN_HANGS = (
    ("certify", "classical", "--grid", "1e-5:1:3"),  # item 6
    ("bern", "6000"),  # item 7
    ("--precision", "20000", "enclose", "digamma", "29/7"),  # items 3 and 7
    ("--precision", "30000", "enclose", "digamma", "29/7"),  # items 3 and 7
    ("--precision", "1000000", "const", "pi"),  # item 7
    ("series", "product", "--order", "2000"),  # item 7
    ("enclose", "trigamma", "1e-100000"),  # item 6
)

# Tokens that no argument accepts as written, or only at its domain's edge.
MALFORMED = (
    "", "-", "--", "nope", "--bogus", "1/0", "0", "-1", "-7/5", "1e", "nan", "inf",
    "1e400", "1:2", "a:b:c", "0:1:3", "2:1:3", "3:4:0", "3:4:-2",
)

# Valid values come first in each strategy, because Hypothesis shrinks
# toward the first branch and the first element.
RATIONALS = st.one_of(
    st.builds(lambda p, q: f"{p}/{q}", st.integers(1, 500), st.integers(1, 60)),
    st.sampled_from(("2.25", "1e2", "3e-1", "1000", "0", "-3", "-7/5", "-0.5")),
)
GRID_ENDS = st.sampled_from(("3", "7/2", "10", "100", "1000", "2", "1", "1/2", "1/10", "1/100"))


@st.composite
def grid_specs(draw) -> str:
    ends = sorted(draw(st.lists(GRID_ENDS, min_size=2, max_size=2, unique=True)), key=Fraction)
    return f"{ends[0]}:{ends[1]}:{draw(st.one_of(st.integers(2, 4), st.just(1)))}"


COMMANDS = st.one_of(
    st.builds(lambda n: ["bern", str(n)], st.integers(-3, 300)),
    st.builds(
        lambda kind, order, m: ["series", kind, "--order", str(order), *m],
        st.sampled_from(("digamma", "trigamma", "theta", "product")),
        st.one_of(st.integers(1, 40), st.integers(-2, 0)),
        st.one_of(st.just([]), RATIONALS.map(lambda m: [f"--m={m}"])),
    ),
    st.builds(lambda fn, x: ["enclose", fn, x], st.sampled_from(("digamma", "trigamma")), RATIONALS),
    st.builds(
        lambda name, tol: ["const", name, *tol],
        st.sampled_from(("gamma", "bstar", "pi", "digamma-zero")),
        st.one_of(
            st.just([]),
            st.sampled_from(("1e-6", "1e-20", "1/3", "2", "0", "-1")).map(lambda t: ["--tol", t]),
        ),
    ),
    st.builds(
        lambda selection, mode: ["certify", selection, *mode],
        st.sampled_from(("thm1", "thm2", "thm3", "classical", "remark1", "all")),
        st.one_of(
            st.just([]),
            st.just(["--symbolic"]),
            grid_specs().map(lambda spec: ["--grid", spec]),
            grid_specs().map(lambda spec: ["--symbolic", "--grid", spec]),
        ),
    ),
    st.builds(
        lambda kind, spec: ["report", kind, "--grid", spec],
        st.sampled_from(("tightness", "compare")),
        grid_specs(),
    ),
)


@st.composite
def argvs(draw) -> list[str]:
    command = draw(COMMANDS)
    assume(tuple(command) not in KNOWN_HANGS)
    options = ["--format", draw(st.sampled_from(("text", "json", "csv")))]
    if draw(st.booleans()):
        precision = ["--precision", str(draw(st.sampled_from((64, 8, 24, 128, 4))))]
        assume(tuple(precision + command) not in KNOWN_HANGS)
        options += precision
    argv = options + command
    edit = draw(st.sampled_from(("none", "none", "none", "replace", "drop", "insert")))
    if edit != "none":
        at = draw(st.integers(0, len(argv) - 1))
        token = draw(st.sampled_from(MALFORMED))
        if edit == "replace":
            argv[at] = token
        elif edit == "drop":
            del argv[at]
        else:
            argv.insert(at, token)
    return argv


@settings(max_examples=300, deadline=timedelta(seconds=10))
@given(argvs())
def test_every_input_exits_0_1_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses the input
            code = exc.code
            assert code == 2, (argv, err.getvalue())
    assert code in (0, 1, 2), argv
    if code == 2:
        assert err.getvalue().startswith(("usage:", "error:")), (argv, err.getvalue())
