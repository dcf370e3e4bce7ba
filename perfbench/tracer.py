"""Run the psicert CLI with a span recorded around each call into a layer.

Usage: ``python perfbench/tracer.py SPANS_FILE JOB_ID [psicert arguments...]``
with ``src`` on ``PYTHONPATH``.  It behaves like ``python -m psicert`` and
also writes the spans of this one job to ``SPANS_FILE`` with ``marshal``.

The spans are taken from outside the program: each public function named in
``TRACED`` is wrapped, and every alias of it in the ``psicert.*`` modules is
rebound to the wrapper, because the modules import each other's functions by
name (``from .elementary import iv_exp``).  A span is ``(name index, start ns,
end ns, parent span index or -1, argument key, result bits, level)``; the
last three are ``None`` except for the functions in ``KEYED``.
"""

from __future__ import annotations

import marshal
import sys
import time
from fractions import Fraction

TRACED: dict[str, tuple[str, ...]] = {
    "psicert.cli": ("main",),
    "psicert.theorems": ("check_grid", "compare_bounds", "tightness_report", "certify_symbolic"),
    "psicert.expressions": ("evaluate",),
    "psicert.polygamma": (
        "digamma_enclosure",
        "trigamma_enclosure",
        "euler_gamma_enclosure",
        "batir_bstar_enclosure",
        "digamma_zero",
    ),
    "psicert.elementary": ("iv_exp", "iv_ln", "iv_sinh", "iv_pi"),
    "psicert.interval": ("round_outward",),
    "psicert.series": ("bernoulli", "series_mul", "series_exp"),
    "psicert.polycert": (
        "poly_taylor_shift",
        "positivity_on_ray",
        "logexpr_derivative",
        "logexpr_limit_at_infinity",
        "certify_negative_on_ray",
    ),
}

# Functions whose argument key (for distinct_frac), result bit-size and
# level (working precision or shift target, taken from the second
# argument) are recorded; the value names the level's keyword.
KEYED: dict[str, str | None] = {
    "elementary.iv_exp": "work_precision",
    "elementary.iv_ln": "work_precision",
    "polygamma.digamma_enclosure": "shift_target",
    "polygamma.trigamma_enclosure": "shift_target",
    "expressions.evaluate": None,
}
DEFAULT_SHIFT_TARGET = 10


def span_name(module: str, function: str) -> str:
    return f"{module.removeprefix('psicert.')}.{function}"


def _bits(result: object) -> int | None:
    lo, hi = getattr(result, "lo", None), getattr(result, "hi", None)
    if not isinstance(lo, Fraction) or not isinstance(hi, Fraction):
        return None
    return max(
        lo.numerator.bit_length(), lo.denominator.bit_length(),
        hi.numerator.bit_length(), hi.denominator.bit_length(),
    )


def _key(args: tuple, kwargs: dict) -> int | None:
    try:
        return hash((args, tuple(sorted(kwargs.items()))))
    except TypeError:
        return None


def _level(args: tuple, kwargs: dict, keyword: str) -> float | None:
    value = args[1] if len(args) > 1 else kwargs.get(keyword)
    if value is None and keyword == "shift_target":
        value = DEFAULT_SHIFT_TARGET
    return None if value is None else float(value)


class Recorder:
    """Spans of one job, kept in memory until ``dump``."""

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        self.names: list[str] = []
        self.spans: list[tuple | None] = []  # None until the call returns
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns
        keyword = KEYED.get(name, "")

        if name not in KEYED:
            def traced(*args, **kwargs):
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[index] = (name_id, start, end, parent, None, None, None)
        else:
            def traced(*args, **kwargs):
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                result = None
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    end = clock()
                    stack.pop()
                    level = _level(args, kwargs, keyword) if keyword else None
                    spans[index] = (
                        name_id, start, end, parent, _key(args, kwargs), _bits(result), level,
                    )

        return traced

    def install(self) -> None:
        """Wrap every traced function and rebind all of its aliases."""
        modules = [m for n, m in sys.modules.items() if n == "psicert" or n.startswith("psicert.")]
        for module_name, functions in TRACED.items():
            module = sys.modules[module_name]
            for function in functions:
                original = getattr(module, function)
                wrapper = self.wrap(span_name(module_name, function), original)
                for other in modules:
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "wb") as out:
            marshal.dump(
                {"job": self.job_id, "names": self.names, "spans": self.spans},
                out,
            )


def main(argv: list[str]) -> int:
    spans_path, job_id, cli_args = argv[0], argv[1], argv[2:]
    import psicert.cli

    recorder = Recorder(job_id)
    recorder.install()
    try:
        return psicert.cli.main(cli_args)
    except SystemExit as exc:  # argparse reports usage errors this way
        return exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
