"""Seeded job lists for the three benchmark workloads.

A job is one ``python -m psicert --format json ...`` invocation.  The seed
only moves the parameters of each job (grid ends and counts, tolerances,
orders, precisions); the number of jobs of each kind is fixed, so every seed
runs the same mix.  Parameters of one kind are spread over their range with
``spread``: evenly spaced anchors, each jittered inside a narrow band.  The
total work of a list therefore barely depends on the seed, which keeps
run-to-run spread down to the machine's own noise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("grid", "precision", "symbolic")

# Per-job cap of each workload, well clear of every job's time at the seed
# commit: ``certify all`` takes about 8 s; in ``precision`` the slowest job
# that finishes takes about 3.5 s and two never finish (PRECISION_DEFECTS);
# ``symbolic`` tops out near 4.5 s (``series product --order 400``).
JOB_CAP_S = {"grid": 30.0, "precision": 8.0, "symbolic": 15.0}

# Smallest admissible grid start of each ``certify`` group (the largest
# ``grid_floor`` of its catalog entries; open domains start at 1/10), and
# how many seeded jobs of it a grid pass runs: fewer of the slow groups.
GROUPS = {
    "thm1": (Fraction(3), 3),
    "thm2": (Fraction(3), 3),
    "thm3": (Fraction(1), 3),
    "classical": (Fraction(1, 10), 2),
    "remark1": (Fraction(1), 2),
}


@dataclass(frozen=True)
class Job:
    """One CLI call: ``kind`` groups jobs for reporting, ``args`` follow ``psicert``."""

    kind: str
    args: tuple[str, ...]

    @property
    def label(self) -> str:
        return " ".join(self.args)


def spread(rng: random.Random, lo: float, hi: float, count: int, band: float = 0.05) -> list[float]:
    """``count`` values covering ``[lo, hi]``: anchor ``i`` at ``lo + i*(hi-lo)/(count-1)``,
    moved by up to ``band`` of one step, kept inside the range."""
    if count == 1:
        return [rng.uniform(lo, hi)]
    step = (hi - lo) / (count - 1)
    values = []
    for i in range(count):
        anchor = lo + i * step
        value = anchor + rng.uniform(-band, band) * step
        values.append(min(hi, max(lo, value)))
    return values


def _decimal(value: float, places: int = 3) -> str:
    return f"{value:.{places}f}"


def _tolerance(exponent: float) -> str:
    """About ``10**-exponent``, written as ``m.de-k``."""
    mantissa, power = f"{10 ** -exponent:.1e}".split("e")
    return f"{mantissa}e{int(power)}"


def grid_jobs(rng: random.Random) -> list[Job]:
    # Grid ends move in narrow bands: the cost of a check depends on x
    # (small x needs more shifts, some x need a second rung), so wide ends
    # would let the seed, not the program, set the time of a pass.
    jobs = [Job("certify-all", ("certify", "all"))]
    for group, (floor, jobs_of_group) in GROUPS.items():
        for count in spread(rng, 10, 40, jobs_of_group):
            start = floor * Fraction(_decimal(rng.uniform(1.0, 1.2)))
            stop = rng.randint(8000, 10_000)
            jobs.append(
                Job("certify-grid", ("certify", group, "--grid", f"{start}:{stop}:{round(count)}"))
            )
    for count in spread(rng, 6, 12, 2):
        start = _decimal(rng.uniform(1.0, 1.5))
        stop = rng.randint(800, 1200)
        jobs.append(
            Job("tightness", ("report", "tightness", "--grid", f"{start}:{stop}:{round(count)}"))
        )
    for count in spread(rng, 3, 6, 2):
        start = _decimal(rng.uniform(1.0, 1.5))
        stop = rng.randint(80, 120)
        jobs.append(
            Job("compare", ("report", "compare", "--grid", f"{start}:{stop}:{round(count)}"))
        )
    return jobs


# Jobs that the seed commit cannot answer.  They stay in every list and
# count as failures: the first two exit 2 because ``--format json`` prints
# endpoints past Python's 4300-digit int-to-str limit, the last two do not
# finish within the per-job cap.
PRECISION_DEFECTS = (
    ("const", ("const", "gamma", "--tol", "1e-25")),
    ("const-pi", ("--precision", "16384", "const", "pi")),
    ("const", ("const", "bstar", "--tol", "1e-30")),
    ("const", ("const", "digamma-zero", "--tol", "1e-30")),
)


def precision_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    ranges = {"gamma": (6, 24), "bstar": (6, 28), "digamma-zero": (6, 15)}
    for name, (lo, hi) in ranges.items():
        for exponent in spread(rng, lo, hi, 4):
            jobs.append(Job("const", ("const", name, "--tol", _tolerance(exponent))))
    for bits in spread(rng, 1024, 12288, 4):
        jobs.append(Job("const-pi", ("--precision", str(round(bits)), "const", "pi")))
    # thm3 costs several times thm2 at the same precision, so it stops lower.
    # Integer grid ends: a high-precision check's cost grows with the
    # bit-size of x, which would make the seed, not the program, set it.
    for group, floor, top in (("thm2", 3, 512), ("thm3", 1, 384)):
        for bits in spread(rng, 128, top, 2):
            start = floor + rng.randint(0, 1)
            jobs.append(
                Job(
                    "certify-precision",
                    ("--precision", str(round(bits)), "certify", group,
                     "--grid", f"{start}:{start + 1}:2"),
                )
            )
    jobs += [Job(kind, args) for kind, args in PRECISION_DEFECTS]
    return jobs


def symbolic_jobs(rng: random.Random) -> list[Job]:
    jobs = [
        Job("certify-symbolic", ("certify", group, "--symbolic"))
        for group in ("thm1", "thm2", "thm3", "remark1")
    ]
    for kind, count in (("digamma", 5), ("trigamma", 5), ("theta", 4), ("product", 4)):
        for order in spread(rng, 10, 400, count):
            jobs.append(Job("series", ("series", kind, "--order", str(round(order)))))
    for n in spread(rng, 100, 800, 3):
        jobs.append(Job("bern", ("bern", str(round(n)))))
    return jobs


def jobs_for(workload: str, seed: int) -> list[Job]:
    rng = random.Random(f"psicert-{workload}-{seed}")
    make = {"grid": grid_jobs, "precision": precision_jobs, "symbolic": symbolic_jobs}
    return make[workload](rng)
