"""psicert benchmark: seeded CLI workloads, an mpmath oracle and per-layer tracing.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0

Each job is one ``python -m psicert --format json ...`` process with ``src`` on
``PYTHONPATH``; jobs run one after another (a closed loop with one client).
The seeded job list (see ``workloads.py``) is run as whole passes: another
pass starts only if it is expected to end within ``--seconds``.  Every
job's output is checked by ``oracle.py`` outside the timed region.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` one untraced and
one traced pass (``tracer.py``) and the per-layer metrics.  The bounded
times are scaled by a calibration probe timed between jobs (see ``PROBES``),
because this machine's speed drifts more than any bound could absorb.  Metric names and
units come from ``BENCHMARK.json``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full
record of the run (every job's argv, exit code, verdict, wall and CPU time
and RSS, plus the seed, source digest, git SHA and versions) is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import marshal
import math
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = HERE / "out"

PROBE_CAP_S = 30.0
PROBE_SAMPLES = 12
# Fresh interpreters timed between the jobs of a pass.  ``setup`` is what
# every CLI call pays before it starts work.  ``calibration`` does not touch
# psicert: a harmonic sum in exact fractions, the same big-integer gcd work
# that dominates psicert.  The machine's speed drifts by tens of percent
# over minutes, and the calibration drifts with it.
PROBES = {
    "setup": "import psicert.cli",
    "calibration": "from fractions import Fraction\ns = Fraction(0)\nfor k in range(1, 1200): s += Fraction(1, k)",
}
# Bounded times are scaled to a machine on which the calibration probe
# takes this long.
CALIBRATION_REF_S = 0.085
IMPORTTIME_REPEATS = 3
TAIL_BEYOND = 10
PSICERT_MODULES = (
    "psicert", "psicert.interval", "psicert.elementary", "psicert.series",
    "psicert.polygamma", "psicert.polycert", "psicert.expressions",
    "psicert.theorems", "psicert.cli",
)
DECIDED = {"holds", "violated", "in", "out"}


@dataclass
class JobRun:
    """What one job did; ``status`` is ``ok`` or the reason it failed."""

    job: workloads.Job
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int | None
    stdout: bytes
    stderr: bytes
    status: str = "ok"
    verdict: str | None = None
    problems: list[str] = field(default_factory=list)
    checks: list[str] = field(default_factory=list)
    rungs: list[int] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.status != "ok"


def job_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], cap: float, stdout_path: Path, stderr_path: Path):
    """Run ``argv`` to completion or until ``cap`` seconds; return
    (wall seconds, wait status, rusage, timed out)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=job_env(), cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], cap)
            if not ready:
                os.kill(proc.pid, signal.SIGKILL)  # not reaped yet, so the pid is still ours
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, status, usage, not ready


def run_job(job, index: int, traced: bool, cap: float) -> JobRun:
    work = OUT / "work"
    cli_args = ["--format", "json", *job.args]
    spans = work / f"spans-{index}.bin"
    if traced:
        argv = [sys.executable, str(HERE / "tracer.py"), str(spans), str(index), *cli_args]
    else:
        argv = [sys.executable, "-m", "psicert", *cli_args]
    wall, status, usage, timed_out = spawn(argv, cap, work / "stdout", work / "stderr")
    run = JobRun(
        job=job,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        exit_code=None if timed_out else os.waitstatus_to_exitcode(status),
        stdout=(work / "stdout").read_bytes(),
        stderr=(work / "stderr").read_bytes(),
    )
    if timed_out:
        run.status = "timeout"
    elif b"Traceback (most recent call last)" in run.stderr:
        run.status = "traceback"
    elif run.exit_code == 2:
        run.status = "exit-2"
    elif run.exit_code not in (0, 1):
        run.status = f"exit-{run.exit_code}"
    return run


def run_pass(jobs: list, traced: bool, cap: float, probes: dict[str, list[float]] | None = None) -> list[JobRun]:
    """Run every job once.  When ``probes`` is given, each probe in
    ``PROBES`` is timed between jobs, spread over the pass, so that the
    samples see the same machine as the jobs do; they are not part of any
    job's time."""
    between = {round(k * len(jobs) / PROBE_SAMPLES) for k in range(PROBE_SAMPLES)}
    runs = []
    for i, job in enumerate(jobs):
        if probes is not None and i in between:
            for name, samples in probes.items():
                samples.append(probe(PROBES[name]))
        runs.append(run_job(job, i, traced, cap))
    return runs


# ---------------------------------------------------------------------------
# checking (outside every timed region)
# ---------------------------------------------------------------------------


def _check_verdicts(payload: dict) -> tuple[list[str], list[int], str | None]:
    """Verdicts of every check a job printed, the working precision of each
    grid check, and the job's total verdict."""
    verdicts: list[str] = []
    precisions: list[int] = []
    if payload.get("command") == "certify":
        for report in payload["reports"]:
            for check in report["checks"]:
                verdicts.append(check["verdict"])
                if "work_precision" in check["evidence"]:
                    precisions.append(int(check["evidence"]["work_precision"]))
    elif payload.get("command") == "report" and payload["kind"] == "compare":
        for point in payload["points"]:
            for relation in point["relations"]:
                verdicts.append(relation["verdict"])
                precisions.append(int(relation["evidence"]["work_precision"]))
    elif payload.get("command") == "report":
        for row in payload["rows"]:
            verdicts += [row["x5_verdict"], row["x7_verdict"]]
    return verdicts, precisions, payload.get("total")


def check_runs(passes: list[list[JobRun]], series_orders: dict[str, int]) -> None:
    """Check the first pass with the oracle; later passes must repeat it byte for byte."""
    import oracle

    first = passes[0]
    for run in first:
        if run.failed:
            continue
        try:
            payload = json.loads(run.stdout)
        except ValueError:
            run.status = "bad-json"
            continue
        run.checks, precisions, run.verdict = _check_verdicts(payload)
        base = int(run.job.args[run.job.args.index("--precision") + 1]) if "--precision" in run.job.args else 64
        run.rungs = [round(math.log2(p / base)) for p in precisions]
        try:
            run.problems = oracle.check(run.job, payload, run.exit_code, series_orders)
        except (KeyError, TypeError, ValueError) as exc:
            run.problems = [f"output not understood: {exc!r}"]
        if run.problems:
            run.status = "wrong"
    for later in passes[1:]:
        for run, reference in zip(later, first):
            run.checks, run.rungs, run.verdict = reference.checks, reference.rungs, reference.verdict
            if not run.failed and not reference.failed and run.stdout != reference.stdout:
                run.status = "wrong"
                run.problems = ["output differs from the first pass"]
            elif not run.failed and reference.failed:
                run.status, run.problems = reference.status, reference.problems


# ---------------------------------------------------------------------------
# measurements outside the job passes
# ---------------------------------------------------------------------------


def probe(code: str) -> float:
    """Wall time of a fresh interpreter running ``code``."""
    work = OUT / "work"
    wall, status, _, timed_out = spawn(
        [sys.executable, "-c", code], PROBE_CAP_S, work / "stdout", work / "stderr"
    )
    if timed_out or os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"probe {code!r} failed: " + (work / "stderr").read_text())
    return wall


def measure_import_times() -> dict[str, float]:
    """Self import time of each psicert module, median of ``python -X importtime`` runs."""
    argv = [sys.executable, "-X", "importtime", "-c", "import psicert.cli"]
    samples: dict[str, list[float]] = {name: [] for name in PSICERT_MODULES}
    for _ in range(IMPORTTIME_REPEATS):
        spawn(argv, PROBE_CAP_S, OUT / "work" / "stdout", OUT / "work" / "stderr")
        for line in (OUT / "work" / "stderr").read_text().splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
            if name in samples and self_us.isdigit():
                samples[name].append(int(self_us) / 1e6)
    return {name: statistics.median(values) if values else 0.0 for name, values in samples.items()}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, int]:
    """The highest percentile with at least ``TAIL_BEYOND`` values beyond it,
    as (value, percentile)."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100
    index = len(ordered) - TAIL_BEYOND - 1
    return ordered[index], math.floor(100 * (index + 1) / len(ordered))


def user_metrics(probes: dict[str, list[float]], passes: list[list[JobRun]]) -> tuple[dict, dict]:
    """What a user of the CLI sees, from the untraced passes; and facts that
    describe the run (raw times, slowness, percentile of ``job_s.tail``,
    job and check counts).

    ``setup_s``, ``wall_s``, ``cpu_s`` and ``checks_per_s`` are scaled by
    the run's slowness, the median calibration probe over
    ``CALIBRATION_REF_S``.  Jobs stopped at the cap are left unscaled:
    the cap, not the machine, set their time.
    """
    runs = [run for runs in passes for run in runs]
    job_walls = [run.wall_s for run in runs]
    tail_value, tail_pct = tail(job_walls)
    checks = [v for run in passes[0] for v in run.checks]
    decided = sum(v in DECIDED for v in checks)
    slowness = statistics.median(probes["calibration"]) / CALIBRATION_REF_S

    def total(runs: list[JobRun], field: str, scale: float) -> float:
        return sum(getattr(run, field) / (1 if run.status == "timeout" else scale) for run in runs)

    raw = {
        "setup_s": statistics.median(probes["setup"]),
        "wall_s": statistics.median(total(p, "wall_s", 1) for p in passes),
        "cpu_s": statistics.median(total(p, "cpu_s", 1) for p in passes),
    }
    wall = statistics.median(total(p, "wall_s", slowness) for p in passes)
    metrics = {
        "setup_s": raw["setup_s"] / slowness,
        "wall_s": wall,
        "cpu_s": statistics.median(total(p, "cpu_s", slowness) for p in passes),
        "checks_per_s": decided / wall,
        "decided_frac": decided / len(checks) if checks else 0.0,
        "peak_rss_mb": max(run.rss_mb for run in runs),
        "job_s.p50": statistics.median(job_walls),
        "job_s.tail": tail_value,
        "failed_frac": sum(run.failed for run in runs) / len(runs),
        "wrong": sum(run.status == "wrong" for run in runs),
    }
    facts = {
        "slowness": slowness,
        **{f"raw_{name}": value for name, value in raw.items()},
        "job_s.tail_percentile": tail_pct,
        "jobs": len(runs),
        "passes": len(passes),
        "checks": len(checks),
        "decided": decided,
    }
    return metrics, facts


def per_layer(traced: list[JobRun], untraced_wall: float, traced_wall: float) -> dict[str, float]:
    names = [tracer.span_name(m, f) for m, fs in tracer.TRACED.items() for f in fs]
    calls = dict.fromkeys(names, 0)
    self_ns = dict.fromkeys(names, 0)
    bits = dict.fromkeys(tracer.KEYED, 0)
    level = dict.fromkeys(tracer.KEYED, 0.0)
    distinct = dict.fromkeys(tracer.KEYED, 0)
    for index in range(len(traced)):
        path = OUT / "work" / f"spans-{index}.bin"
        if not path.exists():  # the job was killed at the cap
            continue
        with open(path, "rb") as handle:
            data = marshal.load(handle)
        span_names, spans = data["names"], data["spans"]
        covered = [0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        keys: dict[str, set] = {name: set() for name in tracer.KEYED}
        for i, span in enumerate(spans):
            name = span_names[span[0]]
            calls[name] += 1
            self_ns[name] += span[2] - span[1] - covered[i]
            if name in tracer.KEYED:
                keys[name].add(span[4])
                bits[name] = max(bits[name], span[5] or 0)
                level[name] = max(level[name], span[6] or 0.0)
        for name, seen in keys.items():
            distinct[name] += len(seen)
        path.unlink()

    metrics: dict[str, float] = {}
    for name in names:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_ns[name] / 1e9
    for name in tracer.KEYED:
        metrics[f"{name}.distinct_frac"] = distinct[name] / calls[name] if calls[name] else 0.0
        if name != "expressions.evaluate":
            metrics[f"{name}.bits_max"] = bits[name]
            kind = "prec_max" if name.startswith("elementary.") else "shift_max"
            metrics[f"{name}.{kind}"] = level[name]
    rungs = [r for run in traced for r in run.rungs]
    metrics["theorems.rung0_frac"] = sum(r == 0 for r in rungs) / len(rungs) if rungs else 0.0
    metrics["theorems.rung_max"] = max(rungs, default=0)
    metrics["cli.out_bytes"] = sum(len(run.stdout) for run in traced)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return metrics


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "psicert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def git_sha() -> str | None:
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def job_record(run: JobRun, pass_no: int) -> dict:
    return {
        "pass": pass_no,
        "kind": run.job.kind,
        "argv": ["python", "-m", "psicert", "--format", "json", *run.job.args],
        "exit_code": run.exit_code,
        "status": run.status,
        "verdict": run.verdict,
        "wall_s": run.wall_s,
        "cpu_s": run.cpu_s,
        "rss_mb": run.rss_mb,
        "out_bytes": len(run.stdout),
        "problems": run.problems[:5],
        "stderr_tail": run.stderr[-300:].decode(errors="replace") if run.failed else "",
    }


def load_spec() -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m for m in spec["per_layer"]},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    if not (SRC / "psicert" / "__init__.py").is_file():
        print(f"error: no psicert sources under {SRC}", file=sys.stderr)
        return 2
    try:
        import mpmath  # the oracle needs it; its version goes into the record
    except ImportError:
        print("error: the oracle needs mpmath", file=sys.stderr)
        return 2
    spec = load_spec()
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    for stale in (OUT / "work").glob("spans-*.bin"):
        stale.unlink()
    # The checker, not the jobs, reads endpoints longer than 4300 digits.
    sys.set_int_max_str_digits(0)

    jobs = workloads.jobs_for(args.workload, args.seed)
    cap = workloads.JOB_CAP_S[args.workload]
    series_orders: dict[str, int] = {}
    for job in jobs:
        if job.args[0] == "series":
            order = int(job.args[job.args.index("--order") + 1])
            series_orders[job.args[1]] = max(order, series_orders.get(job.args[1], 0))

    probe(PROBES["setup"])  # writes the bytecode cache, as any first call does
    probes: dict[str, list[float]] = {name: [] for name in PROBES}
    passes: list[list[JobRun]] = []
    walls: list[float] = []
    while True:
        runs = run_pass(jobs, traced=False, cap=cap, probes=None if passes else probes)
        passes.append(runs)
        walls.append(sum(run.wall_s for run in runs))
        if args.trace or sum(walls) + statistics.mean(walls) > args.seconds:
            break
    traced_runs: list[JobRun] = []
    if args.trace:
        traced_runs = run_pass(jobs, traced=True, cap=cap)
        traced_wall = sum(run.wall_s for run in traced_runs)
        passes_checked = passes + [traced_runs]
    else:
        passes_checked = passes
    check_started = time.perf_counter()
    check_runs(passes_checked, series_orders)
    check_s = time.perf_counter() - check_started

    metrics, facts = user_metrics(probes, passes)
    layer: dict[str, float] = {}
    if args.trace:
        layer = per_layer(traced_runs, walls[0], traced_wall)
        for name, seconds in measure_import_times().items():
            layer[f"{name}.import_s"] = seconds
    available = {**metrics, **layer}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = set(wanted) - set(available)
    if missing or (args.trace and set(layer) - set(wanted)):
        print(f"error: measured metrics do not match BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return 3
    reported = {name: available[name] for name in wanted}

    all_runs = [run for runs in passes_checked for run in runs]
    failed = sum(run.failed for run in all_runs)
    wrong = sum(run.status == "wrong" for run in all_runs)
    units = {name: m["unit"] for name, m in {**spec["end_to_end"], **spec["per_layer"]}.items()}

    print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs a pass, "
          f"untraced pass job walls {[round(w, 3) for w in walls]} s, checked in {check_s:.1f} s; "
          f"calibration {facts['slowness']:.3f}x its reference time, so bounded times are divided by it")
    for name, value in metrics.items():
        note = ""
        if f"raw_{name}" in facts:
            note = f"  (measured {facts[f'raw_{name}']:.6g} s)"
        elif name == "job_s.tail":
            note = f"  (p{facts['job_s.tail_percentile']} of {facts['jobs']} jobs)"
        elif name == "failed_frac":
            note = f"  ({sum(run.failed for p in passes for run in p)} of {facts['jobs']} jobs)"
        elif name == "decided_frac":
            note = f"  ({facts['decided']} of {facts['checks']} checks)"
        print(f"  {name:<16} {value:12.6g} {units[name]}{note}")
    for number, runs in enumerate(passes_checked):
        kind = "traced pass" if args.trace and number == len(passes_checked) - 1 else f"pass {number}"
        for run in runs:
            if run.failed:
                reason = run.problems[0] if run.problems else run.stderr[-160:].decode(errors="replace").strip()
                print(f"  failed in {kind} [{run.status}] {run.job.label}: {reason}")
    for name, value in layer.items():
        print(f"  {name:<48} {value:14.6g} {units[name]}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "job_cap_s": cap,
        "probe_samples_s": probes,
        "pass_walls_s": walls,
        "check_s": check_s,
        "metrics": metrics,
        "facts": facts,
        "per_layer": layer,
        "jobs": [job_record(run, p) for p, runs in enumerate(passes_checked) for run in runs],
    }
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))
    print(f"  record: {record_path.relative_to(ROOT)}")

    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(all_runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
