"""Benchmark of the stochparity CLI: one workload per run, closed loop, one client.

Usage (from the repository root):

    python3 bench/run.py --workload solve-sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload sample --seed 1 --record      # record digests
    python3 bench/run.py --all --seed 0 --seconds 25              # every workload

A run writes its seeded inputs under `.bench_work/`, then calls
`stochparity.cli.main(argv)` in this process for each job of the
workload's fixed job list, whole passes over the list until `--seconds`
have passed. Every job's exit code and stdout are checked (checks.py).
A run whose inputs differ from the ones recorded for its seed exits 3
before timing starts, as its outputs cannot be compared.
With `--trace 0` the last stdout line holds the end-to-end metrics;
with `--trace 1` half the time runs untraced and half traced
(tracer.py), and it holds the per-layer metrics of one pass. The line
before it stamps the result with the machine and the code measured.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from importlib import metadata
from pathlib import Path

import checks
from tracer import LAYERS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Setup is timed against a reference for the same reason as jobs (below):
# each spawn importing stochparity.cli is paired with a spawn importing
# numpy and the standard modules the CLI uses, and setup_s is
# REFERENCE_SETUP_S times the median ratio of the two wall times.
SETUP_SPAWNS = 15
REFERENCE_SETUP_S = 0.13  # the reference spawn on an idle 2-vCPU Xeon guest
_REFERENCE_IMPORTS = "import argparse, fractions, json, numpy"
# On a shared host, neighbours slow this process by up to half, for seconds
# to minutes at a time. Job times are therefore scaled to a fixed reference
# speed: after every job the runner times `calibrate()`, a fixed kernel of
# exact arithmetic, and multiplies the job's time by REFERENCE_S over the
# median kernel time of the SCALE_WINDOW jobs around it. A job's latency is
# then its median scaled time over the passes run (at least MIN_PASSES).
MIN_PASSES = 3
SCALE_WINDOW = 9
REFERENCE_S = 0.0005  # calibrate() on an idle 2-vCPU Xeon guest, Python 3.11

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# per pass of the job list, so two runs of one seed give equal counts
_COUNTED = {
    "linalg.solve_linear": ("calls", "unknowns", "nnz"),
    "chains.chain_win_probability": ("calls",),
    "chains.product_chain": ("calls", "states"),
    "chains.mdp_table": ("calls", "policies"),
    "values.solve_game": ("calls", "pairs"),
    "resets.quality_table": ("calls",),
    "resets.deviation_probability": ("calls",),
    "resets.reset_transform": ("calls",),
    "game.parse_game": ("calls",),
}
_TIMED = {
    "linalg.solve_linear": ("s",),
    "chains.chain_win_probability": ("self_s",),
    "chains.product_chain": ("s",),
    "chains.mdp_table": ("self_s",),
    "values.solve_game": ("self_s",),
    "values.prune_superfluous": ("s",),
    "resets.quality_table": ("self_s",),
    "resets.deviation_probability": ("self_s",),
    "resets.reset_transform": ("self_s",),
    "simulate.estimate_value": ("self_s",),
    "simulate.simulate_deviations": ("self_s",),
    "game.parse_game": ("s",),
    "game.serialize_game": ("s",),
    "mealy.parse_strategy": ("s",),
    "mealy.validate_strategy": ("s",),
}
PER_LAYER = {
    **{f"{fn}.{c}": "count/pass" for fn, cs in _COUNTED.items() for c in cs},
    **{f"{fn}.{t}": "s/pass" for fn, ts in _TIMED.items() for t in ts},
    **{f"{layer}.self_s": "s/pass" for layer in LAYERS},
    "linalg.solve_linear.max_n": "count",
    "values.solve_game.distinct_ratio": "ratio",
    "resets.quality_table.distinct_ratio": "ratio",
    "mealy.enumerate_memoryless.yielded": "count/pass",
    "simulate.plays": "count/pass",
    "simulate.truncated": "count/pass",
    "simulate.plays_per_s": "1/s",
    "trace.jobs_per_s": "1/s",
    "trace.untraced_jobs_per_s": "1/s",
    "trace.overhead": "ratio",
}
_NOT_PER_PASS = {"linalg.solve_linear.max_n", "values.solve_game.distinct_ratio",
                 "resets.quality_table.distinct_ratio"}


class BenchError(Exception):
    """The benchmark cannot run here."""

    exit_code = 2


class InputsDiffer(BenchError):
    """The seed's inputs are not the ones its digests were recorded on."""

    exit_code = 3


def import_program():
    """Import stochparity from this checkout's src/, never from elsewhere."""
    if not (SRC / "stochparity" / "cli.py").is_file():
        raise BenchError(f"no stochparity sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import stochparity.cli

    where = Path(stochparity.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"imported stochparity from {where}, not from {SRC}")
    return stochparity.cli


def stamp() -> dict:
    """Machine and code identity; numpy's version is read without importing it."""
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "src_sha256": h.hexdigest(),
    }


def _spawn_seconds(code: str) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def measure_setup() -> float:
    """Wall time of a fresh interpreter importing stochparity.cli, at reference speed."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import stochparity.cli"
    ratios = [_spawn_seconds(code) / _spawn_seconds(_REFERENCE_IMPORTS)
              for _ in range(SETUP_SPAWNS)]
    return REFERENCE_SETUP_S * statistics.median(ratios)


def calibrate() -> float:
    """Seconds to eliminate a fixed 5x5 rational system; depends on no program code."""
    t0 = time.perf_counter()
    n = 5
    a = [[Fraction((3 * i + 5 * j) % 11 + (7 if i == j else 0), 1 + (i + 2 * j) % 4)
          for j in range(n)] + [Fraction(i + 1)] for i in range(n)]
    for c in range(n):
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return time.perf_counter() - t0


def run_job(cli, job) -> tuple:
    """(exit code or None on a traceback, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(job.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = None
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - t0
    if code is None:
        sys.stderr.write(f"traceback in {job.argv}:\n{err.getvalue()}")
    return code, out.getvalue(), elapsed


class Runner:
    """Runs passes over one job list and checks every result."""

    def __init__(self, cli, jobs, recorded=None, tracer=None):
        self.cli, self.jobs, self.recorded, self.tracer = cli, jobs, recorded, tracer
        self.first: list | None = None
        self.latencies: list[list[float]] = []  # per pass, per job
        self.scale: list[list[float]] = []  # per pass, per job
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self) -> None:
        outs, results, latencies, kernel = [], [], [], []
        for i, job in enumerate(self.jobs):
            if self.tracer is not None:
                self.tracer.start_job(i)
            code, out, seconds = run_job(self.cli, job)
            kernel.append(calibrate())
            latencies.append(seconds)
            outs.append(out)
            digest = hashlib.sha256(out.encode()).hexdigest()[: checks.DIGEST_CHARS]
            results.append((code, digest))
        self.latencies.append(latencies)
        half = SCALE_WINDOW // 2
        self.scale.append([
            REFERENCE_S / statistics.median(kernel[max(0, i - half): i + half + 1])
            for i in range(len(kernel))
        ])

        bad = {i: checks.check_job(job, code, out)
               for i, (job, (code, _), out) in enumerate(zip(self.jobs, results, outs))}
        bad = {i: why for i, why in bad.items() if why}
        bad.update(checks.check_pass(self.jobs, outs))
        if self.first is None:
            self.first = results
        else:
            bad.update({i: "differs from the first pass"
                        for i, (a, b) in enumerate(zip(results, self.first)) if a != b})
        if self.recorded is not None:
            bad.update(checks.compare_recorded(self.recorded, results))
        self.attempted += len(self.jobs)
        self.failed += len(bad) if -1 not in bad else len(self.jobs)
        for i, why in sorted(bad.items())[:5]:
            argv = self.jobs[i].argv if i >= 0 else []
            problem = f"job {i} {argv}: {why}"
            if problem not in self.problems:
                self.problems.append(problem)

    def run_for(self, seconds: float, min_passes: int = MIN_PASSES) -> None:
        """Whole passes until `seconds` have passed and `min_passes` are done."""
        t0 = time.perf_counter()
        while len(self.latencies) < min_passes or time.perf_counter() - t0 < seconds:
            self.run_pass()

    def job_latencies(self) -> list[float]:
        """Each job's median latency over the passes run, at reference speed."""
        return [
            statistics.median(t * k for t, k in zip(times, scales))
            for times, scales in zip(zip(*self.latencies), zip(*self.scale))
        ]

    def jobs_per_s(self) -> float:
        """Jobs per second over one pass at each job's median latency."""
        return len(self.jobs) / sum(self.job_latencies())


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def plays_per_pass(jobs) -> int:
    return sum(job.facts.get("samples", 0) for job in jobs if job.kind == "simulate")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 record: bool = False, limit: int | None = None) -> tuple[dict, dict]:
    """One benchmark run in this process: (result line, report)."""
    cli = import_program()
    from workloads import WORKLOADS, Inputs  # imports stochparity

    workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        setup_s = None if trace else measure_setup()
        jobs = WORKLOADS[workload](seed, Inputs(workdir))
        inputs = [checks.input_digest(job, workdir) for job in jobs]
        recorded = None if record else checks.load_recorded(workload, seed)
        if recorded is not None:
            differ = checks.compare_inputs(recorded["inputs"], inputs)
            if differ:
                raise InputsDiffer(
                    f"inputs differ from recorded in "
                    f"{checks.expected_path(workload, seed).relative_to(ROOT)}: {differ}"
                )
            recorded = recorded["jobs"]
        if limit:
            jobs, recorded = jobs[:limit], None
        if trace:
            metrics, runner, extra = _traced(cli, jobs, recorded, seconds)
        else:
            runner = Runner(cli, jobs, recorded)
            runner.run_for(seconds)
            lat = sorted(runner.job_latencies())
            rate = runner.jobs_per_s()
            metrics = {
                "setup_s": (setup_s, "s"),
                "jobs_per_s": (rate, "1/s"),
                "job_p50_ms": (1000 * nearest_rank(lat, 0.5), "ms"),
                "job_p90_ms": (1000 * nearest_rank(lat, 0.9), "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            extra = {
                "passes": len(runner.latencies),
                "job_samples": len(lat),
                "speed_vs_reference": [round(len(k) / sum(k), 3) for k in runner.scale],
            }
            plays = plays_per_pass(jobs)
            if plays:
                extra["plays_per_s"] = plays * rate / len(jobs)
        if record and runner.failed == 0:
            path = checks.save_recorded(workload, seed, inputs, runner.first)
            extra["recorded"] = str(path.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "jobs_per_pass": len(jobs),
        "digests": "recorded" if recorded is not None else "not recorded for this seed",
        "fail_frac": runner.failed / runner.attempted,
        **extra,
        "problems": runner.problems[:20],
        "stamp": stamp(),
    }
    return result, report


def _traced(cli, jobs, recorded, seconds):
    plain = Runner(cli, jobs, recorded)
    plain.run_for(seconds / 2, min_passes=1)
    tracer = Tracer()
    traced = Runner(cli, jobs, recorded, tracer)
    traced.first = plain.first  # tracing must not change any stdout
    tracer.install()
    try:
        traced.run_for(seconds / 2, min_passes=1)
    finally:
        tracer.uninstall()
    passes = len(traced.latencies)
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.problems[:0] = plain.problems

    summary = tracer.summary()
    metrics = {}
    for name, unit in PER_LAYER.items():
        value = summary.get(name, 0)
        if name not in _NOT_PER_PASS:
            value /= passes
        metrics[name] = (value, unit)
    untraced, traced_rate = plain.jobs_per_s(), traced.jobs_per_s()
    metrics["simulate.plays_per_s"] = (
        summary.get("simulate.plays", 0) / passes * untraced / len(jobs), "1/s")
    metrics["trace.jobs_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_jobs_per_s"] = (untraced, "1/s")
    metrics["trace.overhead"] = (untraced / traced_rate, "ratio")
    extra = {"passes": passes, "untraced_passes": len(plain.latencies),
             "spans": len(tracer.spans)}
    return metrics, traced, extra


def run_all(seed: int, seconds: float) -> int:
    """Each workload in a fresh interpreter; a table of every end-to-end metric."""
    from workloads import WORKLOADS

    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            status = 1
        if proc.returncode not in (0, 1) or len(lines) < 2:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            continue
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"{workload}  seed={seed}  jobs={result['attempted']}  failed={result['failed']}"
              f"  digests {report['digests']}")
        rows = dict(result["metrics"])
        rows["fail_frac"] = {"value": report["fail_frac"], "unit": "ratio"}
        if "plays_per_s" in report:
            rows["plays_per_s"] = {"value": report["plays_per_s"], "unit": "1/s"}
        for name, m in rows.items():
            print(f"  {name:<14} {m['value']:>12.4f} {m['unit']}")
        for line in report["problems"]:
            print(f"  problem: {line}")
    print(json.dumps({"stamp": stamp()}))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="solve-sweep, strategy-audit or sample")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="write expected/<workload>-<seed>.json from this run's outputs")
    p.add_argument("--all", action="store_true", help="run every workload and print a table")
    args = p.parse_args(argv)
    try:
        import_program()
        if args.all:
            return run_all(args.seed, args.seconds)
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            p.error(f"--workload must be one of {', '.join(WORKLOADS)}")
        result, report = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), record=args.record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    for line in report["problems"]:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
