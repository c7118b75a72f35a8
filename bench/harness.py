"""Closed-loop benchmark of one torusq workload, untraced or traced.

One client in one process sends the next job only after the previous one
finished and was checked.  Only the job itself is timed; making its inputs
and checking its outputs happen outside the timed region.

Untraced (``--trace 0``) the run reports the end-to-end metrics.  Their
times are rescaled to the reference host's speed (see ``hostspeed``): a
fixed probe timed before every job measures how much other tenants slowed
the host during the run.  Peak RSS leaves out the probe's own buffers.  The
wall-clock figures stay in the result file and in the printed report,
marked raw.  Traced (``--trace 1``) the run wraps the package's functions
(see ``tracer``), runs untraced and traced jobs in turn at the workload's
size, then the two smaller sizes of the sweep, then one job per size with
tracemalloc on.  Per-layer metrics: calls, busy and self time as means per
traced job at the workload's size, the median call time, the tracemalloc
peak of one call, the log-log slope of the median call time against N, and
the tracing overhead as the traced loss of jobs_per_s.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np

from hostspeed import HostProbe
from tracer import ROOT, Tracer
from workloads import TOLERANCES, WORKLOADS, within_tolerance

# The metrics BENCHMARK.json bounds.  Job-time quantiles are printed and kept
# in the result file too, but not bounded: on a shared host a run's jobs fall
# into a fast and a contended mode, and the median and tail jump between them
# with the mix, which the host probe's mean does not follow.
END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}
TIMES = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms", "job_tail_ms": "ms"}

_FULL = ("calls", "busy_s", "self_s", "p50_ms", "peak_alloc_mb", "scaling_exp")
FUNCTION_METRICS = {
    "serialize.dumps": _FULL,
    "serialize.loads": _FULL,
    "serialize.trig_from_json": ("busy_s", "self_s"),
    "serialize.sampled_to_json": ("busy_s", "self_s"),
    "serialize.sampled_from_json": ("busy_s", "self_s"),
    "serialize.operator_to_json": ("busy_s", "self_s"),
    "serialize.operator_from_json": ("busy_s", "self_s"),
    "serialize.wigner_to_json": ("busy_s", "self_s"),
    "serialize.state_from_json": ("busy_s", "self_s"),
    "cli.quantize": ("self_s",),
    "cli.dequantize": ("self_s",),
    "cli.wigner": ("self_s",),
    "cli.evolve": ("self_s",),
    "symbols.sample": _FULL,
    "symbols.delta": _FULL,
    "quantize.quantize_fourier": _FULL,
    "quantize.quantize_sampled": _FULL,
    "quantize.operator_from_reduced": _FULL,
    "wigner.wigner_state": _FULL,
    "wigner.wigner_operator": _FULL,
    "wigner.check_symmetries": ("self_s",),
    "dequantize.dequantize": _FULL,
    "moyal.moyal_product": _FULL,
    "moyal.moyal_bracket": _FULL,
    # The bracket kernel evolve_symbol calls directly, bypassing moyal_bracket.
    "moyal._bracket_grids": ("calls", "self_s"),
    "moyal.evolve_symbol": _FULL,
    "moyal.evolve_operator": _FULL,
}
LAYERS = ("cli", "serialize", "symbols", "quantize", "wigner", "dequantize", "moyal")
UNITS = {
    "calls": "count",
    "busy_s": "s",
    "self_s": "s",
    "p50_ms": "ms",
    "peak_alloc_mb": "MB",
    "scaling_exp": "1",
}


def per_layer_units() -> dict:
    """Every per-layer metric the traced run emits, mapped to its unit."""
    units = {
        f"{function}.{kind}": UNITS[kind]
        for function, kinds in FUNCTION_METRICS.items()
        for kind in kinds
    }
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({
        "serialize.bytes_out": "bytes",
        "serialize.bytes_in": "bytes",
        "moyal.evolve_symbol.rhs_ms": "ms",
        f"{ROOT}.self_s": "s",
        "trace.job_s": "s",
        "trace.overhead": "1",
    })
    units.update({name: "1" for name in TOLERANCES})
    return units


SETUP_REPEATS = 9
# The tail percentile is the highest one with at least ten jobs beyond it.
TAIL_BEYOND = 10
MIN_JOBS = 2 * TAIL_BEYOND + 1
# Every loop stops by this many seconds after start, so a run ends within
# the 180 s a run may take even when the program is far slower than today.
DEADLINE_S = 140.0
# Shares of --seconds spent by the traced run: alternating untraced and
# traced jobs at the workload's size, then each smaller size of the sweep.
PAIRED_SHARE = 0.7
SWEEP_SHARE = 0.1
SWEEP_MIN_JOBS = 3


class Run:
    """Jobs of one loop: times, verified count and worst health values."""

    def __init__(self):
        self.times: list = []
        self.failed = 0
        self.health: dict = {}

    def add(self, elapsed: float, ok: bool, health: dict) -> None:
        self.times.append(elapsed)
        self.failed += not ok
        for name, value in health.items():
            self.health[name] = max(self.health.get(name, 0.0), value)

    @property
    def busy(self) -> float:
        return sum(self.times)

    @property
    def jobs_per_s(self) -> float:
        return (len(self.times) - self.failed) / self.busy


class Bench:
    def __init__(self, workload, seed: int, seconds: float, root: Path, sizes=None):
        self.workload = workload
        self.sizes = tuple(sizes or workload.sizes)
        self.size = self.sizes[-1]
        self.seconds = seconds
        self.root = root
        self.rng = np.random.default_rng(seed)
        self.deadline = time.perf_counter() + DEADLINE_S
        self.tq = None
        self.jobs = Run()   # every job run, for attempted and failed
        self.probe = HostProbe()

    # -- import and set-up --------------------------------------------------

    def _import(self):
        for name in [m for m in sys.modules if m == "torusq" or m.startswith("torusq.")]:
            del sys.modules[name]
        tq = importlib.import_module("torusq")
        importlib.import_module("torusq.cli")
        return tq

    def set_up(self, repeats: int) -> float:
        """Median over repeats of a fresh import plus one checked warm-up job."""
        src = str(self.root / "src")
        if src not in sys.path:
            sys.path.insert(0, src)
        times = []
        for _ in range(repeats):
            self.probe.run()
            start = time.perf_counter()
            tq = self._import()
            imported = time.perf_counter() - start
            origin = Path(tq.__file__).resolve()
            if not origin.is_relative_to(Path(src).resolve()):
                raise ImportError(f"torusq was imported from {origin}, not from {src}")
            self.tq = tq
            self.workload.prepare(tq)
            elapsed, ok, health = self.job(self.size)
            self.jobs.add(elapsed, ok, health)
            times.append(imported + elapsed)
        return statistics.median(times)

    # -- jobs ---------------------------------------------------------------

    def job(self, n: int, tracer: Tracer | None = None, job_id=None) -> tuple:
        """Make, run (timed) and check one job; return (seconds, ok, health)."""
        tq, workload = self.tq, self.workload
        job = workload.make(tq, self.rng, n)
        start = time.perf_counter()
        try:
            if tracer is None:
                out = workload.run(tq, job)
            else:
                out = tracer.run_job(job_id, workload.run, tq, job)
        except (Exception, SystemExit):
            elapsed = time.perf_counter() - start
            traceback.print_exc()
            return elapsed, False, {}
        elapsed = time.perf_counter() - start
        try:
            ok, health = workload.check(tq, job, out)
        except Exception:
            traceback.print_exc()
            return elapsed, False, {}
        ok = ok and all(within_tolerance(name, value) for name, value in health.items())
        return elapsed, ok, health

    def loop(self, n: int, budget: float, min_jobs: int, tracer=None, plain=None,
             probe: bool = False) -> Run:
        """Closed loop at size n for budget wall seconds and at least min_jobs jobs.

        The budget covers making and checking inputs too, so the run's length
        does not grow when the program slows down.  With a tracer every job
        is traced; given plain as well, an untraced job into plain precedes
        each traced one, so both see the same load on the machine.  With
        probe, the host probe runs before each job.
        """
        run = Run()
        end = time.perf_counter() + budget
        while not run.times or (time.perf_counter() < end or len(run.times) < min_jobs) and (
            time.perf_counter() < self.deadline
        ):
            if probe:
                self.probe.run()
            if plain is not None:
                self._record(plain, self.job(n))
            if tracer is None:
                self._record(run, self.job(n))
            else:
                with tracer.installed():
                    self._record(run, self.job(n, tracer, f"time-N{n}-{len(run.times)}"))
        return run

    def _record(self, run: Run, result: tuple) -> None:
        run.add(*result)
        self.jobs.add(*result)

    # -- the two kinds of run -----------------------------------------------

    def untraced(self) -> tuple:
        setup_s = self.set_up(SETUP_REPEATS)
        run = self.loop(self.size, self.seconds, MIN_JOBS, probe=True)
        ordered = sorted(run.times)
        count = len(ordered)
        # With too few jobs for ten beyond any percentile, the tail is the maximum.
        beyond = TAIL_BEYOND if count > TAIL_BEYOND else 0
        tail_index = count - 1 - beyond
        raw = {
            "setup_s": setup_s,
            "jobs_per_s": run.jobs_per_s,
            "job_p50_ms": statistics.median(ordered) * 1e3,
            "job_tail_ms": ordered[tail_index] * 1e3,
        }
        speed = self.probe.speed()
        adjusted = {key: value * speed for key, value in raw.items()}
        adjusted["jobs_per_s"] = raw["jobs_per_s"] / speed
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        metrics = {
            "setup_s": adjusted["setup_s"],
            "jobs_per_s": adjusted["jobs_per_s"],
            "peak_rss_mb": (peak_rss - self.probe.resident_bytes) / 2**20,
        }
        details = {
            "adjusted": adjusted,
            "raw": raw,
            "host_speed": speed,
            "probe_runs": len(self.probe.times),
            "job_tail_percentile": 100.0 * (tail_index + 1) / count,
            "job_tail_samples": count,
            "jobs_beyond_tail": beyond,
            "timed_failed": run.failed,
            "health": self.jobs.health,
        }
        return metrics, details, True

    def traced(self, spans_path: Path) -> tuple:
        self.set_up(1)
        tracer = Tracer([name for name in FUNCTION_METRICS if not name.startswith("cli.")])
        plain = Run()
        main = self.loop(self.size, PAIRED_SHARE * self.seconds, SWEEP_MIN_JOBS, tracer, plain)
        bytes_per_job = (tracer.bytes_in / len(main.times), tracer.bytes_out / len(main.times))
        for n in self.sizes[:-1]:
            self.loop(n, SWEEP_SHARE * self.seconds, SWEEP_MIN_JOBS, tracer)
        tracer.memory = True
        tracemalloc.start()
        try:
            with tracer.installed():
                for n in self.sizes:
                    self.jobs.add(*self.job(n, tracer, f"memory-N{n}"))
        finally:
            tracemalloc.stop()
        return summarize_trace(self, tracer, plain, main, bytes_per_job, spans_path)


def _fit_exponent(sizes, values) -> float:
    points = [(n, v) for n, v in zip(sizes, values) if v is not None and v > 0]
    if len(points) < 2:
        return 0.0
    x = np.log([n for n, _ in points])
    y = np.log([v for _, v in points])
    return float(np.polyfit(x, y, 1)[0])


def summarize_trace(bench: Bench, tracer: Tracer, plain: Run, main: Run, bytes_per_job,
                    spans_path: Path) -> tuple:
    own = tracer.self_times()
    full = bench.size
    main_jobs = {f"time-N{full}-{i}" for i in range(len(main.times))}
    per_job = len(main_jobs)

    calls: dict = {}
    busy: dict = {}
    self_s: dict = {}
    durations: dict = {}        # (name, N) -> call durations of timing jobs
    peaks: dict = {}            # (name, N) -> largest tracemalloc peak
    job_total: dict = {}        # job id -> root span duration
    job_self: dict = {}         # job id -> sum of self times of its spans
    for span, own_s in zip(tracer.spans, own):
        kind, size = span.job.split("-")[0], int(span.job.split("-")[1][1:])
        if kind == "memory":
            key = (span.name, size)
            peaks[key] = max(peaks.get(key, 0), span.peak_bytes)
            continue
        durations.setdefault((span.name, size), []).append(span.end - span.start)
        if span.job not in main_jobs:
            continue
        job_self[span.job] = job_self.get(span.job, 0.0) + own_s
        if span.name == ROOT:
            job_total[span.job] = span.end - span.start
        calls[span.name] = calls.get(span.name, 0) + 1
        busy[span.name] = busy.get(span.name, 0.0) + span.end - span.start
        self_s[span.name] = self_s.get(span.name, 0.0) + own_s

    def median_ms(name, n):
        values = durations.get((name, n))
        return statistics.median(values) * 1e3 if values else None

    metrics = {}
    for function, kinds in FUNCTION_METRICS.items():
        values = {
            "calls": calls.get(function, 0) / per_job,
            "busy_s": busy.get(function, 0.0) / per_job,
            "self_s": self_s.get(function, 0.0) / per_job,
            "p50_ms": median_ms(function, full) or 0.0,
            "peak_alloc_mb": peaks.get((function, full), 0) / 2**20,
            "scaling_exp": _fit_exponent(
                bench.sizes, [median_ms(function, n) for n in bench.sizes]
            ),
        }
        metrics.update({f"{function}.{kind}": values[kind] for kind in kinds})
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            value for name, value in self_s.items() if name.split(".")[0] == layer
        ) / per_job
    steps = getattr(bench.workload, "STEPS", None)
    evolve_ms = median_ms("moyal.evolve_symbol", full)
    metrics["moyal.evolve_symbol.rhs_ms"] = evolve_ms / (4 * steps) if evolve_ms and steps else 0.0
    metrics["serialize.bytes_in"], metrics["serialize.bytes_out"] = bytes_per_job
    metrics[f"{ROOT}.self_s"] = self_s.get(ROOT, 0.0) / per_job
    metrics["trace.job_s"] = main.busy / per_job
    metrics["trace.overhead"] = 1.0 - main.jobs_per_s / plain.jobs_per_s
    for name in TOLERANCES:
        metrics[name] = bench.jobs.health.get(name, 0.0)

    # Self times partition each job: they must add up to the job's span.
    worst_gap = max(abs(job_self[job] - job_total[job]) for job in main_jobs)
    consistent = worst_gap <= 1e-9 * max(job_total.values())

    sweep = {
        function: {
            "N": list(bench.sizes),
            "p50_ms": [median_ms(function, n) for n in bench.sizes],
            "peak_alloc_mb": [
                peaks[(function, n)] / 2**20 if (function, n) in peaks else None
                for n in bench.sizes
            ],
        }
        for function in sorted({name for name, _ in durations})
    }
    details = {
        "untraced_jobs_per_s": plain.jobs_per_s,
        "traced_jobs_per_s": main.jobs_per_s,
        "traced_jobs": per_job,
        "self_time_gap_s": worst_gap,
        "sweep": sweep,
    }
    spans_path.write_text(
        json.dumps([span.as_dict(i) for i, span in enumerate(tracer.spans)]) + "\n",
        encoding="utf-8",
    )
    return metrics, details, consistent


def _git_sha(root: Path) -> str:
    """Commit of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    return {
        "git_sha": _git_sha(root),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, out_dir: Path,
        sizes=None) -> dict:
    """Run one workload and return its report; raises ImportError without torusq."""
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir))
    try:
        bench = Bench(WORKLOADS[name](workdir), seed, seconds, root, sizes)
        if trace:
            spans_path = out_dir / f"spans-{name}-seed{seed}.json"
            metrics, details, consistent = bench.traced(spans_path)
            units = per_layer_units()
        else:
            metrics, details, consistent = bench.untraced()
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(bench.jobs.times)
    failed = bench.jobs.failed
    return {
        "workload": name,
        "why": bench.workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "N": bench.size,
        "environment": environment(root),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "correct": failed == 0 and consistent,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
        "details": details,
    }


def _print_report(report: dict) -> None:
    env = report["environment"]
    print(f"workload {report['workload']} (N={report['N']}, seed {report['seed']}, "
          f"{'traced' if report['trace'] else 'untraced'}): {report['why']}")
    print("environment " + ", ".join(f"{key} {value}" for key, value in env.items()))
    for key, metric in report["metrics"].items():
        print(f"  {key:<40} {metric['value']:.6g} {metric['unit']}")
    details = report["details"]
    if not report["trace"]:
        print(f"  times not marked raw are rescaled to the reference host's speed; this "
              f"host ran at {details['host_speed']:.4g} of it "
              f"(probe timed {details['probe_runs']} times)")
        for key in ("job_p50_ms", "job_tail_ms"):
            print(f"  {key:<40} {details['adjusted'][key]:.6g} {TIMES[key]} (not bounded)")
        for key, value in details["raw"].items():
            print(f"  raw {key:<36} {value:.6g} {TIMES[key]}")
        print(f"  job_tail_ms is p{details['job_tail_percentile']:.1f} of "
              f"{details['job_tail_samples']} timed jobs")
    print(f"  failed_ratio {report['failed_ratio']:.6g} "
          f"({report['failed']} failed of {report['attempted']} attempted)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark one torusq workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    out_dir = root / ".bench_out"
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace), root, out_dir)
    except ImportError as exc:
        print(f"error: cannot import torusq from {root / 'src'}: {exc}", file=sys.stderr)
        return 2
    result_path = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    _print_report(report)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0
