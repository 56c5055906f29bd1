"""Benchmark of the reproduction: one workload per run, timed end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1_lattice --seed 1 --seconds 24 --trace 0

The script first re-executes itself with BLAS/OpenMP threads pinned to one
and the launch instant stamped in the environment, so ``setup_s`` counts a
whole cold interpreter start.  It then builds the workload's scenario, runs
one untimed cold job as warm-up, and repeats rounds of a cold job (every program cache
emptied first) and a warm job (caches kept) until ``--seconds`` have been
measured.  ``--trace 0`` prints the end-to-end metrics (medians over the
rounds); ``--trace 1`` instead alternates untraced and traced cold jobs and
prints the per-layer metrics, writing the span tree to ``perfbench/out/``.
Every run checks the program's outputs; the last line of standard output
is the JSON result.
"""

from __future__ import annotations

import os
import sys
import time

_PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    # one string-hash layout for every run
    "PYTHONHASHSEED": "0",
    # the runtime contract layer is a test-time oracle; the benchmark
    # measures the production path and records that it was off
    "REPRO_CHECK_INVARIANTS": "0",
}
_LAUNCH = "PERFBENCH_LAUNCH_NS"

if __name__ == "__main__" and _LAUNCH not in os.environ:
    env = dict(os.environ, **_PINNED)
    env[_LAUNCH] = str(time.monotonic_ns())
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable, Dict, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("table1_lattice", "table2_algorithm1", "mc_vector", "distributed_w2")
#: every run times at least this many rounds, however long they take
MIN_ROUNDS = 3

E2E_UNITS = {
    "setup_s": "s",
    "cold_s": "s",
    "warm_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def _cpu() -> Tuple[float, float]:
    """(CPU seconds of this process plus reaped children, children alone)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    child = kids.ru_utime + kids.ru_stime
    return me.ru_utime + me.ru_stime + child, child


def _peak_rss_mb() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0


class Job:
    """One timed job: its output, wall and CPU seconds."""

    __slots__ = ("out", "wall", "cpu", "child_cpu")

    def __init__(self, fn: Callable[[], Any], prepare: Optional[Callable[[], None]]) -> None:
        if prepare is not None:
            prepare()
        gc.collect()
        c0, k0 = _cpu()
        t0 = time.perf_counter()
        self.out = fn()
        self.wall = time.perf_counter() - t0
        c1, k1 = _cpu()
        self.cpu = c1 - c0
        self.child_cpu = k1 - k0


def _environment(wl: Any) -> Dict[str, Any]:
    import numpy as np
    import scipy

    import repro.core as core
    from repro.distributions import Grid

    probe = core.TransformSolver(wl.sc.model, Grid(dt=1.0, n=8), cache=None)
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "kernel": probe.kernel,
        "requested_kernel": probe.requested_kernel,
        "invariants_checked": os.environ.get("REPRO_CHECK_INVARIANTS", "").strip().lower()
        in {"1", "true", "yes", "on"},
        "launched_pinned": os.environ.get(_LAUNCH) is not None,
    }


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


def _run(args: argparse.Namespace) -> int:
    launch_ns = int(os.environ.get(_LAUNCH, time.monotonic_ns()))
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import repro  # noqa: F401

    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS, Checks, reset_caches

    wl = WORKLOADS[args.workload](args.seed)
    wl.setup()
    setup_s = (time.monotonic_ns() - launch_ns) / 1e9

    checks = Checks()
    attempted = failed = 0
    errors: List[str] = []

    def attempt(fn: Callable[[], Any], cold: bool) -> Optional[Job]:
        """Run one job, cold (every cache emptied first, untimed) or warm."""
        nonlocal attempted, failed
        attempted += 1
        try:
            job = Job(fn, reset_caches if cold else None)
        except Exception:  # a failed operation is counted, the run goes on
            failed += 1
            errors.append(traceback.format_exc())
            print(errors[-1], file=sys.stderr)
            return None
        wl.check_job(job.out, checks)
        return job

    def warm_sample() -> Any:
        out = None
        for _ in range(wl.WARM_REPEATS):
            out = None  # hold one job's outputs at a time
            out = wl.job()
        return out

    # untimed warm-up: one cold job
    attempt(wl.job, cold=True)

    tracer = None
    if args.trace:
        from layers import install, job_metrics, trace_record
        from tracer import Tracer

        child_dir = tempfile.mkdtemp(prefix="trace-")
        tracer = Tracer(child_dir=child_dir)

    cold_jobs: List[Job] = []
    warm_jobs: List[Job] = []
    traced: List[Dict[str, float]] = []
    last_trace: Optional[Dict[str, Any]] = None
    reference: Any = None  # the latest cold job's outputs, for the final checks
    round_s: List[float] = []
    start = time.perf_counter()
    end = start + args.seconds
    while len(round_s) < MIN_ROUNDS or time.perf_counter() + _median(round_s) <= end:
        r0 = time.perf_counter()
        reference = None  # outputs pin the program's caches; hold one job's only
        job = attempt(wl.job, cold=True)
        if tracer is None:
            second = attempt(warm_sample, cold=False)
            if second is not None:
                second.wall /= wl.WARM_REPEATS
                second.cpu /= wl.WARM_REPEATS
                warm_jobs.append(second)
        else:
            from repro.core import get_default_cache
            from repro.distributions.workspace import workspace_stats

            tracer.reset()
            install(tracer)
            try:
                second = attempt(wl.job, cold=True)
            finally:
                tracer.uninstall()
            children = tracer.collect_children()
            if second is not None:
                metrics = job_metrics(
                    tracer, children, get_default_cache().stats(), workspace_stats(),
                    wl.sched_stats, second.child_cpu, second.wall,
                )
                traced.append(metrics)
                last_trace = trace_record(tracer, children, metrics)
            tracer.reset()
        if job is not None:
            cold_jobs.append(job)
            if second is not None:
                wl.check_pair(job.out, second.out, checks)
            reference, job.out = job.out, None
        if second is not None:
            second.out = None
        round_s.append(time.perf_counter() - r0)
    measured_s = time.perf_counter() - start
    peak_rss_mb = _peak_rss_mb()

    if reference is not None:
        try:
            wl.final_checks(reference, checks)
        except Exception:
            checks.expect(False, "final checks raised:\n" + traceback.format_exc())
    env = _environment(wl)
    checks.expect(not env["invariants_checked"], "REPRO_CHECK_INVARIANTS is on")

    if not cold_jobs or (tracer is None and not warm_jobs) or (tracer and not traced):
        print("no job completed; nothing to report", file=sys.stderr)
        return 1

    metrics: Dict[str, Dict[str, Any]] = {}
    if tracer is None:
        values = {
            "setup_s": setup_s,
            "cold_s": _median([j.wall for j in cold_jobs]),
            "warm_s": _median([j.wall for j in warm_jobs]),
            "cpu_s": _median([j.cpu for j in cold_jobs]),
            "peak_rss_mb": peak_rss_mb,
        }
        for name, unit in E2E_UNITS.items():
            metrics[name] = {"value": values[name], "unit": unit}
    else:
        from layers import PER_LAYER

        values = {name: _median([t[name] for t in traced]) for name in traced[0]}
        values["setup.import_s"] = import_s
        values["trace.overhead_s"] = values["trace.wall_s"] - _median(
            [j.wall for j in cold_jobs]
        )
        for name, (unit, _) in PER_LAYER.items():
            metrics[name] = {"value": values[name], "unit": unit}

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "measured_s": measured_s,
        "rounds": len(round_s),
        "description": wl.description,
        "environment": env,
        "cold_wall_s": [j.wall for j in cold_jobs],
        "warm_wall_s": [j.wall for j in warm_jobs],
        "cold_cpu_s": [j.cpu for j in cold_jobs],
        "checks_passed": checks.passed,
        "check_failures": checks.failures,
        "errors": errors,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}"
    (OUT / f"result-{stem}-trace{int(bool(args.trace))}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n"
    )
    if last_trace is not None:
        last_trace["environment"] = env
        (OUT / f"trace-{stem}.json").write_text(json.dumps(last_trace, default=str) + "\n")

    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(f"# {wl.name} seed={args.seed} rounds={len(round_s)} "
          f"checks passed={checks.passed} failed={len(checks.failures)}")
    print("# environment " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"the program's sources are missing under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # temporary files of the program (the distributed engine's throwaway
    # checkpoint stores) stay inside the checkout and go with the run
    scratch = tempfile.mkdtemp(prefix=f"tmp-{os.getpid()}-", dir=OUT)
    tempfile.tempdir = scratch
    try:
        return _run(args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
