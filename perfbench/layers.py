"""Which program entry points the traced run wraps, and the per-layer metrics.

Span names are ``<module>.<what>`` after the program's module names.  Every
``*_s`` per-layer metric is a self time: the span's duration minus what its
child spans cover, summed over the job (and over worker processes on the
distributed workload), so the layers partition the traced job's time
instead of counting nested work twice.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, Sequence

import numpy as np

from tracer import Tracer, self_times

#: per-layer metrics: name -> (unit, better)
PER_LAYER: Dict[str, tuple] = {
    "setup.import_s": ("s", "lower"),
    "grid.discretize_s": ("s", "lower"),
    "grid.discretize_calls": ("count", "lower"),
    "workspace.fft_s": ("s", "lower"),
    "workspace.fft_calls": ("count", "lower"),
    "workspace.fft_points": ("count", "lower"),
    "workspace.spectrum_hit_ratio": ("ratio", "higher"),
    "spectral.ladder_s": ("s", "lower"),
    "spectral.corr_s": ("s", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.entries": ("count", "lower"),
    "cache.ladder_s": ("s", "lower"),
    "convolution.solver_build_s": ("s", "lower"),
    "convolution.solver_builds": ("count", "lower"),
    "convolution.lattice_s": ("s", "lower"),
    "convolution.lattice_cells": ("count", "lower"),
    "convolution.evaluate_s": ("s", "lower"),
    "convolution.evaluate_calls": ("count", "lower"),
    "optimize.self_s": ("s", "lower"),
    "algorithm1.self_s": ("s", "lower"),
    "algorithm1.iterations": ("count", "lower"),
    "vector.simulate_s": ("s", "lower"),
    "vector.events": ("count", "lower"),
    "vector.events_per_s": ("1/s", "higher"),
    "estimator.self_s": ("s", "lower"),
    "dcs.run_s": ("s", "lower"),
    "dcs.runs": ("count", "lower"),
    "resilience.self_s": ("s", "lower"),
    "distributed.tasks": ("count", "lower"),
    "distributed.retries": ("count", "lower"),
    "distributed.speculated": ("count", "lower"),
    "distributed.workers_killed": ("count", "lower"),
    "distributed.child_cpu_s": ("s", "lower"),
    "checkpoint.puts": ("count", "lower"),
    "checkpoint.put_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}

#: per-layer time metric -> the span name whose self times it sums
_SPAN_METRICS = {
    "grid.discretize_s": "grid.discretize",
    "workspace.fft_s": "workspace.fft",
    "spectral.ladder_s": "spectral.ladder",
    "spectral.corr_s": "spectral.corr",
    "cache.ladder_s": "cache.ladder",
    "convolution.solver_build_s": "convolution.solver_build",
    "convolution.lattice_s": "convolution.lattice",
    "convolution.evaluate_s": "convolution.evaluate",
    "optimize.self_s": "optimize",
    "algorithm1.self_s": "algorithm1",
    "vector.simulate_s": "vector.simulate",
    "estimator.self_s": "estimator",
    "dcs.run_s": "dcs.run",
    "resilience.self_s": "resilience",
    "checkpoint.put_s": "checkpoint.put",
}


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


def _rows(arr: Any) -> int:
    shape = np.shape(arr)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _count_rfft(t: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    t.count("workspace.fft_calls")
    t.count("workspace.fft_points", args[0].nfft * _rows(_arg(args, kwargs, 1, "rows")))


def _count_irfft(t: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    t.count("workspace.fft_calls")
    t.count("workspace.fft_points", args[0].nfft * _rows(_arg(args, kwargs, 1, "spec")))


def _counter(name: str):
    def on_call(t: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        t.count(name)

    return on_call


def _count_lattice(t: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    t.count("convolution.lattice_cells", int(np.size(result)))


def _count_algorithm1(t: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    t.count("algorithm1.iterations", result.iterations)


def _count_batch(t: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    t.count("vector.events", result.total_events())


def _bindings(module: Any, attr: str) -> List[Any]:
    """Every loaded ``repro`` module that binds the same object as
    ``module.attr`` under that name — the defining module first."""
    original = getattr(module, attr)
    owners = [module]
    for name, mod in sorted(sys.modules.items()):
        if mod is None or mod is module:
            continue
        if name != "repro" and not name.startswith("repro."):
            continue
        if getattr(mod, "__dict__", {}).get(attr) is original:
            owners.append(mod)
    return owners


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (undo with ``uninstall``)."""
    from repro import _checkpoint
    from repro.analysis import resilience
    from repro.core import algorithm1, cache, convolution, optimize
    from repro.distributed import scheduler, transport
    from repro.distributions import grid, spectral, workspace
    from repro.simulation import dcs, estimator, vector

    def fn(module: Any, attr: str, name: str, on_call=None) -> None:
        tracer.patch(_bindings(module, attr), attr, name, on_call)

    def method(cls: Any, attr: str, name: str, on_call=None) -> None:
        tracer.patch([cls], attr, name, on_call)

    fn(grid, "from_distribution", "grid.discretize", _counter("grid.discretize_calls"))
    method(workspace.FFTWorkspace, "rfft", "workspace.fft", _count_rfft)
    method(workspace.FFTWorkspace, "irfft_trunc", "workspace.fft", _count_irfft)
    fn(spectral, "extend_ladder_masses", "spectral.ladder")
    fn(spectral, "ladder_masses_at", "spectral.ladder")
    fn(spectral, "corr_weights", "spectral.corr")
    fn(cache, "extend_service_ladder", "cache.ladder")
    for attr in ("service_sum", "service_sums", "service_sums_at"):
        method(cache.SolverCache, attr, "cache.ladder")
    method(
        convolution.TransformSolver, "__init__", "convolution.solver_build",
        _counter("convolution.solver_builds"),
    )
    method(
        convolution.TransformSolver, "evaluate_lattice", "convolution.lattice",
        _count_lattice,
    )
    method(
        convolution.TransformSolver, "evaluate", "convolution.evaluate",
        _counter("convolution.evaluate_calls"),
    )
    method(optimize.TwoServerOptimizer, "optimize", "optimize")
    fn(optimize, "sweep_policies", "optimize.sweep")
    method(algorithm1.Algorithm1, "run", "algorithm1", _count_algorithm1)
    fn(vector, "simulate_batch", "vector.simulate", _count_batch)
    for attr in (
        "estimate_reliability", "estimate_qos",
        "estimate_average_execution_time", "estimate_metric",
    ):
        fn(estimator, attr, "estimator")
    method(dcs.DCSSimulator, "run", "dcs.run", _counter("dcs.runs"))
    method(resilience.ResilienceCampaign, "run", "resilience")
    method(scheduler.Scheduler, "run", "distributed.run")
    method(_checkpoint.CheckpointStore, "put", "checkpoint.put", _counter("checkpoint.puts"))
    tracer.patch_raw(transport, "worker_loop", tracer.child_entry(transport.worker_loop))


def _ratio(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def job_metrics(
    tracer: Tracer,
    children: Sequence[Dict[str, Any]],
    cache_stats: Dict[str, int],
    workspaces: Dict[Any, Dict[str, int]],
    sched_stats: Sequence[Any],
    child_cpu_s: float,
    wall_s: float,
) -> Dict[str, float]:
    """Per-layer metrics of one traced job (parent plus its workers)."""
    selfs = self_times(tracer.spans)
    counters: Dict[str, float] = dict(tracer.counters)
    caches = [cache_stats]
    spaces = list(workspaces.values())
    for child in children:
        for name, value in self_times(child["spans"]).items():
            selfs[name] = selfs.get(name, 0.0) + value
        for name, value in child["counters"].items():
            counters[name] = counters.get(name, 0.0) + value
        caches.append(child["cache"])
        spaces.extend(child["workspaces"].values())

    out: Dict[str, float] = {}
    for metric, span in _SPAN_METRICS.items():
        out[metric] = selfs.get(span, 0.0)
    for metric in (
        "grid.discretize_calls", "workspace.fft_calls", "workspace.fft_points",
        "convolution.solver_builds", "convolution.lattice_cells",
        "convolution.evaluate_calls", "algorithm1.iterations", "vector.events",
        "dcs.runs", "checkpoint.puts",
    ):
        out[metric] = float(counters.get(metric, 0.0))
    out["vector.events_per_s"] = (
        out["vector.events"] / out["vector.simulate_s"] if out["vector.simulate_s"] else 0.0
    )
    out["workspace.spectrum_hit_ratio"] = _ratio(
        sum(s["spectrum_hits"] for s in spaces), sum(s["spectrum_misses"] for s in spaces)
    )
    out["cache.hit_ratio"] = _ratio(
        sum(c["hits"] for c in caches), sum(c["misses"] for c in caches)
    )
    out["cache.entries"] = float(sum(c["entries"] for c in caches))
    out["distributed.tasks"] = float(sum(s.total for s in sched_stats))
    out["distributed.retries"] = float(sum(s.retries for s in sched_stats))
    out["distributed.speculated"] = float(sum(s.speculated for s in sched_stats))
    out["distributed.workers_killed"] = float(sum(s.workers_killed for s in sched_stats))
    out["distributed.child_cpu_s"] = child_cpu_s
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - sum(self_times(tracer.spans).values())
    return out


def trace_record(
    tracer: Tracer, children: Sequence[Dict[str, Any]], metrics: Dict[str, float]
) -> Dict[str, Any]:
    """The JSON trace of one job: span tree, counters, worker records."""
    from tracer import span_tree

    return {
        "metrics": metrics,
        "counters": dict(tracer.counters),
        "tree": span_tree(tracer.spans),
        "spans": [list(s) for s in tracer.spans],
        "workers": [
            {
                "pid": c["pid"],
                "counters": c["counters"],
                "cache": c["cache"],
                "tree": span_tree(c["spans"]),
            }
            for c in children
        ],
    }
