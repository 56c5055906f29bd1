"""The four workloads: set-up, one job, and the checks on its outputs.

Every workload drives the program only through its public entry points
(``repro.core``, ``repro.simulation``, ``repro.analysis.resilience``,
``repro.workloads``) and looks them up on the module at call time, so the
traced run's wrappers see every call.  Checks compare the program's
outputs against values computed apart from the code under test (the
``direct`` convolution kernel, Monte-Carlo simulation, plain NumPy) or
against properties the method must have.  A model outcome ``FAILED`` (the
workload lost to server failures) is a result of the paper's model, never
a failed operation.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from typing import Any, Dict, List, Tuple

import numpy as np

import repro.analysis.resilience as resilience
import repro.core as core
import repro.faults as faults
import repro.simulation as simulation
import repro.workloads as scenarios
from repro.core import Metric, ReallocationPolicy

#: two-sided normal quantile of the Monte-Carlo agreement checks (1e-5
#: two-sided): a correct program fails one such check about once in
#: 100 000 seeds, while a wrong value several standard errors away fails
Z_CHECK = 4.417

#: round-off allowed on probability bounds: FFT-based surfaces carry
#: residues of order 1e-17 around 0 (the direct kernel's clipped ones do not)
PROB_TOL = 1e-12

#: the Table I R_TM optimum (L12, L21) of the two-server Pareto-1 severe
#: scenario at the grids used here; the Monte-Carlo workloads simulate it
#: next to the no-action policy
TABLE1_RTM_OPTIMUM = (23, 0)
TWO_SERVER_POLICIES = [
    ("no_action", ReallocationPolicy.two_server(0, 0)),
    ("table1_opt", ReallocationPolicy.two_server(*TABLE1_RTM_OPTIMUM)),
]


class Checks:
    """Collects the outcome of every correctness check of a run."""

    def __init__(self) -> None:
        self.failures: List[str] = []
        self.passed = 0

    def expect(self, ok: bool, message: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(message)


def wilson(hits: int, n: int, z: float = Z_CHECK) -> Tuple[float, float]:
    """Wilson score interval for a success probability."""
    p = hits / n
    z2 = z * z
    denom = 1.0 + z2 / n
    centre = (p + z2 / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / denom
    return centre - half, centre + half


def expect_in_interval(
    checks: Checks, label: str, value: float, hits: int, n: int, slack: float
) -> None:
    lo, hi = wilson(hits, n)
    checks.expect(
        lo - slack <= value <= hi + slack,
        f"{label}: transform value {value:.6f} outside the Monte-Carlo "
        f"interval [{lo:.6f}, {hi:.6f}] widened by {slack}",
    )


def reset_caches() -> None:
    """Empty every program cache: a fresh default SolverCache, no workspaces."""
    from repro.distributions.workspace import reset_workspaces

    core.set_default_cache(core.SolverCache())
    reset_workspaces()


class Workload:
    name = ""
    #: a warm sample times this many back-to-back warm jobs and warm_s is
    #: the per-job share: millisecond-scale warm jobs are timed over about
    #: a second, long enough to span the host's speed swings (a fixed
    #: pure-Python loop alternates between two speeds 1.6x apart every few
    #: seconds on the reference host), so each sample averages them instead
    #: of landing in one
    WARM_REPEATS = 1
    #: the paper scenario and grid, recorded with every result
    description: Dict[str, Any] = {}

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self.sched_stats: List[Any] = []

    def setup(self) -> None:
        raise NotImplementedError

    def job(self) -> Any:
        raise NotImplementedError

    def check_job(self, out: Any, checks: Checks) -> None:
        """Cheap checks, run on every job's outputs."""

    def check_pair(self, cold: Any, warm: Any, checks: Checks) -> None:
        """A warm job must return what the cold one did."""

    def final_checks(self, out: Any, checks: Checks) -> None:
        """Expensive independent checks, run once per process."""


# ---------------------------------------------------------------------------
class Table1Lattice(Workload):
    name = "table1_lattice"
    WARM_REPEATS = 250
    DT = 0.1
    TBAR_STRIDE = 4
    OPT_STEP = 4
    description = {
        "scenario": "two-server/pareto1/severe, failures on",
        "dt": DT,
        "lattice": "full (L12, L21) in [0,100]x[0,50] for R_inf and R_TM",
        "optimize": f"TwoServerOptimizer step={OPT_STEP} for R_inf and R_TM",
        "tbar": f"reliable model, lattice stride {TBAR_STRIDE}",
    }

    def setup(self) -> None:
        self.sc = scenarios.two_server_scenario("pareto1", delay="severe")
        self.loads = list(self.sc.loads)
        self.deadline = float(self.sc.deadline)

    def job(self) -> Dict[str, Any]:
        m1, m2 = self.loads
        l12, l21 = list(range(m1 + 1)), list(range(m2 + 1))
        solver = core.TransformSolver.for_workload(self.sc.model, self.loads, dt=self.DT)
        r_inf = solver.evaluate_lattice(Metric.RELIABILITY, self.loads, l12, l21)
        r_tm = solver.evaluate_lattice(
            Metric.QOS, self.loads, l12, l21, deadline=self.deadline
        )
        opt = core.TwoServerOptimizer(solver)
        best_inf = opt.optimize(Metric.RELIABILITY, self.loads, step=self.OPT_STEP)
        best_tm = opt.optimize(
            Metric.QOS, self.loads, deadline=self.deadline, step=self.OPT_STEP
        )
        reliable = core.TransformSolver.for_workload(
            self.sc.reliable_model, self.loads, dt=self.DT
        )
        tbar = reliable.evaluate_lattice(
            Metric.AVG_EXECUTION_TIME, self.loads,
            l12[:: self.TBAR_STRIDE], l21[:: self.TBAR_STRIDE],
        )
        return {
            "solver": solver, "r_inf": r_inf, "r_tm": r_tm,
            "best_inf": best_inf, "best_tm": best_tm, "tbar": tbar,
        }

    def check_job(self, out: Dict[str, Any], checks: Checks) -> None:
        r_inf, r_tm, tbar = out["r_inf"], out["r_tm"], out["tbar"]
        checks.expect(
            r_inf.shape == (self.loads[0] + 1, self.loads[1] + 1)
            and r_tm.shape == r_inf.shape,
            "table1: lattice shape",
        )
        for label, surf in (("R_inf", r_inf), ("R_TM", r_tm)):
            checks.expect(
                bool(np.all(np.isfinite(surf))
                     and surf.min() >= -PROB_TOL and surf.max() <= 1.0 + PROB_TOL),
                f"table1: {label} outside [0, 1]",
            )
        checks.expect(
            bool(np.all(r_tm <= r_inf + PROB_TOL)), "table1: R_TM > R_inf in some cell"
        )
        checks.expect(
            bool(np.all(np.isfinite(tbar)) and tbar.min() > 0.0),
            "table1: T-bar surface not finite and positive",
        )
        for key, surf in (("best_inf", r_inf), ("best_tm", r_tm)):
            res = out[key]
            best = float(surf.max())
            checks.expect(
                abs(res.value - best) <= 1e-9
                and abs(float(surf[res.l12, res.l21]) - best) <= 1e-9,
                f"table1: optimizer {key} {res.policy} value {res.value} is not "
                f"the best lattice cell {best}",
            )

    def check_pair(self, cold: Any, warm: Any, checks: Checks) -> None:
        same = all(
            np.array_equal(cold[k], warm[k]) for k in ("r_inf", "r_tm", "tbar")
        ) and all(
            cold[k].policy == warm[k].policy for k in ("best_inf", "best_tm")
        )
        checks.expect(same, "table1: warm job differs from cold job")

    def final_checks(self, out: Dict[str, Any], checks: Checks) -> None:
        rng = np.random.default_rng((self.seed, 11))
        m1, m2 = self.loads
        cells = {(out["best_inf"].l12, out["best_inf"].l21),
                 (out["best_tm"].l12, out["best_tm"].l21)}
        while len(cells) < 6:
            cells.add((int(rng.integers(0, m1 + 1)), int(rng.integers(0, m2 + 1))))
        direct = core.TransformSolver(
            self.sc.model, out["solver"].grid, cache=None, kernel="direct"
        )
        worst = 0.0
        for l12, l21 in sorted(cells):
            policy = ReallocationPolicy.two_server(l12, l21)
            for metric, surf, dl in (
                (Metric.RELIABILITY, out["r_inf"], None),
                (Metric.QOS, out["r_tm"], self.deadline),
            ):
                ref = direct.evaluate(metric, self.loads, policy, deadline=dl).value
                worst = max(worst, abs(float(surf[l12, l21]) - ref))
        checks.expect(
            worst <= 1e-12,
            f"table1: spectral lattice differs from the direct kernel by {worst:.3e}",
        )
        # Monte-Carlo agreement at the R_inf optimum (vector engine)
        best = out["best_inf"]
        est = simulation.estimate_reliability(
            self.sc.model, self.loads, best.policy, 100_000,
            np.random.default_rng((self.seed, 12)), engine="vector",
        )
        expect_in_interval(
            checks, "table1: R_inf at the optimum", best.value,
            int(round(est.value * est.n_samples)), est.n_samples, slack=2e-3,
        )


# ---------------------------------------------------------------------------
class Table2Algorithm1(Workload):
    name = "table2_algorithm1"
    WARM_REPEATS = 150
    DT = 0.25
    CRITERIA = ("speed", "reliability")
    MAX_ITERATIONS = 10
    description = {
        "scenario": "five-server/pareto1/severe, failures on",
        "dt": DT,
        "job": "Algorithm1(metric=R_inf).run under the speed and reliability criteria",
        "max_iterations": MAX_ITERATIONS,
    }

    def setup(self) -> None:
        self.sc = scenarios.five_server_scenario("pareto1", delay="severe")
        self.loads = list(self.sc.loads)

    def job(self) -> List[Any]:
        return [
            core.Algorithm1(
                self.sc.model, Metric.RELIABILITY, dt=self.DT,
                max_iterations=self.MAX_ITERATIONS,
            ).run(self.loads, criterion=c)
            for c in self.CRITERIA
        ]

    def check_job(self, out: List[Any], checks: Checks) -> None:
        loads = np.asarray(self.loads)
        for crit, res in zip(self.CRITERIA, out):
            mat = np.asarray(res.policy.matrix)
            ok = (
                mat.shape == (len(loads), len(loads))
                and np.issubdtype(mat.dtype, np.integer)
                and bool((mat >= 0).all())
                and bool((np.diag(mat) == 0).all())
                and bool((mat.sum(axis=1) <= loads).all())
                and 1 <= res.iterations <= self.MAX_ITERATIONS
            )
            checks.expect(ok, f"table2: {crit} policy infeasible:\n{mat}")

    def check_pair(self, cold: Any, warm: Any, checks: Checks) -> None:
        checks.expect(
            all(
                np.array_equal(c.policy.matrix, w.policy.matrix)
                for c, w in zip(cold, warm)
            ),
            "table2: warm Algorithm 1 returned another policy than cold",
        )

    def final_checks(self, out: List[Any], checks: Checks) -> None:
        solver = core.TransformSolver.for_workload(self.sc.model, self.loads, dt=self.DT)
        for i, (crit, res) in enumerate(zip(self.CRITERIA, out)):
            value = solver.evaluate(Metric.RELIABILITY, self.loads, res.policy).value
            est = simulation.estimate_reliability(
                self.sc.model, self.loads, res.policy, 100_000,
                np.random.default_rng((self.seed, 21, i)), engine="vector",
            )
            expect_in_interval(
                checks, f"table2: R_inf of the {crit} policy", value,
                int(round(est.value * est.n_samples)), est.n_samples, slack=5e-3,
            )


# ---------------------------------------------------------------------------
class MCVector(Workload):
    name = "mc_vector"
    REPS = 100_000
    CHECK_DT = 0.1
    description = {
        "scenario": "two-server/pareto1/severe, failures on",
        "job": "vector-engine R_inf and R_TM, 1e5 replications each, for "
               f"no action and the Table I R_TM optimum {TABLE1_RTM_OPTIMUM}",
        "check_dt": CHECK_DT,
    }

    def setup(self) -> None:
        self.sc = scenarios.two_server_scenario("pareto1", delay="severe")
        self.loads = list(self.sc.loads)
        self.deadline = float(self.sc.deadline)
        self.policies = TWO_SERVER_POLICIES

    def job(self) -> Dict[Tuple[str, str], Any]:
        out = {}
        for i, (label, policy) in enumerate(self.policies):
            out[label, "r_inf"] = simulation.estimate_reliability(
                self.sc.model, self.loads, policy, self.REPS,
                np.random.default_rng((self.seed, 31, i)), engine="vector",
            )
            out[label, "r_tm"] = simulation.estimate_qos(
                self.sc.model, self.loads, policy, self.deadline, self.REPS,
                np.random.default_rng((self.seed, 32, i)), engine="vector",
            )
        return out

    def check_job(self, out: Any, checks: Checks) -> None:
        for key, est in out.items():
            checks.expect(
                est.n_samples == self.REPS and 0.0 <= est.value <= 1.0
                and est.ci_low <= est.value <= est.ci_high,
                f"mc_vector: malformed estimate {key}: {est}",
            )

    def check_pair(self, cold: Any, warm: Any, checks: Checks) -> None:
        checks.expect(
            all(cold[k].value == warm[k].value for k in cold),
            "mc_vector: same seed gave different estimates",
        )

    def final_checks(self, out: Any, checks: Checks) -> None:
        solver = core.TransformSolver.for_workload(
            self.sc.model, self.loads, dt=self.CHECK_DT
        )
        for label, policy in self.policies:
            for metric, key, dl in (
                (Metric.RELIABILITY, "r_inf", None),
                (Metric.QOS, "r_tm", self.deadline),
            ):
                value = solver.evaluate(metric, self.loads, policy, deadline=dl).value
                est = out[label, key]
                expect_in_interval(
                    checks, f"mc_vector: {key} of {label}", value,
                    int(round(est.value * est.n_samples)), est.n_samples, slack=2e-3,
                )


# ---------------------------------------------------------------------------
def live_children() -> List[int]:
    """Pids of this process's child processes that are still alive.

    Python's shared-memory resource tracker is left out: it is one helper
    process per interpreter that lives until the interpreter stops it
    (:func:`stop_resource_tracker`), not a worker.
    """
    from multiprocessing import resource_tracker

    multiprocessing.active_children()  # reaps finished multiprocessing children
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    skip = {getattr(tracker, "_pid", None)}
    pids: List[int] = []
    task_dir = f"/proc/{os.getpid()}/task"
    if os.path.isdir(task_dir):
        for tid in os.listdir(task_dir):
            try:
                with open(f"{task_dir}/{tid}/children") as fh:
                    pids.extend(int(p) for p in fh.read().split())
            except OSError:
                continue
    return [p for p in pids if p not in skip]


def stop_resource_tracker() -> None:
    """Stop and reap the shared-memory resource tracker, if one runs."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_fd", None) is not None:
        tracker._stop()


class DistributedW2(Workload):
    name = "distributed_w2"
    WORKERS = 2
    DT = 0.1
    STRIDE = 8
    INTENSITIES = (0.0, 1.0)
    CAMPAIGN_REPS = 256
    description = {
        "scenario": "two-server/pareto1/severe, failures on",
        "sweep": f"sweep_policies(R_inf, workers={WORKERS}), dt={DT}, lattice "
                 f"stride {STRIDE}: one leased task per cell",
        "campaign": f"ResilienceCampaign(FaultPlan.standard).run(workers={WORKERS}), "
                    f"intensities {list(INTENSITIES)}, {CAMPAIGN_REPS} event-engine "
                    "replications per cell, policies no action and the Table I "
                    f"R_TM optimum {TABLE1_RTM_OPTIMUM}",
    }

    def setup(self) -> None:
        self.sc = scenarios.two_server_scenario("pareto1", delay="severe")
        self.loads = list(self.sc.loads)
        self.deadline = float(self.sc.deadline)
        m1, m2 = self.loads
        self.l12s = list(range(0, m1 + 1, self.STRIDE))
        self.l21s = list(range(0, m2 + 1, self.STRIDE))
        self.policies = TWO_SERVER_POLICIES

    def job(self) -> Dict[str, Any]:
        final: Dict[str, Any] = {}

        def keep(tag: str):
            def on_stats(stats: Any) -> None:
                final[tag] = stats

            return on_stats

        solver = core.TransformSolver.for_workload(self.sc.model, self.loads, dt=self.DT)
        surface = core.sweep_policies(
            solver, Metric.RELIABILITY, self.loads, self.l12s, self.l21s,
            workers=self.WORKERS, scheduler_options={"on_stats": keep("sweep")},
        )
        campaign = resilience.ResilienceCampaign(
            self.sc.model, self.loads, self.policies,
            faults.FaultPlan.standard(seed=self.seed), self.deadline,
            n_reps=self.CAMPAIGN_REPS, seed=self.seed,
        )
        report = campaign.run(
            list(self.INTENSITIES), workers=self.WORKERS,
            scheduler_options={"on_stats": keep("campaign")},
        )
        self.sched_stats = [final[k] for k in ("sweep", "campaign") if k in final]
        return {
            "solver": solver, "surface": surface, "report": report,
            "stats": final, "children": live_children(),
        }

    def check_job(self, out: Dict[str, Any], checks: Checks) -> None:
        checks.expect(
            out["surface"].shape == (len(self.l12s), len(self.l21s)),
            "distributed: sweep surface shape",
        )
        for tag in ("sweep", "campaign"):
            stats = out["stats"].get(tag)
            checks.expect(
                stats is not None and stats.total > 0 and stats.done == stats.total,
                f"distributed: {tag} scheduler finished {stats and stats.done} of "
                f"{stats and stats.total} tasks",
            )
        cells = out["report"].cells
        checks.expect(
            len(cells) == len(self.INTENSITIES) * len(self.policies)
            and all(c.n_reps == self.CAMPAIGN_REPS for c in cells),
            "distributed: campaign cells incomplete",
        )
        checks.expect(
            not out["children"],
            f"distributed: child processes still alive after the job: {out['children']}",
        )

    def check_pair(self, cold: Any, warm: Any, checks: Checks) -> None:
        checks.expect(
            np.array_equal(cold["surface"], warm["surface"])
            and cold["report"].to_dict() == warm["report"].to_dict(),
            "distributed: repeated job gave different results",
        )

    def final_checks(self, out: Dict[str, Any], checks: Checks) -> None:
        solver = core.TransformSolver.for_workload(self.sc.model, self.loads, dt=self.DT)
        batched = solver.evaluate_lattice(
            Metric.RELIABILITY, self.loads, self.l12s, self.l21s
        )
        diff = float(np.max(np.abs(batched - out["surface"])))
        checks.expect(
            diff <= 1e-9,
            f"distributed: workers={self.WORKERS} surface differs from batched "
            f"evaluate_lattice by {diff:.3e}",
        )
        for cell in out["report"].cells:
            if cell.intensity != 0.0:
                continue
            policy = dict(self.policies)[cell.policy]
            r_inf = solver.evaluate(Metric.RELIABILITY, self.loads, policy).value
            r_tm = solver.evaluate(
                Metric.QOS, self.loads, policy, deadline=self.deadline
            ).value
            n = cell.n_reps
            expect_in_interval(
                checks, f"distributed: R_inf of {cell.policy} at intensity 0",
                r_inf, cell.n_completed, n, slack=2e-3,
            )
            expect_in_interval(
                checks, f"distributed: R_TM of {cell.policy} at intensity 0",
                r_tm, int(round(cell.r_tm * n)), n, slack=2e-3,
            )
        stop_resource_tracker()
        checks.expect(
            not live_children(), "distributed: child processes alive at exit"
        )


WORKLOADS = {
    cls.name: cls
    for cls in (Table1Lattice, Table2Algorithm1, MCVector, DistributedW2)
}
