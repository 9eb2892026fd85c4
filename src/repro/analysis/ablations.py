"""The ablations and validations the reproduction adds to the paper's §7.

Each is one function returning an
:class:`~repro.analysis.experiments.ExperimentResult`, registered in
:func:`~repro.analysis.experiments.deterministic_experiments` and asserted
on by the ``benchmarks/bench_*.py`` module of the same subject:

- estimator design choices (§6.1): method, templates, history size;
- checkpointing and flocking (§7's closing observation);
- the adaptive steering agent (§1's learned policies);
- job survival under execution-service churn (§4.2.4);
- how accurate the §6.2 queue-time and §6.3 transfer-time estimators are —
  the paper describes but never measures them.
"""

from __future__ import annotations

import statistics
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.experiments import SEEDS, ExperimentResult, completion_time, submit_pinned
from repro.analysis.metrics import summarize_errors
from repro.core.estimators.history import HistoryRepository
from repro.core.estimators.queue_time import QueueTimeEstimator, RuntimeEstimateDB
from repro.core.estimators.runtime import RuntimeEstimator
from repro.core.estimators.similarity import GreedyTemplateSearch
from repro.core.estimators.transfer_time import TransferTimeEstimator
from repro.core.steering.agent import AdaptiveSteeringAgent
from repro.core.steering.optimizer import SteeringPolicy
from repro.gae import build_gae
from repro.gridsim import GridBuilder, Job, JobState, Task, TaskSpec
from repro.gridsim.clock import Simulator
from repro.gridsim.condor import CondorPool
from repro.gridsim.execution import ExecutionService
from repro.gridsim.faults import FaultInjector
from repro.gridsim.network import IperfProbe, Link, Network
from repro.gridsim.node import LoadProfile, Node
from repro.gridsim.site import Site
from repro.workloads.downey import DowneyWorkloadGenerator
from repro.workloads.generators import (
    PRIME_JOB_FREE_CPU_SECONDS,
    make_prime_count_task,
    prime_job_history_records,
)


# ----------------------------------------------------------------------
# runtime-estimator design choices
# ----------------------------------------------------------------------
def _trace_error(estimate_fn, tests) -> float:
    actuals = [t.runtime_s for t in tests]
    return summarize_errors(actuals, [estimate_fn(t) for t in tests]).mean_abs_pct


def _estimator_error(estimator, tests) -> float:
    return _trace_error(lambda t: estimator.estimate(t.to_task_spec()).value, tests)


def _method_errors(seed: int) -> Dict[str, float]:
    history, tests = DowneyWorkloadGenerator(seed=seed).history_and_tests(100, 20)
    out = {
        method: _estimator_error(RuntimeEstimator(history, method=method), tests)
        for method in ("mean", "regression", "auto")
    }
    out["requested-hours baseline"] = _trace_error(
        lambda t: t.requested_cpu_hours * 3600.0, tests
    )
    # No templates at all: always the global history mean.
    out["no templates (global mean)"] = _estimator_error(
        RuntimeEstimator(history, ladder=((),), method="mean"), tests
    )
    search = GreedyTemplateSearch()
    ladder = search.ladder_from(search.search(history))
    out["greedy templates"] = _estimator_error(RuntimeEstimator(history, ladder=ladder), tests)
    return out


def _history_size_errors(sizes: List[int]) -> Dict[int, List[float]]:
    by_size: Dict[int, List[float]] = {}
    for seed in SEEDS:
        records = DowneyWorkloadGenerator(seed=seed).generate(max(sizes) + 200)
        test_pool = [r for r in records[max(sizes):] if r.status == "successful"]
        for size in sizes:
            history = HistoryRepository(r.to_task_record() for r in records[:size])
            seen = {r.application for r in records[:size] if r.status == "successful"}
            tests = [t for t in test_pool if t.application in seen][:20]
            if len(tests) < 10:
                continue
            by_size.setdefault(size, []).append(
                _estimator_error(RuntimeEstimator(history), tests)
            )
    return by_size


def run_estimator_ablation() -> ExperimentResult:
    """§6.1's choices on the synthetic Paragon workload, averaged over :data:`SEEDS`.

    Estimate method (mean / regression / auto) against the naive baseline
    of trusting the user's requested CPU hours; the fixed template ladder
    against the greedy Smith/Taylor/Foster search and against no templates;
    accuracy as the history grows from 10 to 400 jobs.
    """
    by_variant: Dict[str, List[float]] = {}
    for seed in SEEDS:
        for name, err in _method_errors(seed).items():
            by_variant.setdefault(name, []).append(err)
    by_size = _history_size_errors([10, 25, 50, 100, 200, 400])
    return ExperimentResult(
        name="Ablation — runtime-estimator design choices",
        tables=[
            ("Estimate method and template selection (100-job history, 20 tests)",
             ["estimator variant", "mean |%err|", "worst seed"],
             [[name, round(statistics.mean(errs), 2), round(max(errs), 2)]
              for name, errs in by_variant.items()]),
            ("Accuracy by history size", ["history size", "mean |%err|"],
             [[size, round(statistics.mean(errs), 2)] for size, errs in by_size.items()]),
        ],
        values={
            "variant_means": {n: statistics.mean(e) for n, e in by_variant.items()},
            "history_means": {s: statistics.mean(e) for s, e in by_size.items()},
        },
    )


# ----------------------------------------------------------------------
# checkpointing and flocking
# ----------------------------------------------------------------------
SITE_A_LOAD = 1.5


def _manual_move_end(move_at_s: float, checkpointable: bool) -> float:
    """Vacate at t=move_at_s from loaded A to free B; returns completion."""
    sim = Simulator()
    pool_a = CondorPool(
        sim, "A", [Node(name="a0", load_profile=LoadProfile.constant(SITE_A_LOAD))]
    )
    pool_b = CondorPool(sim, "B", [Node(name="b0")])
    task = make_prime_count_task(checkpointable=checkpointable)
    pool_a.submit(task)
    sim.run_until(move_at_s)
    ad = pool_a.vacate(task.task_id)
    pool_b.submit(task, initial_work=ad.accrued_work if checkpointable else 0.0)
    sim.run()
    return pool_b.ad(task.task_id).end_time


def _four_job_makespan(flocking: bool) -> float:
    """Four prime jobs queued at one-slot pool A; B is free."""
    builder = GridBuilder(seed=3).site("A", background_load=0.0).site("B", background_load=0.0)
    if flocking:
        builder.flock("A", "B")
    grid = builder.build()
    tasks = [make_prime_count_task() for _ in range(4)]
    for t in tasks:
        grid.execution_services["A"].submit_task(t)
    grid.run()
    return max(completion_time(grid, t.task_id) for t in tasks)


def run_checkpoint_ablation() -> ExperimentResult:
    """Restart-from-zero against checkpointed moves, by the moment of the move.

    The later the move, the more work a restart throws away, so
    checkpointing's advantage grows linearly — and flocking lets queued
    work drain to the free pool without steering at all.
    """
    rows, advantage = [], []
    for move_at in (30.0, 100.0, 200.0, 400.0):
        plain = _manual_move_end(move_at, checkpointable=False)
        ckpt = _manual_move_end(move_at, checkpointable=True)
        rows.append([move_at, round(plain, 1), round(ckpt, 1), round(plain - ckpt, 1)])
        advantage.append(plain - ckpt)
    stay = PRIME_JOB_FREE_CPU_SECONDS * (1 + SITE_A_LOAD)
    late = _manual_move_end(500.0, checkpointable=True)
    flock, plain = _four_job_makespan(True), _four_job_makespan(False)
    return ExperimentResult(
        name="Ablation — checkpointing and flocking",
        tables=[
            ("Completion by move time (site A at rate 0.4, site B free)",
             ["move at (s)", "restart completion", "checkpoint completion", "saved (s)"],
             rows),
            ("A late checkpointed move still beats staying", ["choice", "completion (s)"],
             [["stay at site A", round(stay, 1)],
              ["checkpointed move at 500 s", round(late, 1)]]),
            ("Four queued jobs, no steering", ["pools", "makespan (s)"],
             [["A flocks to B", round(flock, 1)], ["A alone", round(plain, 1)]]),
        ],
        values={
            "advantage": advantage, "stay_end": stay, "late_move_end": late,
            "flock_makespan": flock, "plain_makespan": plain,
        },
    )


# ----------------------------------------------------------------------
# the adaptive steering agent
# ----------------------------------------------------------------------
def _agent_gae(policy):
    grid = (
        GridBuilder(seed=21)
        .site("busy", background_load=1.5)
        .site("idle", nodes=4, background_load=0.0)
        .probe_noise(0.0)
        .build()
    )
    history = HistoryRepository(prime_job_history_records(n=8, sigma=0.01))
    gae = build_gae(grid, policy=policy, history=history)
    gae.add_user("expert", "pw")
    return gae


def _submit_to_busy(gae):
    task = make_prime_count_task(owner="expert")
    submit_pinned(gae, task, "busy")
    return task


def _mean_completion(policy) -> float:
    """Mean completion time of three jobs submitted to the busy site."""
    gae = _agent_gae(policy or SteeringPolicy(auto_move=False, min_elapsed_wall_s=1e9))
    tasks = [_submit_to_busy(gae) for _ in range(3)]
    if policy is not None:
        gae.start()
    gae.grid.run_until(30000.0)
    if policy is not None:
        gae.stop()
    ends = [completion_time(gae.grid, t.task_id) for t in tasks]
    assert None not in ends, "every job must have completed somewhere"
    return sum(ends) / len(ends)


def _learn_policy():
    """Train the agent on two manual expert moves, return its policy."""
    gae = _agent_gae(SteeringPolicy(auto_move=False, min_elapsed_wall_s=1e9))
    agent = AdaptiveSteeringAgent(min_observations=2)
    gae.steering.attach_agent(agent)
    client = gae.client("expert", "pw")
    for _ in range(2):
        task = _submit_to_busy(gae)
        gae.grid.run_until(gae.sim.now + 100.0)
        client.service("steering").move(task.task_id, "idle")
    return replace(agent.recommended_policy(), auto_move=True)


def run_agent_ablation() -> ExperimentResult:
    """No steering, the shipped policy, and a policy learned from two expert moves.

    Three jobs land on a loaded site under each regime.  The learned
    policy should recover most of the default policy's advantage —
    watching experts is enough to bootstrap automation, the paper's §1
    thesis.
    """
    default = SteeringPolicy(poll_interval_s=20.0, min_elapsed_wall_s=40.0,
                             slow_rate_threshold=0.8, min_improvement_factor=1.2)
    means = {
        "no steering": _mean_completion(None),
        "default policy": _mean_completion(default),
    }
    learned = _learn_policy()
    means["learned policy"] = _mean_completion(learned)
    learned_label = (f"learned policy (thr={learned.slow_rate_threshold:.2f}, "
                     f"poll={learned.poll_interval_s:.0f}s)")
    return ExperimentResult(
        name="Ablation — the adaptive steering agent",
        tables=[(
            "Mean completion of three jobs submitted to the loaded site",
            ["regime", "mean completion (s)"],
            [[learned_label if regime == "learned policy" else regime, round(mean, 1)]
             for regime, mean in means.items()],
        )],
        values=means,
    )


# ----------------------------------------------------------------------
# throughput under execution-service churn
# ----------------------------------------------------------------------
CHURN_JOBS = 8
CHURN_WORK_S = 300.0


def _run_churn(mtbf_s: Optional[float], recovery: bool = True) -> Tuple[int, float]:
    """Returns (#completed, makespan of completed jobs)."""
    grid = (
        GridBuilder(seed=5)
        .site("a", nodes=2).site("b", nodes=2).site("c", nodes=2)
        .probe_noise(0.0)
        .build()
    )
    policy = SteeringPolicy(poll_interval_s=30.0, min_elapsed_wall_s=1e9)
    gae = build_gae(grid, policy=policy)
    gae.steering.backup_recovery.resubmit_failed_tasks = recovery

    tasks = [
        Task(spec=TaskSpec(owner="u", requested_cpu_hours=CHURN_WORK_S / 3600.0),
             work_seconds=CHURN_WORK_S)
        for _ in range(CHURN_JOBS)
    ]
    for t in tasks:
        gae.scheduler.submit_job(Job(tasks=[t], owner="u"))

    if mtbf_s is not None:
        injector = FaultInjector(gae.sim, rng=np.random.default_rng(5))
        for site in ("a", "b"):
            injector.add_site(
                gae.grid.execution_services[site], mtbf_s=mtbf_s, mttr_s=mtbf_s / 2
            )
        injector.start()

    if recovery:
        gae.start()
    gae.grid.run_until(60000.0)
    if recovery:
        gae.stop()

    ends = [completion_time(gae.grid, t.task_id) for t in tasks if t.state is JobState.COMPLETED]
    return len(ends), max(ends, default=0.0)


def run_churn_robustness() -> ExperimentResult:
    """What Backup & Recovery buys while two of three sites churn (MTBF / MTTR).

    With the sweep running every job completes and the makespan degrades
    gracefully as churn intensifies; with resubmission disabled, jobs
    stranded on crashed sites never finish.  ``values[churn]`` is
    ``(completed, makespan)``.
    """
    levels = {"none": None, "mild": 2000.0, "harsh": 500.0}
    outcome = {label: _run_churn(mtbf) for label, mtbf in levels.items()}
    done_without, _ = _run_churn(levels["harsh"], recovery=False)
    return ExperimentResult(
        name="Robustness — throughput under execution-service churn",
        tables=[
            ("With Backup & Recovery's sweep running",
             ["churn", "MTBF (s)", f"completed of {CHURN_JOBS}", "makespan (s)"],
             [[label, levels[label] or "-", done, round(makespan, 1)]
              for label, (done, makespan) in outcome.items()]),
            ("Harsh churn, with and without resubmission",
             ["Backup & Recovery", f"completed of {CHURN_JOBS}"],
             [["resubmits", outcome["harsh"][0]], ["disabled", done_without]]),
        ],
        values={**outcome, "harsh_without_recovery": done_without},
    )


# ----------------------------------------------------------------------
# queue-time (§6.2) and transfer-time (§6.3) estimator accuracy
# ----------------------------------------------------------------------
def _queue_waits(records, n_nodes: int, runtime_of):
    """Trace *records* through an *n_nodes*-slot pool: (actual waits, §6.2
    predictions, per-slot predictions), both predicted at enqueue time.

    Each job is flattened to one slot (§6.2's plain sum models single CPUs
    draining the queue) and ``runtime_of(record, task)`` is the runtime
    estimate the queue-time estimator is given for it.
    """
    sim = Simulator()
    site = Site.simple(sim, "pool", n_nodes=n_nodes)
    service = ExecutionService(site)
    db = RuntimeEstimateDB()
    qte = QueueTimeEstimator(db, fallback_runtime_s=None)
    ads, plain, per_slot = [], [], []
    for record in records:
        task = record.to_task()
        task.spec = replace(task.spec, nodes=1)
        service.submit_task(task)
        db.record(task.task_id, runtime_of(record, task))
        plain.append(qte.estimate(service, task.task_id))
        per_slot.append(qte.estimate(service, task.task_id, per_slot=True))
        ads.append(site.pool.ad(task.task_id))
    sim.run()
    return [ad.start_time - ad.submit_time for ad in ads], plain, per_slot


def _one_slot_waits(n_jobs: int = 40) -> Tuple[List[float], List[float]]:
    """(actual, predicted) waits on a one-slot pool, runtimes from the Figure 5 estimator."""
    gen = DowneyWorkloadGenerator(seed=1995)
    estimator = RuntimeEstimator(gen.history_and_tests(100, 5)[0])
    records = [r for r in gen.generate(3 * n_jobs) if r.status == "successful"][:n_jobs]
    return _queue_waits(records, 1, lambda _r, task: estimator.estimate(task.spec).value)[:2]


def _eight_slot_ratios() -> Tuple[float, float]:
    """Median predicted/actual wait on an 8-slot pool: plain sum, per-slot."""
    records = [
        r for r in DowneyWorkloadGenerator(seed=9).generate(120) if r.status == "successful"
    ][:60]
    waits = _queue_waits(records, 8, lambda r, _task: max(1.0, r.runtime_s))  # oracle estimates
    waited = [(a, p, s) for a, p, s in zip(*waits) if a > 60.0]
    assert len(waited) >= 10
    return (float(np.median([p / a for a, p, s in waited])),
            float(np.median([s / a for a, p, s in waited])))


def run_queue_time_validation() -> ExperimentResult:
    """§6.2 predictions at enqueue time against the waits the simulator produces.

    A Paragon-trace batch on a one-slot pool — the case the paper's plain
    sum of remaining runtimes models — and, on an 8-slot pool, the plain
    sum against the per-slot extension.
    """
    actual, predicted = _one_slot_waits()
    # Drop the zero-wait head-of-queue jobs (percentage error undefined).
    acts, preds = zip(*((a, p) for a, p in zip(actual, predicted) if a > 60.0))
    summary = summarize_errors(list(acts), list(preds))
    corr = float(np.corrcoef(acts, preds)[0, 1])
    plain_ratio, slot_ratio = _eight_slot_ratios()
    return ExperimentResult(
        name="Validation — queue-time estimator (§6.2)",
        tables=[
            (f"Predicted vs actual wait over {len(acts)} queued jobs (one-slot pool)",
             ["quantity", "value"],
             [["mean |% error|", round(summary.mean_abs_pct, 1)],
              ["median |% error|", round(summary.median_abs_pct, 1)],
              ["correlation", round(corr, 3)]]),
            ("Median predicted / actual wait on an 8-slot pool (oracle runtimes)",
             ["estimate", "ratio"],
             [["§6.2 plain sum", round(plain_ratio, 1)],
              ["per-slot extension", round(slot_ratio, 2)]]),
        ],
        values={
            "n_queued": len(acts), "mean_abs_pct": summary.mean_abs_pct,
            "correlation": corr, "predicted_20_jobs": _one_slot_waits(n_jobs=20)[1],
            "plain_ratio": plain_ratio, "slot_ratio": slot_ratio,
        },
    )


def _transfer_error(sizes, noise_sigma: float, probe_seed: int, latency_s: float,
                    window: int = 1) -> float:
    """Mean |% error| of §6.3 predictions for transfers of *sizes* MB over a 100 Mbps link."""
    net = Network()
    net.add_link(Link("src", "dst", capacity_mbps=100.0, latency_s=latency_s))
    probe = IperfProbe(net, rng=np.random.default_rng(probe_seed), noise_sigma=noise_sigma)
    estimator = TransferTimeEstimator(probe, smoothing_window=window)
    predicted = [estimator.estimate("src", "dst", size).transfer_time_s for size in sizes]
    actual = [net.transfer_time("src", "dst", size) for size in sizes]
    return summarize_errors(actual, predicted).mean_abs_pct


def run_transfer_time_validation() -> ExperimentResult:
    """§6.3 predictions over a noisily probed link against the network's ground truth."""
    sizes = [float(mb) for mb in np.random.default_rng(4).uniform(10.0, 2000.0, 50)]
    by_noise = {
        sigma: _transfer_error(sizes, sigma, probe_seed=3, latency_s=0.05)
        for sigma in (0.0, 0.05, 0.2)
    }
    by_window = {
        window: _transfer_error([500.0] * 60, 0.3, probe_seed=5, latency_s=0.0, window=window)
        for window in (1, 10)
    }
    return ExperimentResult(
        name="Validation — transfer-time estimator (§6.3)",
        tables=[
            ("Accuracy by probe noise (50 transfers of 10–2000 MB)",
             ["probe noise sigma", "mean |%err|"],
             [[sigma, round(err, 2)] for sigma, err in by_noise.items()]),
            ("Probe smoothing on a noisy link (sigma 0.3)",
             ["smoothing window", "mean |%err|"],
             [[window, round(err, 1)] for window, err in by_window.items()]),
        ],
        values={"by_noise": by_noise, "by_window": by_window},
    )
