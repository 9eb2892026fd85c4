"""The paper's evaluation: one definition per experiment, one recorded result.

Every experiment of §7 — and every ablation and validation the
reproduction adds — is *defined* once, as a function here or in
:mod:`repro.analysis.ablations` returning an :class:`ExperimentResult`.
The benches under ``benchmarks/`` only assert the shape of these results,
the CLI (``gae-repro figure5|figure6|figure7|report``) only prints them,
and ``examples/steering_scenario.py`` and the Figure 7 integration test run
the same testbed (:func:`figure7_gae`, :func:`run_figure7_job`).

The deterministic experiments (:func:`deterministic_experiments`) are
*recorded* once: ``gae-repro report --out FIGURES.json`` writes one
:meth:`ExperimentResult.to_dict` per experiment, a tier-1 test pins the
committed file to a re-run, and ``python -m repro.analysis.experiments
--write`` renders it into the generated blocks of ``EXPERIMENTS.md``
(``tools/check_docs.py`` fails when they disagree).  Figure 6 is wall-clock
and stays out of the artifact.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.analysis.figures import FigureData
from repro.analysis.latency import build_served_monitoring, measure_mean_latency_ms
from repro.analysis.metrics import summarize_errors
from repro.analysis.report import markdown_table, replace_block
from repro.clarens.server import XmlRpcServerHandle
from repro.core.estimators.history import HistoryRepository
from repro.core.estimators.runtime import RuntimeEstimator
from repro.core.steering.optimizer import SteeringPolicy
from repro.gae import build_gae
from repro.gridsim import GridBuilder, Job, JobState
from repro.gridsim.job import reset_id_counters
from repro.workloads.downey import DowneyWorkloadGenerator
from repro.workloads.generators import (
    PRIME_JOB_FREE_CPU_SECONDS,
    make_prime_count_task,
    prime_job_history_records,
)
from repro.workloads.swf import read_swf, swf_history_and_tests

_REPO_ROOT = Path(__file__).resolve().parents[3]

#: A titled table of an experiment: (title, headers, rows).
Table = Tuple[str, List[str], List[List[object]]]


def _printed(cell: object) -> object:
    """*cell* at the precision :func:`markdown_table` prints it."""
    return float(f"{cell:.4g}") if isinstance(cell, float) else cell


@dataclass
class ExperimentResult:
    """One experiment's regenerated figure, tables and asserted quantities."""

    name: str
    figure: Optional[FigureData] = None
    comparison: List[List[object]] = field(default_factory=list)  # (quantity, paper, measured)
    notes: str = ""
    tables: List[Table] = field(default_factory=list)
    #: The unrounded quantities the benches assert on; not part of the artifact.
    values: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """The JSON-safe record ``FIGURES.json`` holds.

        Numbers are stored as the tables print them (4 significant digits,
        or the row's own ``round``) and curves to 0.1, so a last-bit
        floating-point difference between interpreters cannot fail the pin.
        """
        series = self.figure.series if self.figure is not None else []
        return {
            "name": self.name,
            "notes": self.notes,
            "comparison": [[_printed(c) for c in row] for row in self.comparison],
            "tables": [
                {"title": title, "headers": list(headers),
                 "rows": [[_printed(c) for c in row] for row in rows]}
                for title, headers, rows in self.tables
            ],
            "series": [
                {"name": s.name, "x": [round(v, 1) for v in s.x],
                 "y": [round(v, 1) for v in s.y]}
                for s in series
            ],
        }

    def to_markdown(self) -> str:
        """Render the result as a markdown section."""
        parts = [f"## {self.name}\n"]
        if self.notes:
            parts.append(self.notes + "\n")
        if self.figure is not None:
            parts.append("```\n" + self.figure.render() + "```\n")
        parts.append(tables_markdown(self.to_dict()))
        return "\n".join(parts)


def tables_markdown(entry: Dict[str, Any], escape_pipes: bool = False) -> str:
    """The comparison and tables of one ``FIGURES.json`` entry as markdown."""
    parts = []
    if entry["comparison"]:
        parts.append(markdown_table(
            ["quantity", "paper", "measured"], entry["comparison"], escape_pipes
        ))
    for table in entry["tables"]:
        parts.append(f"*{table['title']}*\n")
        parts.append(markdown_table(table["headers"], table["rows"], escape_pipes))
    return "\n".join(parts)


# ----------------------------------------------------------------------
# Figure 5 — runtime-estimator accuracy
# ----------------------------------------------------------------------
#: The seeds every across-seed average is taken over.
SEEDS = (1995, 7, 21, 42, 99)
PAPER_MEAN_ERROR_PCT = 13.53


def figure5_estimator(seed: int = 1995, n_history: int = 100, n_tests: int = 20):
    """Figure 5's estimator over its synthetic Paragon history, and the test jobs."""
    history, tests = DowneyWorkloadGenerator(seed=seed).history_and_tests(n_history, n_tests)
    return RuntimeEstimator(history), tests


def run_figure5(
    seed: int = 1995,
    n_history: int = 100,
    n_tests: int = 20,
    swf: Union[str, Path, None] = None,
) -> ExperimentResult:
    """Figure 5: runtime-estimator accuracy on the Paragon trace.

    Synthetic (Downey model, *seed*) by default; *swf* names a real SWF
    trace file (e.g. SDSC-Par-1995 from the Parallel Workloads Archive)
    to split into history and test jobs instead.
    """
    if swf is not None:
        jobs = read_swf(swf, limit=n_history + 40 * n_tests)
        history, swf_tests = swf_history_and_tests(
            jobs, n_history=n_history, n_tests=n_tests
        )
        estimator = RuntimeEstimator(history)
        actuals = [t.run_time for t in swf_tests]
        specs = [t.to_task().spec for t in swf_tests]
        source = f"the SWF trace {Path(swf).name}"
    else:
        estimator, tests = figure5_estimator(seed, n_history, n_tests)
        actuals = [t.runtime_s for t in tests]
        specs = [t.to_task_spec() for t in tests]
        source = f"a synthetic SDSC Paragon trace (seed {seed})"
    estimates = [estimator.estimate(spec).value for spec in specs]
    summary = summarize_errors(actuals, estimates)
    corr = float(np.corrcoef(actuals, estimates)[0, 1])

    cases = list(range(1, len(actuals) + 1))
    figure = (
        FigureData(
            title="Figure 5: Actual & Estimated Runtimes",
            x_label="Jobs", y_label="Job Runtime (seconds)",
        )
        .add("Actual Runtime", cases, actuals)
        .add("Estimated Runtime", cases, estimates)
    )
    return ExperimentResult(
        name="Figure 5 — runtime estimator accuracy",
        figure=figure,
        comparison=[
            ["history / test jobs", f"{n_history} / {n_tests}", f"{n_history} / {n_tests}"],
            ["mean |% error|", PAPER_MEAN_ERROR_PCT, round(summary.mean_abs_pct, 2)],
            ["mean signed % error", "n/a", round(summary.mean_signed_pct, 2)],
            ["cases within ±25%", "n/a", f"{summary.within_25_pct * 100:.0f}%"],
            ["correlation", "tracks visually", round(corr, 3)],
        ],
        notes=(
            "History-based similar-task estimation (templates + mean/linear "
            f"regression) over {source}."
        ),
        values={
            "n": summary.n,
            "mean_abs_pct": summary.mean_abs_pct,
            "within_25_pct": summary.within_25_pct,
            "correlation": corr,
        },
    )


def run_figure5_seeds() -> ExperimentResult:
    """Figure 5's headline number per seed and averaged over :data:`SEEDS`."""
    errors = {seed: run_figure5(seed).values["mean_abs_pct"] for seed in SEEDS}
    mean = float(np.mean(list(errors.values())))
    return ExperimentResult(
        name="Figure 5 — accuracy across seeds",
        comparison=[
            [f"mean |% error| across {len(SEEDS)} seeds", PAPER_MEAN_ERROR_PCT, round(mean, 2)],
            ["best / worst seed", "n/a",
             f"{min(errors.values()):.1f} / {max(errors.values()):.1f}"],
        ],
        tables=[(
            "The headline number per workload seed", ["seed", "mean |% error|"],
            [[seed, round(err, 1)] for seed, err in errors.items()],
        )],
        values={"per_seed": errors, "mean": mean},
    )


# ----------------------------------------------------------------------
# Figure 7 — the steering testbed, shared by every caller
# ----------------------------------------------------------------------
#: The logical input file :func:`figure7_gae` publishes at site A for the
#: transfer-cost sweep; :func:`run_figure7_job` attaches it when present.
FIGURE7_INPUT = "input.dat"


def figure7_gae(
    site_a_load: float = 1.5,
    poll_interval_s: float = 20.0,
    slow_rate_threshold: float = 0.8,
    input_size_mb: float = 0.0,
    bandwidth_mbps: float = 100.0,
):
    """The Figure 7 testbed: loaded site A, free site B, the prime job's history.

    Site A runs at rate ``1 / (1 + site_a_load)`` (0.4 by default — the
    paper's "significant CPU load"); the estimator has seen ten 283 s runs
    of the job; the steering loop polls every *poll_interval_s* after a
    40 s grace period and moves a job running below *slow_rate_threshold*
    of its free-CPU rate to a site at least 20 % better.  A positive
    *input_size_mb* publishes the job's input file at site A, so a move
    must ship it over the *bandwidth_mbps* link.  The probes are
    noise-free, so nothing here draws from a seed.
    """
    builder = (
        GridBuilder(seed=2005)
        .site("siteA", background_load=site_a_load)
        .site("siteB", background_load=0.0)
        .link("siteA", "siteB", capacity_mbps=bandwidth_mbps, latency_s=0.05)
        .probe_noise(0.0)
    )
    if input_size_mb > 0:
        builder.file(FIGURE7_INPUT, size_mb=input_size_mb, at="siteA")
    policy = SteeringPolicy(
        poll_interval_s=poll_interval_s,
        min_elapsed_wall_s=40.0,
        slow_rate_threshold=slow_rate_threshold,
        min_improvement_factor=1.2,
    )
    history = HistoryRepository(prime_job_history_records(n=10, sigma=0.01))
    return build_gae(builder.build(), policy=policy, history=history)


def submit_pinned(gae, task, site: str) -> None:
    """Submit *task* as a one-task job whose first placement is *site*."""
    scheduler = gae.scheduler
    original = scheduler.select_site
    scheduler.select_site = lambda t, exclude=(): site
    scheduler.submit_job(Job(tasks=[task], owner=task.spec.owner))
    scheduler.select_site = original


def completion_time(grid, task_id: str) -> Optional[float]:
    """When *task_id* completed, on whichever site's pool it did; None if it has not."""
    for site in grid.sites.values():
        if site.pool.has_task(task_id) and site.pool.ad(task_id).state is JobState.COMPLETED:
            return site.pool.ad(task_id).end_time
    return None


@dataclass
class Figure7Run:
    """What one run of the steering experiment measured."""

    task: Any  # the steered Task
    steered_end: float
    shadow_end: Optional[float]
    decision_at: Optional[float]  # when the first steering action was taken
    moves: int  # successful moves
    steered_curve: List[Tuple[float, float]]  # (t, % complete)
    shadow_curve: List[Tuple[float, float]]


def run_figure7_job(gae, checkpointable: bool = False, chart: bool = False) -> Figure7Run:
    """Run the prime job on a :func:`figure7_gae` testbed until it is done.

    The job is pinned to site A for its first placement and steered from
    there.  *chart* produces what Figure 7 charts: an identical, unsteered
    shadow job is left at site A "for testing purposes", as the paper did
    (it bypasses the scheduler, hence the steering subscriber), and both
    progress curves are sampled every 20 s until 1200 s.
    """
    pools = {name: es.pool for name, es in gae.grid.execution_services.items()}
    steered = make_prime_count_task(checkpointable=checkpointable)
    if gae.grid.catalog.replicas(FIGURE7_INPUT):
        steered.spec = replace(steered.spec, input_files=(FIGURE7_INPUT,))
    submit_pinned(gae, steered, "siteA")
    shadow = make_prime_count_task() if chart else None
    if shadow is not None:
        gae.grid.execution_services["siteA"].submit_task(shadow)

    gae.start()
    steered_curve: List[Tuple[float, float]] = []
    shadow_curve: List[Tuple[float, float]] = []
    for t in map(float, range(0, 1201, 20) if chart else ()):
        gae.grid.run_until(t)
        at = pools["siteB" if pools["siteB"].has_task(steered.task_id) else "siteA"]
        steered_curve.append((t, at.status(steered.task_id).progress * 100.0))
        shadow_curve.append((t, pools["siteA"].status(shadow.task_id).progress * 100.0))
    gae.grid.run_until(6000.0)
    gae.stop()

    actions = gae.steering.actions
    return Figure7Run(
        task=steered,
        steered_end=completion_time(gae.grid, steered.task_id),
        shadow_end=completion_time(gae.grid, shadow.task_id) if shadow is not None else None,
        decision_at=actions[0].time if actions else None,
        moves=sum(1 for a in actions if a.result and a.result.ok),
        steered_curve=steered_curve,
        shadow_curve=shadow_curve,
    )


def run_figure7(
    site_a_load: float = 1.5,
    poll_interval_s: float = 20.0,
    checkpointable: bool = False,
) -> ExperimentResult:
    """Figure 7: the steering experiment with a shadow job at site A.

    *checkpointable* lets the steered job carry its progress across the
    move instead of restarting at site B.
    """
    run = run_figure7_job(
        figure7_gae(site_a_load=site_a_load, poll_interval_s=poll_interval_s),
        checkpointable=checkpointable, chart=True,
    )
    figure = (
        FigureData(
            title="Figure 7: Job Completion at different sites",
            x_label="Elapsed time (s)", y_label="Job progress (%)",
        )
        .add("Progress of the job at site A", *zip(*run.shadow_curve))
        .add("Steered job", *zip(*run.steered_curve))
        .add("283 s free-CPU reference",
             [0.0, PRIME_JOB_FREE_CPU_SECONDS], [0.0, 100.0])
    )
    return ExperimentResult(
        name="Figure 7 — autonomous steering",
        figure=figure,
        comparison=[
            ["free-CPU estimate (s)", 283, PRIME_JOB_FREE_CPU_SECONDS],
            ["steered completion (s)", "~369", round(run.steered_end, 1)],
            ["stay-at-A completion (s)", "off chart", round(run.shadow_end, 1)],
            ["move decision at (s)", "chart: ~120-170",
             round(run.decision_at, 1) if run.decision_at is not None else "n/a"],
        ],
        notes=(
            f"Site A load {site_a_load} (rate {1 / (1 + site_a_load):.2f}); steering "
            f"poll {poll_interval_s:.0f}s.  Ordering asserted by the benches: "
            "free-CPU bound < steered < stay-put."
        ),
        values={
            "steered_end": run.steered_end,
            "shadow_end": run.shadow_end,
            "decision_at": run.decision_at,
            "moves": run.moves,
        },
    )


def run_steering_policy_sweeps() -> ExperimentResult:
    """§7's "factors that must be taken into account", swept on the Figure 7 job.

    How quickly the decision is taken (poll interval, detection
    threshold), whether moving is worth it at all (site-A load), what the
    move costs (a 500 MB input over a fat or a thin pipe), and what a
    checkpointable job saves.  ``values[sweep][setting]`` is
    ``(completion time, successful moves)``.
    """

    def sweep(parameter: str, settings, **fixed) -> Dict[float, Tuple[float, int]]:
        out = {}
        for setting in settings:
            run = run_figure7_job(figure7_gae(**{parameter: setting}, **fixed))
            out[setting] = (run.steered_end, run.moves)
        return out

    def table(title: str, header: str, outcome) -> Table:
        return (title, [header, "completion (s)", "moves"],
                [[setting, round(end, 1), moves] for setting, (end, moves) in outcome.items()])

    poll = sweep("poll_interval_s", (10.0, 30.0, 60.0, 120.0, 240.0))
    threshold = sweep("slow_rate_threshold", (0.3, 0.5, 0.8, 0.95))
    load = sweep("site_a_load", (0.1, 0.3, 0.8, 1.5, 3.0))
    pipe = sweep("bandwidth_mbps", (1000.0, 1.5), input_size_mb=500.0)
    restart_end = run_figure7_job(figure7_gae()).steered_end
    checkpoint_end = run_figure7_job(figure7_gae(), checkpointable=True).steered_end
    return ExperimentResult(
        name="Figure 7 — decision speed, move cost and checkpointing",
        tables=[
            table('"The quicker the decision is taken…": completion by poll interval',
                  "poll interval (s)", poll),
            table("Completion by slow-rate threshold (site A runs at rate 0.4)",
                  "slow-rate threshold", threshold),
            table("Move-vs-stay crossover in site-A load", "site-A load", load),
            table("Transfer-cost crossover: a 500 MB input to ship",
                  "link (Mbps)", pipe),
            ('"Even quicker … if it is checkpoint-able": the steered job\'s completion',
             ["job", "completion (s)"],
             [["restarts at site B", round(restart_end, 1)],
              ["checkpointable", round(checkpoint_end, 1)]]),
        ],
        values={
            "poll": poll, "threshold": threshold, "load": load, "pipe": pipe,
            "restart_end": restart_end, "checkpoint_end": checkpoint_end,
        },
    )


# ----------------------------------------------------------------------
# Figure 6 — monitoring latency (wall-clock: not in the artifact)
# ----------------------------------------------------------------------
def run_figure6(
    client_counts: Optional[List[int]] = None, calls_per_client: int = 10
) -> ExperimentResult:
    """Figure 6: monitoring latency over real XML-RPC under concurrency.

    Hardware-dependent (real sockets and threads); every other experiment
    is fully deterministic.
    """
    counts = client_counts if client_counts is not None else [1, 2, 3, 5, 25, 50, 100]
    gae, task_ids = build_served_monitoring()
    results: Dict[int, float] = {}
    with XmlRpcServerHandle(gae.host) as handle:
        for n in counts:
            results[n] = measure_mean_latency_ms(
                handle.url, task_ids, n, calls_per_client=calls_per_client
            )
    figure = FigureData(
        title="Figure 6: Response times for queries to Job Monitoring Service",
        x_label="Number of parallel clients", y_label="Response time (ms)",
    ).add("Average Response Time", list(results), list(results.values()))
    paper = {min(results): "~10-30", max(results): "~60-70"}
    return ExperimentResult(
        name="Figure 6 — monitoring latency under concurrency",
        figure=figure,
        comparison=[
            ["clients swept", "1,2,3,5,25,50,100", ",".join(map(str, results))],
            *(
                [f"mean latency (ms) @ {n} client(s)", paper.get(n, "n/a"), round(ms, 2)]
                for n, ms in results.items()
            ),
        ],
        notes=(
            "Real threaded XML-RPC server on loopback with genuinely "
            "concurrent clients; absolute ms are hardware-dependent, the "
            "flat-then-rising shape is the reproduced result."
        ),
        values={"latency_ms": results},
    )


# ----------------------------------------------------------------------
# the artifact and the docs generated from it
# ----------------------------------------------------------------------
def deterministic_experiments() -> Dict[str, Callable[[], ExperimentResult]]:
    """``FIGURES.json`` key -> runner, for every seeded, wall-clock-free experiment."""
    from repro.analysis import ablations

    return {
        "figure5": run_figure5,
        "figure5-seeds": run_figure5_seeds,
        "figure7": run_figure7,
        "figure7-policy": run_steering_policy_sweeps,
        "estimator-ablation": ablations.run_estimator_ablation,
        "checkpoint-ablation": ablations.run_checkpoint_ablation,
        "agent-ablation": ablations.run_agent_ablation,
        "churn-robustness": ablations.run_churn_robustness,
        "queue-time-validation": ablations.run_queue_time_validation,
        "transfer-time-validation": ablations.run_transfer_time_validation,
    }


def run_experiments() -> Dict[str, ExperimentResult]:
    """Run every deterministic experiment, each from fresh task/job ids.

    The reset makes a result the same alone, in sequence, or after other
    simulations in the same process.
    """
    results = {}
    for key, runner in deterministic_experiments().items():
        reset_id_counters()
        results[key] = runner()
    return results


def write_figures(path: Union[str, Path]) -> Dict[str, ExperimentResult]:
    """Run the deterministic experiments and record them in the JSON file at *path*."""
    results = run_experiments()
    record = {key: result.to_dict() for key, result in results.items()}
    Path(path).write_text(
        json.dumps(record, indent=1, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    return results


def _block_begin(key: str) -> str:
    return (f"<!-- figures:{key}:begin (generated from FIGURES.json; "
            "python -m repro.analysis.experiments --write) -->")


def render_experiments_md(text: str) -> str:
    """*text* (``EXPERIMENTS.md``) with every ``figures:<key>`` block rendered
    from the committed ``FIGURES.json``.

    ``ValueError`` when a recorded experiment has no block or a block names
    no recorded experiment: every recorded number is shown, none is stale.
    """
    figures = json.loads((_REPO_ROOT / "FIGURES.json").read_text(encoding="utf-8"))
    unknown = set(re.findall(r"<!-- figures:([\w-]+):begin", text)) - set(figures)
    if unknown:
        raise ValueError(f"blocks for unknown experiments: {sorted(unknown)}")
    for key, entry in figures.items():
        text = replace_block(
            text, _block_begin(key), f"<!-- figures:{key}:end -->",
            tables_markdown(entry, escape_pipes=True).rstrip("\n"),
        )
    return text


def main(argv: Optional[List[str]] = None) -> int:
    """Refresh (``--write``) or print ``EXPERIMENTS.md`` with its blocks rendered."""
    args = list(sys.argv[1:] if argv is None else argv)
    page = _REPO_ROOT / "EXPERIMENTS.md"
    rendered = render_experiments_md(page.read_text(encoding="utf-8"))
    if "--write" in args:
        page.write_text(rendered, encoding="utf-8")
        print(f"refreshed generated blocks in {page}")
    else:
        print(rendered)
    return 0


if __name__ == "__main__":
    sys.exit(main())
