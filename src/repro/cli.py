"""Command-line interface: regenerate experiments and demos from a shell.

Installed as ``gae-repro`` (or run as ``python -m repro.cli``)::

    gae-repro figure5 [--seed 1995] [--history 100] [--tests 20]
    gae-repro figure7 [--poll 20] [--load 1.5] [--checkpoint]
    gae-repro figure6 [--clients 1 2 5 25] [--calls 10]
    gae-repro trace TASK_ID [--export gae_trace_export.jsonl]
    gae-repro trace --n 200 [--seed 1995] [--out trace.csv]
    gae-repro stats [--calls 5]
    gae-repro demo [--trace-export gae_trace_export.jsonl]
    gae-repro checkpoint [--out gae_checkpoint.sqlite] [--at 205]
    gae-repro restore gae_checkpoint.sqlite [--inspect]
    gae-repro journal tail [TASK_ID] [--n 20] [--checkpoint PATH]
    gae-repro journal replay [CONSUMER ...] [--until 600]
    gae-repro scenario list
    gae-repro scenario run [NAME ...] [--quick] [--out SCENARIOS.json]
    gae-repro scenario validate [NAME ...] [--report SCENARIOS.json]
    gae-repro health [--scenario NAME] [--quick] [--export telemetry.jsonl]
    gae-repro report [--out FIGURES.json]

Each figure command prints the chart and paper-vs-measured rows of one
experiment of ``repro.analysis.experiments`` — the definition the
corresponding ``benchmarks/bench_fig*.py`` module asserts on; ``report``
runs every deterministic one and records them in ``FIGURES.json``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.report import markdown_table


#: figure sub-command -> (its runner in ``repro.analysis.experiments``,
#: {runner parameter: argparse destination}).
_FIGURE_RUNNERS = {
    "figure5": ("run_figure5",
                {"seed": "seed", "n_history": "history", "n_tests": "tests", "swf": "swf"}),
    "figure6": ("run_figure6", {"client_counts": "clients", "calls_per_client": "calls"}),
    "figure7": ("run_figure7", {"site_a_load": "load", "poll_interval_s": "poll",
                                "checkpointable": "checkpoint"}),
}


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.analysis import experiments

    runner, parameters = _FIGURE_RUNNERS[args.command]
    result = getattr(experiments, runner)(
        **{name: getattr(args, dest) for name, dest in parameters.items()}
    )
    print(result.figure.render())
    print(experiments.tables_markdown(result.to_dict()))
    return 0


def _trace_from_export(task_id: str, path: str) -> int:
    """Print one job's span tree and timeline from a JSONL trace export."""
    from repro.observability import load_export, render_span_tree

    try:
        data = load_export(path)
    except FileNotFoundError:
        print(
            f"error: no trace export at {path!r}; run `gae-repro demo` first "
            f"or point --export at one",
            file=sys.stderr,
        )
        return 1
    events = [e for e in data["event"] if e.get("task_id") == task_id]
    trace_id = next((e["trace_id"] for e in events if e.get("trace_id")), None)
    if trace_id is None:
        trace_id = next(
            (s["trace_id"] for s in data["span"] if s["name"] == f"task:{task_id}"),
            None,
        )
    if trace_id is None:
        known = sorted({e["task_id"] for e in data["event"] if e.get("task_id")})
        hint = f" (export has: {', '.join(known)})" if known else ""
        print(f"error: task {task_id!r} not found in {path}{hint}", file=sys.stderr)
        return 1
    spans = [s for s in data["span"] if s["trace_id"] == trace_id]
    print(f"trace {trace_id} — {len(spans)} spans from {path}")
    print(render_span_tree(spans))
    print()
    rows = [
        [f"{e['time']:.1f}", e["type"], e.get("site") or "-", e.get("span_id") or "-"]
        for e in sorted(events, key=lambda e: (e["time"], e["seq"]))
    ]
    print(markdown_table(["t (s)", "event", "site", "span"], rows))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.task_id:
        return _trace_from_export(args.task_id, args.export)
    if args.n is None:
        print(
            "error: give a task id (lifecycle trace from an export) or "
            "--n (synthetic accounting trace)",
            file=sys.stderr,
        )
        return 2

    from repro.workloads.downey import DowneyWorkloadGenerator
    from repro.workloads.traces import write_trace_csv

    gen = DowneyWorkloadGenerator(seed=args.seed)
    records = gen.generate(args.n)
    text = write_trace_csv(records, args.out)
    if args.out:
        print(f"wrote {len(records)} accounting records to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Drive a small GAE, then print the host's call-pipeline telemetry."""
    from repro.gae import build_gae
    from repro.gridsim import GridBuilder, Job
    from repro.workloads.generators import make_prime_count_task

    grid = (
        GridBuilder(seed=args.seed)
        .site("siteA", nodes=2, background_load=0.5)
        .site("siteB", nodes=2, background_load=0.0)
        .build()
    )
    gae = build_gae(grid)
    gae.add_user("demo", "demo")
    gae.start()
    task = make_prime_count_task(owner="demo")
    gae.scheduler.submit_job(Job(tasks=[task], owner="demo"))

    with gae.client("demo", "demo") as client:
        trace = client.new_trace()
        jobmon = client.service("jobmon")
        for i in range(args.calls):
            gae.grid.run_until(60.0 * (i + 1))
            jobmon.job_info(task.task_id)
            client.batch([("monalisa.grid_weather",), ("system.ping",)])
        stats = client.call("system.stats")
        recent = client.call("system.recent_calls", 200, trace)
    gae.stop()

    rows = []
    for method in sorted(stats["latency_ms"]):
        s = stats["latency_ms"][method]
        rows.append([
            method, s["count"], s["faults"],
            round(s.get("mean_ms", 0.0), 3), round(s.get("p50_ms", 0.0), 3),
            round(s.get("p95_ms", 0.0), 3), round(s.get("p99_ms", 0.0), 3),
        ])
    print(markdown_table(
        ["method", "calls", "faults", "mean (ms)", "p50 (ms)", "p95 (ms)", "p99 (ms)"],
        rows,
    ))
    print(f"total calls: {stats['calls']}  faults: {stats['faults']}")
    print(f"trace {trace}: {len(recent)} calls in the recent-calls ring")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    """A steered job's whole life, exported as one trace.

    siteA has a single slot kept busy by a filler task, so the demo job
    flocks to siteB; it is then paused, resumed, and moved back to siteA
    via Clarens steering calls, runs to completion, and the full
    span/journal store is exported as JSONL for ``gae-repro trace``.
    """
    from repro import GridBuilder, Job, build_gae, make_prime_count_task
    from repro.core.steering.optimizer import SteeringPolicy
    from repro.observability import export_observability

    grid = (
        GridBuilder(seed=args.seed)
        .site("siteA", nodes=1, background_load=0.0)
        .site("siteB", nodes=2, background_load=0.0)
        .link("siteA", "siteB", capacity_mbps=622.0, latency_s=0.05)
        .flock("siteA", "siteB")
        .probe_noise(0.0)
        .build()
    )
    # Manual steering only: the demo narrates its own pause/resume/move.
    gae = build_gae(grid, policy=SteeringPolicy(auto_move=False))
    gae.add_user("demo", "demo")
    gae.start()

    filler = make_prime_count_task(owner="demo", work_seconds=240.0)
    gae.grid.execution_services["siteA"].submit_task(filler)
    task = make_prime_count_task(owner="demo", checkpointable=True)
    original = gae.scheduler.select_site
    gae.scheduler.select_site = lambda t, exclude=(): "siteA"
    plan = gae.scheduler.submit_job(Job(tasks=[task], owner="demo"))
    gae.scheduler.select_site = original
    print(f"scheduled {task.task_id} on {plan.site_for(task.task_id)} "
          f"(flocks to siteB while the filler occupies siteA)")

    client = gae.client("demo", "demo")
    jobmon = client.service("jobmon")
    steering = client.service("steering")

    def show(t: float) -> None:
        gae.grid.run_until(t)
        info = jobmon.job_info(task.task_id)
        print(f"t={t:5.0f}s {info['status']:<10} {info['progress'] * 100:5.1f}% "
              f"at {info['site'] or '-'}")

    show(60.0)
    steering.pause(task.task_id)
    print("steering.pause issued")
    show(120.0)
    steering.resume(task.task_id)
    print("steering.resume issued")
    show(250.0)  # the filler finished at t=240, freeing siteA's slot
    steering.move(task.task_id, "siteA")
    print("steering.move to siteA issued")
    show(900.0)
    gae.stop()

    out_path = args.trace_export
    rows = export_observability(
        out_path, gae.observability.tracer, gae.observability.journal,
        sim_now=gae.sim.now,
    )
    print(f"exported {rows} observability rows to {out_path}")
    print(f"inspect with: gae-repro trace {task.task_id} --export {out_path}")
    return 0


def checkpoint_demo_workload(seed: int = 11, tasks: int = 6):
    """A deterministic two-site GAE with an in-flight bag-of-tasks job.

    Shared by ``gae-repro checkpoint``/``restore`` and the recovery smoke
    test: a mixed-length workload that is part-completed, part-running,
    part-queued around t≈200 s, so a checkpoint taken there captures every
    interesting task state.  Returns ``(gae, job)``.
    """
    from repro.gae import build_gae
    from repro.gridsim import GridBuilder
    from repro.gridsim.job import TaskSpec, bag_of_tasks

    grid = (
        GridBuilder(seed=seed)
        .site("siteA", nodes=2, background_load=0.3)
        .site("siteB", nodes=2, background_load=1.0)
        .link("siteA", "siteB", capacity_mbps=100.0, latency_s=0.05)
        .file("input.dat", size_mb=50.0, at="siteA")
        .build()
    )
    gae = build_gae(grid, monitor_snapshot_period_s=20.0).start()
    gae.add_user("demo", "demo")
    works = [120.0 + 60.0 * (i % 7) for i in range(tasks)]
    specs = [TaskSpec(owner="demo", input_files=("input.dat",)) for _ in works]
    job = bag_of_tasks(specs, works, owner="demo")
    gae.scheduler.submit_job(job)
    return gae, job


def _task_state_rows(job) -> List[List[str]]:
    return [[t.task_id, t.state.value] for t in job.tasks]


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    """Run the demo workload and checkpoint it mid-flight."""
    from repro.store.checkpoint import Checkpointer

    gae, job = checkpoint_demo_workload(seed=args.seed, tasks=args.tasks)
    ckpt = Checkpointer(gae)
    ckpt.checkpoint_at(args.at, args.out)
    gae.sim.run_until(args.at)
    info = ckpt.last_info
    if info is None:
        print("error: checkpoint event never fired", file=sys.stderr)
        return 1
    print(f"checkpointed {info.jobs} job(s) / {info.tasks} task(s) "
          f"at t={info.time:.1f}s -> {info.path}")
    print(markdown_table(["task", "state"], _task_state_rows(job)))
    print(f"resume with: gae-repro restore {info.path}")
    return 0


def _cmd_restore(args: argparse.Namespace) -> int:
    """Restore a checkpoint and (unless --inspect) resume to completion."""
    from repro.store import CheckpointError, restore_gae

    try:
        gae = restore_gae(args.path)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    jobs = gae.scheduler.jobs()
    print(f"restored {len(jobs)} job(s) at t={gae.sim.now:.1f}s from {args.path}")
    for job in jobs:
        print(markdown_table(["task", "state"], _task_state_rows(job)))
    if args.inspect:
        return 0
    gae.sim.run_until(gae.sim.now + args.horizon)
    gae.stop()
    gae.sim.run()
    print(f"resumed to t={gae.sim.now:.1f}s")
    for job in jobs:
        print(markdown_table(["task", "state"], _task_state_rows(job)))
    return 0


def _journal_workload(args: argparse.Namespace):
    """Run the deterministic demo workload to the inspection horizon."""
    gae, job = checkpoint_demo_workload(seed=args.seed, tasks=args.tasks)
    gae.sim.run_until(args.until)
    return gae, job


def _cmd_journal_tail(args: argparse.Namespace) -> int:
    """Print the last N journal events (optionally for one task).

    Reads the journal from a checkpoint file when ``--checkpoint`` is
    given; otherwise runs the deterministic demo workload and tails its
    live journal.
    """
    if args.checkpoint:
        from repro.events.journal import EventJournal
        from repro.store.sqlite import read_store_file

        journal = EventJournal(clock=lambda: 0.0)
        try:
            journal.load_from(read_store_file(args.checkpoint))
        except Exception as exc:  # unreadable file, missing namespace, broken seq run
            print(f"error: cannot read journal from {args.checkpoint!r}: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        source = args.checkpoint
    else:
        gae, _job = _journal_workload(args)
        journal = gae.events.journal
        source = f"demo workload at t={gae.sim.now:.0f}s"

    if args.task_id:
        events = journal.events(task_id=args.task_id)
        if not events:
            known = sorted(task for task in journal.task_ids() if task)
            hint = f" (journal has: {', '.join(known[:12])})" if known else ""
            print(f"error: no events for task {args.task_id!r}{hint}",
                  file=sys.stderr)
            return 1
        total, tail = len(events), events[max(len(events) - args.n, 0):]
    else:
        total, tail = len(journal), journal.events(limit=args.n)
    from repro.events.journal import JOURNAL_SCHEMA_VERSION

    print(f"{len(tail)} of {total} event(s) from {source} "
          f"(journal schema {JOURNAL_SCHEMA_VERSION}, "
          f"head seq {journal.head_seq})")
    print(markdown_table(
        ["seq", "t (s)", "event", "task", "site", "attributes"],
        [
            [
                e.seq, f"{e.time:.1f}", e.type.value, e.task_id or "-",
                e.site or "-",
                ", ".join(f"{k}={v}" for k, v in sorted(e.attributes.items())) or "-",
            ]
            for e in tail
        ],
    ))
    return 0


def _cmd_journal_replay(args: argparse.Namespace) -> int:
    """Rebuild consumers from the journal and compare with live state.

    Runs the deterministic demo workload, then folds each named
    consumer's events back out of the journal into a twin over fresh
    stores and checks the twin's checkpoint rows are bit-identical to the
    live consumer's.  Exits 1 on any divergence — the event-sourced
    core's invariant is broken — and 2 on an unknown consumer name.
    """
    gae, _job = _journal_workload(args)
    core = gae.events
    names = args.consumers or list(core.consumers)
    unknown = [n for n in names if n not in core.consumers]
    if unknown:
        print(f"error: unknown consumer(s) {', '.join(unknown)} "
              f"(registered: {', '.join(core.consumers)})", file=sys.stderr)
        return 2
    journal = core.journal
    reports = [core.consumers[name].verify(journal) for name in names]
    print(f"journal head seq {journal.head_seq}, "
          f"{len(journal)} retained event(s)")
    print(markdown_table(
        ["consumer", "baseline", "folded", "covered", "verdict"],
        [
            [
                r["consumer"], r["baseline_seq"],
                r["events_applied"], "yes" if r["covered"] else "NO",
                "identical" if r["identical"] else "DIVERGED",
            ]
            for r in reports
        ],
    ))
    diverged = [r["consumer"] for r in reports if not r["identical"]]
    if diverged:
        print(f"DIVERGED: {', '.join(diverged)} — rebuilt state does not "
              f"match the live fold", file=sys.stderr)
        return 1
    print("all rebuilt consumers identical to live state")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import run_experiments, write_figures

    results = write_figures(args.out) if args.out else run_experiments()
    print("# GAE reproduction report\n")
    for result in results.values():
        print(result.to_markdown())
    if args.out:
        print(f"wrote {len(results)} experiments to {args.out}")
    return 0


def _resolve_scenarios(names: List[str], seed: Optional[int]):
    """Load scenarios by registry name or path, with optional seed override."""
    from repro.scenarios.registry import load_all, load_scenario
    from repro.scenarios.spec import ScenarioSpec

    specs = [load_scenario(name) for name in names] if names else load_all()
    if seed is not None:
        specs = [
            ScenarioSpec.from_dict({**spec.to_dict(), "seed": seed})
            for spec in specs
        ]
    return specs


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    """Run named scenarios and write the SCENARIOS.json verdict artifact."""
    from repro.scenarios.engine import run_campaign, write_scenarios_report
    from repro.scenarios.spec import ScenarioError

    try:
        specs = _resolve_scenarios(args.names, args.seed)
        if not specs:
            print("error: no scenarios registered under scenarios/", file=sys.stderr)
            return 2
        report = run_campaign(specs, quick=args.quick, echo=print)
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = []
    for entry in report["scenarios"]:
        for verdict in entry["slos"]:
            rows.append([
                entry["name"], verdict["slo"],
                round(verdict["value"], 2), verdict["samples"],
                "PASS" if verdict["passed"] else "FAIL",
            ])
    print(markdown_table(["scenario", "SLO", "value", "samples", "verdict"], rows))
    if args.out != "-":
        path = write_scenarios_report(report, args.out)
        print(f"wrote {path}")
    print(f"campaign: {'PASS' if report['passed'] else 'FAIL'}")
    return 0 if report["passed"] else 1


def _cmd_health(args: argparse.Namespace) -> int:
    """Run one scenario and report its health rules, live and over time.

    Watches a campaign through the health engine: runs the scenario with
    its committed (or default) rules, prints every ok→firing→resolved
    transition plus the final per-rule state, and optionally exports the
    windowed telemetry as schema-validated JSONL (``--export``).
    Exits non-zero when any rule is still firing at the horizon.
    """
    import json

    from repro.scenarios.engine import run_scenario
    from repro.scenarios.spec import ScenarioError

    captured = {}

    def on_complete(gae, entry):
        captured["snapshot"] = gae.observability.health_snapshot()
        if args.export:
            captured["rows"] = gae.observability.telemetry.export_jsonl(args.export)

    try:
        specs = _resolve_scenarios([args.scenario], args.seed)
        entry = run_scenario(specs[0], quick=args.quick, on_complete=on_complete)
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    snapshot = captured["snapshot"]
    firing = [r["name"] for r in snapshot["rules"] if r["state"] == "firing"]
    if args.json:
        print(json.dumps(
            {"scenario": entry["name"], "seed": entry["seed"],
             "quick": entry["quick"], "health": entry["health"],
             "snapshot": snapshot},
            indent=2, sort_keys=True,
        ))
    else:
        print(f"scenario {entry['name']} (seed {entry['seed']}, "
              f"quick={entry['quick']}): "
              f"{snapshot['windows_closed']} windows of "
              f"{snapshot['window_s']:.1f}s closed")
        print(markdown_table(
            ["rule", "kind", "severity", "state", "value", "evaluations"],
            [
                [
                    r["name"], r["kind"], r["severity"], r["state"],
                    "-" if r["value"] is None else round(r["value"], 3),
                    r["evaluations"],
                ]
                for r in snapshot["rules"]
            ],
        ))
        transitions = entry["health"]["transitions"]
        if transitions:
            print(markdown_table(
                ["t (s)", "rule", "to", "value"],
                [
                    [
                        round(t["time_s"], 1), t["rule"], t["to"],
                        "-" if t["value"] is None else round(t["value"], 3),
                    ]
                    for t in transitions
                ],
            ))
        else:
            print("no health transitions (every rule stayed ok)")
        print(f"firing at horizon: {', '.join(firing) or 'none'}")
    if args.export:
        # stderr so --json stdout stays a single parseable document
        print(f"exported {captured['rows']} telemetry rows to {args.export}",
              file=sys.stderr)
    return 1 if firing else 0


def _cmd_scenario_list(args: argparse.Namespace) -> int:
    """List the registered scenario library."""
    from repro.scenarios.registry import load_all

    specs = load_all()
    if not specs:
        print("no scenarios registered under scenarios/")
        return 0
    rows = [
        [
            spec.name, spec.workload.shape,
            ", ".join(dict.fromkeys(a.kind for a in spec.chaos)) or "none",
            len(spec.slos), ", ".join(spec.tags) or "-",
        ]
        for spec in specs
    ]
    print(markdown_table(["scenario", "workload", "chaos", "SLOs", "tags"], rows))
    return 0


def _cmd_scenario_validate(args: argparse.Namespace) -> int:
    """Validate scenario files and/or a SCENARIOS.json report schema."""
    from repro.scenarios.engine import ScenarioReportError, validate_scenarios_file
    from repro.scenarios.spec import ScenarioError

    status = 0
    if args.report:
        try:
            validate_scenarios_file(args.report)
            print(f"{args.report}: schema ok")
        except ScenarioReportError as exc:
            print(f"{args.report}: INVALID — {exc}", file=sys.stderr)
            status = 1
    if args.names or not args.report:
        try:
            specs = _resolve_scenarios(args.names, seed=None)
        except (ScenarioError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for spec in specs:
            slos = len(spec.slos)
            print(f"{spec.name}: ok ({spec.workload.shape} workload, "
                  f"{len(spec.chaos)} chaos action(s), {slos} SLO(s))")
    return status


def _count(text: str) -> int:
    """An argparse ``type``: a count, so a negative one is refused (exit 2)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The ``gae-repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="gae-repro",
        description="Reproduce the GAE resource-management experiments (ICPP 2005).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p5 = sub.add_parser("figure5", help="runtime-estimator accuracy (Figure 5)")
    p5.add_argument("--seed", type=int, default=1995)
    p5.add_argument("--history", type=int, default=100)
    p5.add_argument("--tests", type=int, default=20)
    p5.add_argument(
        "--swf", type=str, default=None,
        help="run on a real SWF trace file (e.g. SDSC-Par-1995 from the "
             "Parallel Workloads Archive) instead of the synthetic workload",
    )
    p5.set_defaults(func=_cmd_figure)

    p7 = sub.add_parser("figure7", help="steering experiment (Figure 7)")
    p7.add_argument("--poll", type=float, default=20.0, help="steering poll interval (s)")
    p7.add_argument("--load", type=float, default=1.5, help="site A background load")
    p7.add_argument("--checkpoint", action="store_true", help="checkpointable job")
    p7.set_defaults(func=_cmd_figure)

    p6 = sub.add_parser("figure6", help="monitoring latency under concurrency (Figure 6)")
    p6.add_argument("--clients", type=int, nargs="+", default=[1, 2, 3, 5, 25, 50, 100])
    p6.add_argument("--calls", type=int, default=10)
    p6.set_defaults(func=_cmd_figure)

    pt = sub.add_parser(
        "trace",
        help="print a job's span tree from a demo export, or generate a "
             "synthetic Paragon accounting trace (--n)",
    )
    pt.add_argument("task_id", type=str, nargs="?", default=None,
                    help="task to trace from a JSONL observability export")
    pt.add_argument("--export", type=str, default="gae_trace_export.jsonl",
                    metavar="PATH", help="observability export to read")
    pt.add_argument("--n", type=int, default=None,
                    help="emit this many synthetic accounting records instead")
    pt.add_argument("--seed", type=int, default=1995)
    pt.add_argument("--out", type=str, default=None)
    pt.set_defaults(func=_cmd_trace)

    pst = sub.add_parser(
        "stats", help="per-method call latency (p50/p95/p99) of a driven GAE host"
    )
    pst.add_argument("--seed", type=int, default=7)
    pst.add_argument("--calls", type=int, default=5,
                     help="monitoring queries to issue before reading stats")
    pst.set_defaults(func=_cmd_stats)

    pd = sub.add_parser(
        "demo", help="end-to-end GAE demo: flock, pause, move, trace export"
    )
    pd.add_argument("--seed", type=int, default=42)
    pd.add_argument("--trace-export", type=str, default="gae_trace_export.jsonl",
                    metavar="PATH", help="where to write the JSONL trace export")
    pd.set_defaults(func=_cmd_demo)

    pc = sub.add_parser(
        "checkpoint",
        help="run the demo workload and write a mid-flight checkpoint file",
    )
    pc.add_argument("--out", type=str, default="gae_checkpoint.sqlite",
                    metavar="PATH", help="checkpoint file to write")
    pc.add_argument("--seed", type=int, default=11)
    pc.add_argument("--tasks", type=int, default=6)
    pc.add_argument("--at", type=float, default=205.0,
                    help="simulated time of the checkpoint barrier (s)")
    pc.set_defaults(func=_cmd_checkpoint)

    pre = sub.add_parser(
        "restore", help="restore a checkpoint and resume the workload"
    )
    pre.add_argument("path", type=str, help="checkpoint file written by `checkpoint`")
    pre.add_argument("--horizon", type=float, default=20000.0,
                     help="how much further simulated time to run (s)")
    pre.add_argument("--inspect", action="store_true",
                     help="print the restored state without resuming")
    pre.set_defaults(func=_cmd_restore)

    pj = sub.add_parser(
        "journal",
        help="inspect the event journal and verify replayable consumers",
    )
    jsub = pj.add_subparsers(dest="journal_command", required=True)

    pjt = jsub.add_parser(
        "tail", help="print the last N journal events (optionally one task's)"
    )
    pjt.add_argument("task_id", type=str, nargs="?", default=None,
                     help="only this task's events")
    pjt.add_argument("--n", type=_count, default=20,
                     help="how many trailing events to show (0: none)")
    pjt.add_argument("--checkpoint", type=str, default=None, metavar="PATH",
                     help="read the journal from this checkpoint file instead "
                          "of running the demo workload")
    pjt.add_argument("--seed", type=int, default=11)
    pjt.add_argument("--tasks", type=int, default=6)
    pjt.add_argument("--until", type=float, default=600.0,
                     help="demo-workload horizon (s) when no --checkpoint")
    pjt.set_defaults(func=_cmd_journal_tail)

    pjr = jsub.add_parser(
        "replay",
        help="rebuild consumers from the journal and diff against live state "
             "(non-zero exit on divergence)",
    )
    pjr.add_argument("consumers", type=str, nargs="*",
                     help="consumer names (default: every registered consumer)")
    pjr.add_argument("--seed", type=int, default=11)
    pjr.add_argument("--tasks", type=int, default=6)
    pjr.add_argument("--until", type=float, default=600.0,
                     help="demo-workload horizon (s)")
    pjr.set_defaults(func=_cmd_journal_replay)

    ps = sub.add_parser(
        "scenario",
        help="declarative chaos campaigns scored against SLOs (run/list/validate)",
    )
    ssub = ps.add_subparsers(dest="scenario_command", required=True)

    psr = ssub.add_parser(
        "run", help="run scenarios and write the SCENARIOS.json verdict artifact"
    )
    psr.add_argument("names", type=str, nargs="*",
                     help="scenario names (from scenarios/) or JSON file paths; "
                          "default: every registered scenario")
    psr.add_argument("--quick", action="store_true",
                     help="apply each scenario's quick overrides (CI-sized run)")
    psr.add_argument("--seed", type=int, default=None,
                     help="override every scenario's seed")
    psr.add_argument("--out", type=str, default="SCENARIOS.json",
                     help="report path ('-' to skip writing)")
    psr.set_defaults(func=_cmd_scenario_run)

    psl = ssub.add_parser("list", help="list the registered scenario library")
    psl.set_defaults(func=_cmd_scenario_list)

    psv = ssub.add_parser(
        "validate",
        help="validate scenario files and/or a SCENARIOS.json report schema",
    )
    psv.add_argument("names", type=str, nargs="*",
                     help="scenario names or JSON file paths; default: all registered")
    psv.add_argument("--report", type=str, default=None, metavar="PATH",
                     help="also validate an existing SCENARIOS.json against its schema")
    psv.set_defaults(func=_cmd_scenario_validate)

    ph = sub.add_parser(
        "health",
        help="run a scenario and report its health-rule transitions and "
             "final states (optionally exporting windowed telemetry)",
    )
    ph.add_argument("--scenario", type=str, default="site-outage-recovery",
                    help="scenario name (from scenarios/) or JSON file path")
    ph.add_argument("--quick", action="store_true",
                    help="apply the scenario's quick overrides (CI-sized run)")
    ph.add_argument("--seed", type=int, default=None,
                    help="override the scenario's seed")
    ph.add_argument("--export", type=str, default=None, metavar="PATH",
                    help="write the windowed telemetry as JSONL "
                         "(docs/schemas/telemetry_export.schema.json)")
    ph.add_argument("--json", action="store_true",
                    help="emit the health record as JSON instead of tables")
    ph.set_defaults(func=_cmd_health)

    pr = sub.add_parser(
        "report",
        help="run every deterministic experiment: markdown to stdout, "
             "the FIGURES.json record to --out",
    )
    pr.add_argument("--out", type=str, default=None, metavar="PATH",
                    help="write the FIGURES.json record here")
    pr.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return int(args.func(args))


if __name__ == "__main__":
    raise SystemExit(main())
