#!/usr/bin/env python
"""The repo's smoke gates, one script: what CI's ``smoke`` job runs.

::

    python tools/smoke.py restore    # hard kill, then restore both orphaned files
    python tools/smoke.py scenario   # quick chaos campaign + artifact schema
    python tools/smoke.py health     # health rules fire and resolve; telemetry export
    python tools/smoke.py bench      # the end-to-end benchmark's own checks + quick runs
    python tools/smoke.py rpc        # system.stats, system.cache and /metrics tell one story
    python tools/smoke.py trace      # demo --trace-export validates against its schema
    python tools/smoke.py figures    # the paper's figure / ablation / validation benches
    python tools/smoke.py all        # every one above (< 60 s; run it before committing)

``restore`` is the kill-and-recover gate of the checkpoint layer, in three
phases, the middle one a *genuine* process death:

1. **reference** — the demo workload (``repro.cli.checkpoint_demo_workload``)
   with a deterministic siteB outage runs uninterrupted to completion;
   every task's final state, its ``jobmon.job_status`` answer and the final
   ``system.observability`` report are recorded.  It writes the same
   checkpoints at the same barriers as the victim (barrier bookkeeping is
   symmetric), plus a self-contained one at the second barrier to size the
   continuation against;
2. **victim** — a child process runs the same workload, writes a
   self-contained checkpoint at t=155 s and a continuation of it at
   t=205 s, then dies via ``os._exit`` — no cleanup, no atexit, nothing
   survives but the two files;
3. **restore** — the parent rehydrates *both orphaned files*,
   ``restore_gae(base)`` and ``restore_gae(delta, base=base)``, runs each
   to completion, and every recorded answer must equal the reference's.

It then round-trips ``gae-repro checkpoint`` → ``gae-repro restore`` and
runs ``gae-repro journal replay`` (exit 0; the table lists exactly
``CONSUMER_NAMES``, every verdict ``identical``).

Needs ``numpy`` (``bench`` and ``figures`` also ``pytest`` and
``pytest-benchmark``).  Exit status 0 on success, 1 on any failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path
from xml.etree import ElementTree

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"
sys.path.insert(0, str(SRC_ROOT))

OUTAGE_START = 60.0
OUTAGE_DURATION = 50.0  # siteB down for [60, 110): fully before the base barrier
T_BASE = 155.0  # self-contained checkpoint (not a multiple of any periodic 20/30/60 s)
T_DELTA = 205.0  # continuation barrier
T_HORIZON = 20000.0  # absolute, so every run closes identical telemetry windows
CRASH_EXIT_CODE = 86  # distinctive, so a clean exit can't masquerade as a crash
FIGURE_BENCHES = 48  # benchmarks/bench_*.py tests; a lost file must not pass as green


class SmokeFailure(Exception):
    """A smoke check did not hold."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def run_python(*argv: str, cwd: Path, capture: bool = False, expect: int = 0) -> str:
    """Run ``python argv...`` with ``src/`` importable; check its exit status."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_ROOT) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=env, timeout=600, text=True,
        stdout=subprocess.PIPE if capture else None,
    )
    check(proc.returncode == expect,
          f"`python {' '.join(argv)}` exited {proc.returncode}, expected {expect}")
    return proc.stdout if capture else ""


def run_cli(*args: str, cwd: Path, capture: bool = False) -> str:
    return run_python("-m", "repro.cli", *args, cwd=cwd, capture=capture)


# ----------------------------------------------------------------------
# restore
# ----------------------------------------------------------------------
def outage_workload():
    """The demo workload plus a deterministic siteB outage window."""
    from repro.cli import checkpoint_demo_workload
    from repro.gridsim.faults import OutageScheduler

    gae, job = checkpoint_demo_workload()
    outages = OutageScheduler(gae.sim)
    outages.add_outage(
        gae.grid.execution_services["siteB"], OUTAGE_START, OUTAGE_DURATION
    )
    outages.start()
    return gae, job


def arm_checkpoints(gae, base: str, delta: str):
    """Base at T_BASE, its continuation at T_DELTA, on the barrier clock."""
    from repro.store.checkpoint import Checkpointer

    ckpt = Checkpointer(gae)
    ckpt.checkpoint_at(T_BASE, base)
    ckpt.checkpoint_at(T_DELTA, delta, base=base)
    return ckpt


def run_victim(base: str, delta: str) -> None:
    """Checkpoint the outage workload mid-flight, then die without cleanup."""
    gae, _ = outage_workload()
    ckpt = arm_checkpoints(gae, base, delta)
    gae.sim.run_until(T_DELTA)
    info = ckpt.last_info
    if info is None or info.base_seq is None:
        os._exit(2)  # the continuation never fired: distinguishable failure
    sys.stdout.flush()
    os._exit(CRASH_EXIT_CODE)  # the "kill": skips atexit, GC, everything


def final_answers(gae) -> dict:
    """Run to completion; the answers every phase must agree on."""
    gae.sim.run_until(T_HORIZON)
    gae.stop()
    gae.sim.run()
    states = {
        task.task_id: task.state.value
        for job in gae.scheduler.jobs()
        for task in job.tasks
    }
    with gae.client("demo", "demo") as client:
        status = {t: client.call("jobmon.job_status", t) for t in sorted(states)}
        observability = client.call("system.observability")
    return {"states": states, "status": status, "observability": observability}


def check_same_answers(label: str, reference: dict, candidate: dict) -> None:
    for key in ("states", "status", "observability"):
        if reference[key] == candidate[key]:
            continue
        lines = [f"{label} diverged from the uninterrupted run in {key!r}"]
        if key != "observability":
            for item in sorted(set(reference[key]) | set(candidate[key])):
                a, b = reference[key].get(item), candidate[key].get(item)
                if a != b:
                    lines.append(f"  {item}: reference={a!r} {label}={b!r}")
        raise SmokeFailure("\n".join(lines))


def payload(path: str) -> dict:
    """Rows and encoded-JSON bytes per namespace of a checkpoint file."""
    from repro.store.base import encode_value
    from repro.store.sqlite import read_store_file

    store = read_store_file(path)
    return {
        ns.name: (
            store.count(ns.name),
            sum(len(encode_value(v)) for v in store.values(ns.name)),
        )
        for ns in store.namespaces()
    }


def smoke_restore(tmp: Path) -> None:
    from repro.gridsim.job import reset_id_counters
    from repro.store.checkpoint import Checkpointer, restore_gae
    from repro.store.registry import OBSERVABILITY_JOURNAL

    # Phase 1: the uninterrupted reference run.
    ref_full = str(tmp / "ref_full.sqlite")
    gae, _ = outage_workload()
    arm_checkpoints(gae, str(tmp / "ref_base.sqlite"), str(tmp / "ref_delta.sqlite"))
    Checkpointer(gae).checkpoint_at(T_DELTA, ref_full)
    reference = final_answers(gae)
    check(set(reference["states"].values()) == {"completed"},
          f"reference run did not complete: {reference['states']}")
    print(f"reference run: {len(reference['states'])} tasks completed "
          "through the siteB outage")

    # Phase 2: the victim checkpoints (base, then continuation), then dies hard.
    base, delta = str(tmp / "base.sqlite"), str(tmp / "delta.sqlite")
    run_python(__file__, "victim", base, delta, cwd=tmp, expect=CRASH_EXIT_CODE)
    for path in (base, delta):
        check(os.path.exists(path), f"victim died without leaving {path}")
    print(f"victim crashed as intended (exit {CRASH_EXIT_CODE}); "
          "base and continuation survived")

    # A continuation is base + tail (tier-1 pins the layout; this prints it).
    sizes, full_sizes = payload(delta), payload(ref_full)
    delta_bytes = sum(b for _, b in sizes.values())
    full_bytes = sum(b for _, b in full_sizes.values())
    print(f"continuation: {sizes[OBSERVABILITY_JOURNAL][0]} journal rows "
          f"(self-contained at the same barrier: "
          f"{full_sizes[OBSERVABILITY_JOURNAL][0]}), payload {delta_bytes} B = "
          f"{100.0 * delta_bytes / full_bytes:.0f}% of {full_bytes} B")

    # Phase 3: restore both orphans and finish the workload from each.
    reset_id_counters()
    from_base = final_answers(restore_gae(base))
    reset_id_counters()
    from_delta = final_answers(restore_gae(delta, base=base))
    check_same_answers("restore(base)", reference, from_base)
    check_same_answers("restore(continuation, base)", reference, from_delta)
    print(f"restored from t={T_BASE:.0f}s base and from t={T_DELTA:.0f}s "
          "continuation: answers bit-identical to the uninterrupted run")

    # The CLI's own round trip, and the consumers' rebuild identity.
    run_cli("checkpoint", "--out", "gae_ckpt.sqlite", cwd=tmp)
    run_cli("restore", "gae_ckpt.sqlite", cwd=tmp)
    from repro.events import CONSUMER_NAMES

    replay = run_cli("journal", "replay", cwd=tmp, capture=True)  # exit status 0
    print(replay, end="")
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in replay.splitlines() if line.startswith("|")
    ]
    check(rows[0] == ["consumer", "baseline", "folded", "covered", "verdict"],
          f"journal replay: unexpected columns {rows[0]}")
    verdicts = {row[0]: row[-1] for row in rows[2:]}
    check(verdicts == dict.fromkeys(CONSUMER_NAMES, "identical"),
          f"journal replay: expected every one of {CONSUMER_NAMES} identical, got {verdicts}")


# ----------------------------------------------------------------------
# rpc
# ----------------------------------------------------------------------
_SERIES = re.compile(r'^(\w+)(?:\{(.*)\})? (\S+)$')


def scrape(url: str) -> tuple:
    """``/metrics`` as text and as ``[(name, {label: value}, number)]``."""
    with urllib.request.urlopen(url, timeout=10) as response:
        text = response.read().decode("utf-8")
    series = []
    for line in text.splitlines():
        match = None if line.startswith("#") else _SERIES.match(line)
        if match:
            name, labels, value = match.groups()
            series.append((name, dict(re.findall(r'(\w+)="([^"]*)"', labels or "")),
                           float(value)))
    return text, series


def smoke_rpc(tmp: Path) -> None:
    from repro.clarens import AsyncSocketServerHandle, ClarensClient, ClarensFault
    from repro.cli import checkpoint_demo_workload
    from repro.webui import GAEWebUI

    gae, job = checkpoint_demo_workload()
    gae.sim.run_until(100.0)
    task, other = job.tasks[0].task_id, job.tasks[1].task_id
    handle = AsyncSocketServerHandle(gae.host).start()
    label = f"async:{handle.address[1]}"
    with GAEWebUI(gae) as ui:
        with ClarensClient(handle.url, codec="json") as client:
            client.login("demo", "demo")
            client.call("jobmon.job_status", task)
            client.call("jobmon.job_status", task)  # the cached repeat
            client.batch([("jobmon.job_status", other)] * 3)  # two coalesce
            for bad in (("jobmon.job_status", "no-such-task"), ("nope.nothing",)):
                try:
                    client.call(*bad)
                except ClarensFault:
                    pass
                else:
                    raise SmokeFailure(f"{bad[0]} did not fault")
            stats = client.call("system.stats")
            cache = client.call("system.cache")
            text, series = scrape(ui.url + "metrics")

        def total(name: str, **labels: str) -> int:
            return int(sum(
                value for n, have, value in series
                if n == name and all(have.get(k) == v for k, v in labels.items())
            ))

        # What the driver above did, as all three surfaces must tell it.
        # (/metrics was scraped two calls later: system.stats, system.cache.)
        status = "jobmon.job_status"
        check(stats["per_method"][status] == 6, f"per_method: {stats['per_method']}")
        check(stats["per_method"]["<unknown>"] == 1 and "nope.nothing" not in text,
              "the bogus method path became a label")
        check(stats["faults"] == 2 == total("gae_rpc_calls_total", outcome="fault"),
              f"faults: stats {stats['faults']}")
        check(total("gae_rpc_calls_total") == stats["calls"] + 2,
              f"calls: /metrics {total('gae_rpc_calls_total')}, stats {stats['calls']}")
        for method, n in stats["per_method"].items():
            check(total("gae_rpc_calls_total", method=method) == n,
                  f"{method}: /metrics disagrees with system.stats ({n})")
        for method, summary in stats["latency_ms"].items():
            check(total("gae_rpc_latency_ms_count", method=method) == summary["count"],
                  f"{method}: latency count disagrees")
        served, counters = stats["served"][status], cache["per_method"][status]
        check(served == {"cache": 1, "coalesced": 2}, f"served: {served}")
        for kind, source in (("hits", "cache"), ("coalesced", "coalesced")):
            check(counters[kind] == served[source]
                  == total(f"gae_rpc_cache_{kind}_total", method=status)
                  == total("gae_rpc_calls_total", method=status, served_from=source),
                  f"{kind}: system.cache, system.stats and /metrics disagree")
        pool = stats["worker_pools"][label]
        check(pool["completed"] + 2
              == total("gae_aio_worker_completed_total", pool=label)
              # one frame per call but the multicall's one executed sub-call
              == total("gae_rpc_calls_total", transport="async+json") - 1,
              f"pool {label}: completed {pool['completed']} disagrees with /metrics")
        print(f"system.stats, system.cache and /metrics agree: {stats['calls']} calls, "
              f"{stats['faults']} faults, pool {label} completed {pool['completed']}")

        handle.shutdown()
        text, _ = scrape(ui.url + "metrics")
        check("worker_pools" not in gae.host.dispatch("system.stats", []),
              "the stopped pool is still in system.stats")
        check(label not in text, "the stopped pool is still in /metrics")
        print(f"pool {label} left system.stats and /metrics at shutdown")
    gae.stop()


# ----------------------------------------------------------------------
# scenario / health / bench / trace
# ----------------------------------------------------------------------
def smoke_scenario(tmp: Path) -> None:
    run_cli("scenario", "run", "benign-baseline", "site-outage-recovery",
            "--quick", "--out", "SCENARIOS.json", cwd=tmp)
    run_cli("scenario", "validate", cwd=tmp)
    run_cli("scenario", "validate", "--report", "SCENARIOS.json", cwd=tmp)


def smoke_health(tmp: Path) -> None:
    from repro.observability.export import validate_export_file

    snapshot = json.loads(run_cli(
        "health", "--scenario", "site-outage-recovery", "--quick",
        "--export", "telemetry.jsonl", "--json", cwd=tmp, capture=True,
    ))
    rows = validate_export_file(
        tmp / "telemetry.jsonl",
        REPO_ROOT / "docs" / "schemas" / "telemetry_export.schema.json",
    )
    print(f"telemetry.jsonl: {rows} rows ok")
    transitions = snapshot["health"]["transitions"]
    fired = {t["rule"] for t in transitions if t["to"] == "firing"}
    resolved = {t["rule"] for t in transitions if t["to"] == "resolved"}
    check(bool(fired), "no health rule fired during the outage")
    check(fired <= resolved, f"still firing at horizon: {sorted(fired - resolved)}")
    print("health transitions:",
          [(t["rule"], t["to"], t["time_s"]) for t in transitions])


def smoke_bench(tmp: Path) -> None:
    run_python("-m", "pytest", "benchmarks/e2e", "-q", "-p", "no:cacheprovider",
               cwd=REPO_ROOT)
    # wire_pipelined's 400 jobs all run; poll_uncached leaves a queue, so its
    # socket-vs-direct output check sees non-negative queue positions, the
    # running_tasks scan and two set_priority writes; steer_mixed is the one
    # journalled, traced rig, the only one that exercises the span ring.
    for workload in ("wire_pipelined", "poll_uncached", "steer_mixed"):
        out = run_python("benchmarks/e2e/run.py", "--workload", workload,
                         "--seed", "1", "--quick", cwd=REPO_ROOT, capture=True)
        print(out, end="")
        verdict = json.loads(out.strip().splitlines()[-1])
        check(verdict["correct"] is True, f"benchmark outputs incorrect: {verdict}")
        check(verdict["failed"] == 0, f"benchmark calls failed: {verdict}")
        print(f"e2e quick {workload}: {verdict['attempted']} attempted, 0 failed, "
              "outputs correct")


def smoke_trace(tmp: Path) -> None:
    from repro.observability.export import validate_export_file

    run_cli("demo", "--trace-export", "demo_trace.jsonl", cwd=tmp)
    rows = validate_export_file(
        tmp / "demo_trace.jsonl",
        REPO_ROOT / "docs" / "schemas" / "trace_export.schema.json",
    )
    print(f"demo_trace.jsonl: {rows} rows ok")


def smoke_figures(tmp: Path) -> None:
    """The figure benches assert the paper's shapes (§7) over ``repro.analysis.experiments``;
    the numbers themselves are pinned by tier-1 (``FIGURES.json``), not here."""
    files = sorted(str(path) for path in (REPO_ROOT / "benchmarks").glob("bench_*.py"))
    report = tmp / "figures.xml"
    run_python("-m", "pytest", *files, "-q", "--benchmark-disable",
               "-p", "no:cacheprovider", f"--junitxml={report}", cwd=REPO_ROOT)
    suite = ElementTree.parse(report).getroot().find("testsuite")
    passed = int(suite.get("tests")) - int(suite.get("skipped"))  # failures exit non-zero
    check(passed >= FIGURE_BENCHES, f"{passed} figure benches passed, not {FIGURE_BENCHES}")
    print(f"figure benches: {passed} passed")


SMOKES = {
    "restore": smoke_restore,
    "scenario": smoke_scenario,
    "health": smoke_health,
    "bench": smoke_bench,
    "rpc": smoke_rpc,
    "trace": smoke_trace,
    "figures": smoke_figures,
}


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("smoke", choices=[*SMOKES, "all", "victim"])
    parser.add_argument("paths", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.smoke == "victim":  # the restore smoke's child process
        run_victim(*args.paths)
        return 1  # unreachable: run_victim always _exits

    for name in SMOKES if args.smoke == "all" else [args.smoke]:
        started = time.monotonic()
        try:
            with tempfile.TemporaryDirectory() as tmp:
                SMOKES[name](Path(tmp))
        except SmokeFailure as exc:
            print(f"FAIL: {name} smoke: {exc}", file=sys.stderr)
            return 1
        print(f"{name} smoke: OK ({time.monotonic() - started:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
