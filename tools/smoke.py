#!/usr/bin/env python
"""The repo's smoke gates, one script: what CI's ``smoke`` job runs.

::

    python tools/smoke.py restore    # hard kill, then restore both orphaned files
    python tools/smoke.py scenario   # quick chaos campaign + artifact schema
    python tools/smoke.py health     # health rules fire and resolve; telemetry export
    python tools/smoke.py bench      # the end-to-end benchmark's own checks + quick and traced runs
    python tools/smoke.py rpc        # system.stats, system.cache, the metrics exposition and
                                     # recent_calls agree; a web UI page is its principal's calls;
                                     # forged/non-ASCII/garbage tokens are typed faults
    python tools/smoke.py figures    # the wall-clock shapes: Figure 6, the transport ordering
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
   self-contained checkpoint at t=155 s, a continuation of it at t=205 s
   and a second self-contained one at t=240 s (a multiple of every
   20/30/60 s cadence, taken ahead of the ticks due then), then dies via
   ``os._exit`` — no cleanup, no atexit, nothing survives but the three
   files;
3. **restore** — the parent rehydrates *every orphaned file*,
   ``restore_gae(base)``, ``restore_gae(delta, base=base)`` and
   ``restore_gae(aligned)``, runs each to completion, and every recorded
   answer (``system.observability`` holds the telemetry's
   ``windows_closed``) must equal the reference's,
   as must every journal row written after the file's barrier (trace and
   span ids included: an instrumented build mints them from its seed).

It then round-trips ``gae-repro checkpoint`` → ``gae-repro restore`` and
runs ``gae-repro journal replay`` (exit 0; the table lists exactly
``CONSUMER_NAMES``, every verdict ``identical``).  Last, the format-2
fixture ``tests/store/fixtures/format2_full.sqlite`` goes through
``gae-repro restore --inspect`` and ``gae-repro journal tail --checkpoint``:
every stored row is listed, with the attributes its raw JSON holds.  Its
rows, loaded into a 40-row journal ring that then wraps again while
recording, go save → load → save byte-identical; and a copy of it with
one journal row deleted is refused (``journal tail`` exits 1 naming
``OutOfOrderError``).

Needs ``numpy`` (``bench`` also ``pytest``).  Exit status 0 on success, 1 on
any failed check.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sqlite3
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"
sys.path.insert(0, str(SRC_ROOT))

OUTAGE_START = 60.0
OUTAGE_DURATION = 50.0  # siteB down for [60, 110): fully before the base barrier
T_BASE = 155.0  # self-contained checkpoint
T_DELTA = 205.0  # continuation barrier
T_ALIGNED = 240.0  # self-contained, on a tick of every periodic (20/30/60 s)
T_HORIZON = 20000.0  # absolute, so every run closes identical telemetry windows
CRASH_EXIT_CODE = 86  # distinctive, so a clean exit can't masquerade as a crash


class SmokeFailure(Exception):
    """A smoke check did not hold."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def run_python(
    *argv: str, cwd: Path, capture: bool = False, expect: int = 0, stderr: bool = False
) -> str:
    """Run ``python argv...`` with ``src/`` importable; check its exit status.

    Returns its stdout with *capture*, its stderr with *stderr*."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_ROOT) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=env, timeout=600, text=True,
        stdout=subprocess.PIPE if capture else None,
        stderr=subprocess.PIPE if stderr else None,
    )
    check(proc.returncode == expect,
          f"`python {' '.join(argv)}` exited {proc.returncode}, expected {expect}")
    return proc.stderr if stderr else proc.stdout if capture else ""


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


def arm_checkpoints(gae, base: str, delta: str, aligned: str):
    """Base at T_BASE, its continuation at T_DELTA and a self-contained
    file at T_ALIGNED, on the barrier clock; returns the base's
    checkpointer."""
    from repro.store.checkpoint import Checkpointer

    ckpt = Checkpointer(gae)
    ckpt.checkpoint_at(T_BASE, base)
    ckpt.checkpoint_at(T_DELTA, delta, base=base)
    Checkpointer(gae).checkpoint_at(T_ALIGNED, aligned)
    return ckpt


def run_victim(base: str, delta: str, aligned: str) -> None:
    """Checkpoint the outage workload mid-flight, then die without cleanup."""
    gae, _ = outage_workload()
    ckpt = arm_checkpoints(gae, base, delta, aligned)
    gae.sim.run_until(T_ALIGNED)
    info = ckpt.last_info
    if info is None or info.base_seq is None:
        os._exit(2)  # the continuation never fired: distinguishable failure
    sys.stdout.flush()
    os._exit(CRASH_EXIT_CODE)  # the "kill": skips atexit, GC, everything


def final_answers(gae) -> dict:
    """Run to completion; the answers every phase must agree on, and the
    journal rows written after *gae*'s barrier (a restored run's checkpoint
    head, the reference's start)."""
    barrier = gae.events.journal.head_seq
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
    journal = {
        event.seq: json.dumps(event.to_wire(), sort_keys=True)
        for event in gae.events.journal.events_since(barrier)
    }
    return {"states": states, "status": status, "observability": observability,
            "barrier": barrier, "journal": journal}


def check_same_answers(label: str, reference: dict, candidate: dict) -> None:
    """*candidate* answers as *reference* does, and its journal rows after
    its barrier are the reference's rows byte for byte, ids included."""
    reference = dict(reference, journal={
        seq: row for seq, row in reference["journal"].items() if seq > candidate["barrier"]
    })
    for key in ("states", "status", "observability", "journal"):
        if reference[key] == candidate[key]:
            continue
        lines = [f"{label} diverged from the uninterrupted run in {key!r}"]
        if key != "observability":
            for item in sorted(set(reference[key]) | set(candidate[key])):
                a, b = reference[key].get(item), candidate[key].get(item)
                if a != b:
                    lines.append(f"  {item}: reference={a!r} {label}={b!r}")
        raise SmokeFailure("\n".join(lines[:11]))  # the first ten differences


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
    arm_checkpoints(gae, str(tmp / "ref_base.sqlite"), str(tmp / "ref_delta.sqlite"),
                    str(tmp / "ref_aligned.sqlite"))
    Checkpointer(gae).checkpoint_at(T_DELTA, ref_full)
    reference = final_answers(gae)
    check(set(reference["states"].values()) == {"completed"},
          f"reference run did not complete: {reference['states']}")
    print(f"reference run: {len(reference['states'])} tasks completed "
          "through the siteB outage")

    # Phase 2: the victim checkpoints (base, continuation, aligned), then dies hard.
    paths = [str(tmp / f"{name}.sqlite") for name in ("base", "delta", "aligned")]
    base, delta, aligned = paths
    run_python(__file__, "victim", *paths, cwd=tmp, expect=CRASH_EXIT_CODE)
    for path in paths:
        check(os.path.exists(path), f"victim died without leaving {path}")
    print(f"victim crashed as intended (exit {CRASH_EXIT_CODE}); "
          "base, continuation and aligned checkpoint survived")

    # A continuation is base + tail (tier-1 pins the layout; this prints it).
    sizes, full_sizes = payload(delta), payload(ref_full)
    delta_bytes = sum(b for _, b in sizes.values())
    full_bytes = sum(b for _, b in full_sizes.values())
    print(f"continuation: {sizes[OBSERVABILITY_JOURNAL][0]} journal rows "
          f"(self-contained at the same barrier: "
          f"{full_sizes[OBSERVABILITY_JOURNAL][0]}), payload {delta_bytes} B = "
          f"{100.0 * delta_bytes / full_bytes:.0f}% of {full_bytes} B")

    # Phase 3: restore every orphan and finish the workload from each.
    reset_id_counters()
    from_base = final_answers(restore_gae(base))
    reset_id_counters()
    from_delta = final_answers(restore_gae(delta, base=base))
    reset_id_counters()
    from_aligned = final_answers(restore_gae(aligned))
    check_same_answers("restore(base)", reference, from_base)
    check_same_answers("restore(continuation, base)", reference, from_delta)
    check_same_answers("restore(aligned)", reference, from_aligned)
    print(f"restored from t={T_BASE:.0f}s base, t={T_DELTA:.0f}s continuation and "
          f"t={T_ALIGNED:.0f}s aligned checkpoint: answers and the "
          f"{len(from_base['journal'])} / {len(from_delta['journal'])} / "
          f"{len(from_aligned['journal'])} journal rows after each barrier "
          "bit-identical to the uninterrupted run")

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
    smoke_format2_rows(tmp)


def smoke_format2_rows(tmp: Path) -> None:
    """A format-2 fixture, written when every journal row held a dict,
    restores and tails through today's row form: every row, every
    attribute, as rendered here from the file's raw JSON."""
    fixture = REPO_ROOT / "tests" / "store" / "fixtures" / "format2_full.sqlite"
    run_cli("restore", "--inspect", str(fixture), cwd=tmp)
    stored = [json.loads(raw) for _, raw in journal_rows(fixture)]
    tail = run_cli("journal", "tail", "--checkpoint", str(fixture), "--n", str(len(stored)),
                   cwd=tmp, capture=True)
    shown = [line[2:-2].split(" | ", 5) for line in tail.splitlines()[3:] if line.startswith("| ")]
    check([int(cells[0]) for cells in shown] == [row["seq"] for row in stored],
          f"journal tail of {fixture.name}: {len(shown)} rows, the file holds {len(stored)}")
    expected = [
        ", ".join(f"{k}={v}" for k, v in sorted(row["attributes"].items())) or "-"
        for row in stored
    ]
    for cells, want in zip(shown, expected):
        check(cells[5] == want, f"journal tail of {fixture.name}, seq {cells[0]}: "
                                f"attributes {cells[5]!r}, the file holds {want!r}")
    print(f"{fixture.name}: all {len(stored)} format-2 journal rows restore and tail "
          "with their stored attributes")
    smoke_journal_ring(tmp, fixture)


def journal_rows(path: Path) -> list:
    """``(key, raw JSON)`` of every journal row in the store file at *path*."""
    with contextlib.closing(
        sqlite3.connect(f"file:{path}?mode=ro&immutable=1", uri=True)
    ) as conn:
        return conn.execute(
            "SELECT key, value FROM gae_store WHERE namespace = 'observability.journal' "
            "ORDER BY key"
        ).fetchall()


def smoke_journal_ring(tmp: Path, fixture: Path) -> None:
    """The column ring survives a store file byte for byte once it has
    wrapped, and a store with a hole in its ``seq`` run is refused."""
    from repro.events.journal import EventJournal, EventType
    from repro.store.sqlite import SqliteStore, read_store_file

    capacity, extra = 40, 30
    journal = EventJournal(lambda: 2_000.0, capacity=capacity)
    journal.load_from(read_store_file(str(fixture)))  # 104 rows into 40 slots
    for i in range(extra):  # and round the ring again while recording
        journal.record(EventType.MOVED, f"ring-{i % 3}", site="siteA", old="siteA", new="siteB")
    saved = []
    for name in ("ring_a.sqlite", "ring_b.sqlite"):
        store = SqliteStore(str(tmp / name))
        journal.save_to(store)
        store.close()
        saved.append(journal_rows(tmp / name))
        head = journal.head_seq
        journal = EventJournal(lambda: 0.0, capacity=capacity)
        journal.load_from(read_store_file(str(tmp / name)), head_seq=head)
    first, second = saved
    check(first == second, "a wrapped journal ring: save -> load -> save changed the rows")
    seqs = [int(key) for key, _ in first]
    check(seqs == list(range(head - capacity + 1, head + 1)),
          f"a wrapped journal ring saved seqs {seqs[:1]}..{seqs[-1:]}, "
          f"expected the newest {capacity} up to {head}")
    from_fixture = dict(journal_rows(fixture))
    check(all(from_fixture[key] == raw for key, raw in first if key in from_fixture),
          f"a wrapped journal ring re-serialised a row of {fixture.name} differently")
    print(f"journal ring of {capacity} after {head + 1} rows: save -> load -> save "
          f"byte-identical (seq {seqs[0]}..{seqs[-1]})")

    holed = tmp / "holed.sqlite"
    holed.write_bytes(fixture.read_bytes())
    with contextlib.closing(sqlite3.connect(holed)) as conn:
        conn.execute(
            "DELETE FROM gae_store WHERE namespace = 'observability.journal' AND key = ?",
            (f"{50:012d}",),
        )
        conn.commit()
    err = run_python("-m", "repro.cli", "journal", "tail", "--checkpoint", str(holed),
                     cwd=tmp, expect=1, stderr=True)
    check("OutOfOrderError" in err,
          f"journal tail of a store missing seq 50 did not name OutOfOrderError: {err!r}")
    print("journal tail of a store missing seq 50: exit 1, " + err.strip().split(": ", 2)[-1])


# ----------------------------------------------------------------------
# rpc
# ----------------------------------------------------------------------
_SERIES = re.compile(r'^(\w+)(?:\{(.*)\})? (\S+)$')


def exposition(host) -> tuple:
    """The host's metrics in Prometheus text, and as ``[(name, {label: value}, number)]``."""
    text = "\n".join(host.metrics.prometheus_lines()) + "\n"
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
    with ClarensClient(handle.url, codec="json") as client:
        client.login("demo", "demo")
        client.call("jobmon.job_status", task)
        client.call("jobmon.job_status", task)  # the cached repeat
        client.batch([("jobmon.job_status", other)] * 3)  # two coalesce
        codes = {}  # method path -> the fault code its call answered
        for bad in (("jobmon.job_status", "no-such-task"), ("nope.nothing",)):
            try:
                client.call(*bad)
            except ClarensFault as exc:
                codes[bad[0]] = exc.code
            else:
                raise SmokeFailure(f"{bad[0]} did not fault")
        stats = client.call("system.stats")
        cache = client.call("system.cache")
        text, series = exposition(gae.host)
        recent = client.call("system.recent_calls", -1)

    def total(name: str, **labels: str) -> int:
        return int(sum(
            value for n, have, value in series
            if n == name and all(have.get(k) == v for k, v in labels.items())
        ))

    # What the driver above did, as all three surfaces must tell it.
    # (the exposition was read two calls later: system.stats, system.cache.)
    status = "jobmon.job_status"
    check(stats["per_method"][status] == 6, f"per_method: {stats['per_method']}")
    check(stats["per_method"]["<unknown>"] == 1 and "nope.nothing" not in text,
          "the bogus method path became a label")
    check(stats["faults"] == 2 == total("gae_rpc_calls_total", outcome="fault"),
          f"faults: stats {stats['faults']}")
    check(total("gae_rpc_calls_total") == stats["calls"] + 2,
          f"calls: the exposition {total('gae_rpc_calls_total')}, stats {stats['calls']}")
    for method, n in stats["per_method"].items():
        check(total("gae_rpc_calls_total", method=method) == n,
              f"{method}: the exposition disagrees with system.stats ({n})")
    for method, summary in stats["latency_ms"].items():
        check(total("gae_rpc_latency_ms_count", method=method) == summary["count"],
              f"{method}: latency count disagrees")
    served, counters = stats["served"][status], cache["per_method"][status]
    check(served == {"cache": 1, "coalesced": 2}, f"served: {served}")
    for kind, source in (("hits", "cache"), ("coalesced", "coalesced")):
        check(counters[kind] == served[source]
              == total(f"gae_rpc_cache_{kind}_total", method=status)
              == total("gae_rpc_calls_total", method=status, served_from=source),
              f"{kind}: system.cache, system.stats and the exposition disagree")
    pool = stats["worker_pools"][label]
    check(pool["completed"] + 2
          == total("gae_aio_worker_completed_total", pool=label)
          # one frame per call but the multicall's one executed sub-call
          == total("gae_rpc_calls_total", transport="async+json") - 1,
          f"pool {label}: completed {pool['completed']} disagrees with the exposition")
    # The fourth surface lists every pipeline pass up to system.cache
    # (a coalesced sub-call makes none) by the path as sent.
    check(len(recent) == stats["calls"] + 2 - served["coalesced"],
          f"recent_calls: {len(recent)} rows for {stats['calls']} + 2 calls")
    sources = [r["served_from"] for r in recent if r["method"] == status]
    check(sorted(sources) == ["cache"] * served["cache"]
          + ["execute"] * stats["latency_ms"][status]["count"],
          f"recent_calls: {status} served from {sources}")
    check("<unknown>" not in {r["method"] for r in recent},
          "recent_calls lists a label, not the path as sent")
    faults = {r["method"]: r["code"] for r in recent if r["outcome"] == "fault"}
    check(faults == codes, f"recent_calls faults {faults}, the calls answered {codes}")
    batch = {r["trace_id"] for r in recent if r["method"] == "system.multicall"}
    frames = [r for r in recent if r["transport"] == "async+json"
              and (r["trace_id"] not in batch or r["method"] == "system.multicall")]
    check(len(frames) == pool["completed"] + 2  # + system.stats, system.cache
          and all("decode_ms" in r and "encode_ms" in r for r in frames),
          "recent_calls: an async+json frame's row lacks its stage timings")
    print(f"system.stats, system.cache, the metrics exposition and system.recent_calls agree: "
          f"{stats['calls']} calls, {stats['faults']} faults, "
          f"pool {label} completed {pool['completed']}")

    handle.shutdown()
    text, _ = exposition(gae.host)
    check("worker_pools" not in gae.host.dispatch("system.stats", []),
          "the stopped pool is still in system.stats")
    check(label not in text, "the stopped pool is still in the exposition")
    print(f"pool {label} left system.stats and the exposition at shutdown")

    # A web UI page is its principal's own calls: /jobs reads each job's
    # tasks in one batch, and every read is a row of system.recent_calls.
    ui_client = gae.client("demo", "demo")
    jobs = ui_client.call("steering.my_jobs")
    before = len(ui_client.call("system.recent_calls", -1))
    with GAEWebUI(ui_client) as ui, urllib.request.urlopen(ui.url + "jobs", timeout=10) as page:
        check(task in page.read().decode("utf-8"), f"/jobs does not list {task}")
    added = ui_client.call("system.recent_calls", -1)[before + 1:]
    reads = [r for r in added if r["method"] == "jobmon.job_tasks"]
    check(len(reads) == len(jobs) > 0
          and all(r["transport"] == "inproc" and r["principal"] == "demo" for r in reads),
          f"/jobs added {[(r['method'], r['transport']) for r in added]} to recent_calls")
    print(f"/jobs read {len(reads)} job(s) as demo through system.multicall")
    gae.stop()
    smoke_rpc_auth()


def smoke_rpc_auth() -> None:
    """Forged, non-ASCII, logged-out and garbage tokens over the real framed socket, on
    a host of their own (the counts above stay the demo's): each is a typed
    ``AuthenticationError`` fault, and the host still answers after it."""
    from repro.clarens.aio import AsyncSocketServerHandle
    from repro.clarens.errors import AuthenticationError, ClarensFault
    from repro.clarens.server import ClarensHost
    from repro.clarens.transport import AsyncSocketTransport

    host = ClarensHost("auth-smoke")
    host.users.add_user("u", "p")
    with AsyncSocketServerHandle(host) as handle:
        wire = AsyncSocketTransport(handle.address, codec="json")

        def refused(what: str, method: str, params: list, token: str = "") -> None:
            try:
                wire.call(method, params, token=token)
            except AuthenticationError:
                pass
            except ClarensFault as exc:
                raise SmokeFailure(f"{what}: {type(exc).__name__} {exc.code} {exc}")
            else:
                raise SmokeFailure(f"{what} was accepted")
            check(wire.call("system.ping", []) == "pong", f"no answer after {what}")

        try:
            token = wire.call("system.login", ["u", "p"])
            fields = token.rsplit("|", 1)[0]
            refused("a forged token", "system.ping", [], f"{fields}|{'0' * 64}")
            refused("a non-ASCII token", "system.ping", [], f"{fields}|\u00e9")
            refused("a garbage system.logout", "system.logout", ["garbage"])
            wire.call("system.logout", [token])
            refused("a logged-out token", "system.ping", [], token)
        finally:
            wire.close()
    print(f"auth over {handle.url}: a forged, a non-ASCII and a logged-out token and a "
          f"garbage system.logout each answered AuthenticationError; the host answered after each")


# ----------------------------------------------------------------------
# scenario / health / bench
# ----------------------------------------------------------------------
def smoke_scenario(tmp: Path) -> None:
    run_cli("scenario", "run", "benign-baseline", "site-outage-recovery",
            "--quick", "--out", "SCENARIOS.json", cwd=tmp)
    run_cli("scenario", "validate", cwd=tmp)
    run_cli("scenario", "validate", "--report", "SCENARIOS.json", cwd=tmp)
    report = json.loads((tmp / "SCENARIOS.json").read_text("utf-8"))
    report["scenarios"][0]["slos"][0]["value"] += 1.0
    (tmp / "CHANGED.json").write_text(json.dumps(report), "utf-8")
    refusal = run_python("-m", "repro.cli", "scenario", "validate", "--report",
                         "CHANGED.json", cwd=tmp, expect=1, stderr=True)
    named = f"{report['scenarios'][0]['name']!r}: ['slos'][0]['value']"
    check(named in refusal, f"the refusal of a changed SLO value names no {named}: {refusal}")
    print(f"CHANGED.json refused: {refusal.strip()}")


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
    series = {
        row["name"]
        for row in map(json.loads, (tmp / "telemetry.jsonl").read_text("utf-8").splitlines())
        if row["kind"] == "series"
    }
    check("journal.completed.count" in series, "no journal.completed.count series exported")
    counted_twice = sorted(s for s in series if s.startswith("metric.gae_task_events_total."))
    check(not counted_twice, f"events counted twice, as {counted_twice}")
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
    # The two --traced runs are the one path that reads the server's
    # stage series (queue_wait / dispatch / reply_flush).
    runs = [("--workload", w) for w in ("wire_pipelined", "poll_uncached", "steer_mixed")]
    runs += [("--traced", w) for w in ("steer_mixed", "wire_pipelined")]
    for mode, workload in runs:
        out = run_python("benchmarks/e2e/run.py", mode, workload,
                         "--seed", "1", "--quick", cwd=REPO_ROOT, capture=True)
        print(out, end="")
        verdict = json.loads(out.strip().splitlines()[-1])
        check(verdict["correct"] is True, f"benchmark outputs incorrect: {verdict}")
        check(verdict["failed"] == 0, f"benchmark calls failed: {verdict}")
        print(f"e2e quick {mode} {workload}: {verdict['attempted']} attempted, 0 failed, "
              "outputs correct")


class EchoService:
    def echo(self, value):
        """Return the argument unchanged."""
        return value


#: A monitoring record as it crosses the wire: the transport ordering's payload.
SAMPLE_RECORD = {
    "task_id": "task-000001", "job_id": "job-000001", "site": "caltech",
    "status": "running", "elapsed_time_s": 120.5, "estimated_run_time_s": 283.0,
    "remaining_time_s": 162.5, "progress": 0.426, "queue_position": -1, "priority": 0,
    "submission_time": 0.0, "execution_time": 1.5, "completion_time": None,
    "cpu_time_used_s": 120.5, "input_io_mb": 10.0, "output_io_mb": 0.0,
    "owner": "physicist",
    "environment": {"ROOTSYS": "/opt/root", "SCRAM_ARCH": "slc3_ia32_gcc323"},
}


def time_it(fn, n: int = 300) -> float:
    """Mean wall time of *n* calls of *fn*, in µs."""
    started = time.perf_counter()
    for _ in range(n):
        fn()
    return (time.perf_counter() - started) / n * 1e6


def smoke_figures(tmp: Path) -> None:
    """The paper's two wall-clock shapes.  Tier-1 asserts every deterministic
    one on its run of ``FIGURES.json`` (``test_experiments.py::TestPaperShapes``)."""
    from repro.analysis.experiments import run_figure6
    from repro.clarens.client import ClarensClient
    from repro.clarens.serialization import to_wire
    from repro.clarens.server import ClarensHost
    from repro.clarens.transport import LoopbackTransport, SocketTransport
    from repro.clarens.xmlrpc_server import XmlRpcServerHandle

    # Figure 6 (§7): flat for a few clients, then rising by 100.
    result = run_figure6()
    print(result.to_markdown())
    ms = result.values["latency_ms"]
    small = statistics.mean(ms[n] for n in (1, 2, 3, 5))
    for n in (1, 2, 3, 5):
        check(ms[n] < 4.0 * small + 1.0, f"Figure 6 not flat: {n} client(s) {ms[n]:.2f} ms")
    check(ms[100] > 1.5 * small, f"Figure 6 does not rise: {ms[100]:.2f} ms at 100 clients")
    check(ms[100] > ms[5], f"Figure 6: 100 clients {ms[100]:.2f} ms <= 5 clients {ms[5]:.2f} ms")

    # §3's price of web services: the socket costs more than dispatch, which
    # costs more than marshalling alone.
    host = ClarensHost("smoke")
    host.users.add_user("u", "p", groups=("g",))
    host.acl.allow("echo.*", groups=("g",))
    host.register("echo", EchoService())
    local = ClarensClient(LoopbackTransport(host))
    local.login("u", "p")
    t_local = time_it(lambda: local.call("echo.echo", SAMPLE_RECORD))
    t_marshal = time_it(lambda: to_wire(SAMPLE_RECORD))
    with XmlRpcServerHandle(host) as handle:
        remote = ClarensClient(SocketTransport(handle.url))
        remote.login("u", "p")
        t_remote = time_it(lambda: remote.call("echo.echo", SAMPLE_RECORD))
    print(f"marshal-only: {t_marshal:.1f} us; in-process call: {t_local:.1f} us; "
          f"xmlrpc call: {t_remote:.1f} us (socket tax {t_remote / t_local:.1f}x)")
    check(t_marshal < t_local < t_remote,
          f"transport ordering: marshal {t_marshal:.1f}, in-process {t_local:.1f}, "
          f"xmlrpc {t_remote:.1f} us")


SMOKES = {
    "restore": smoke_restore,
    "scenario": smoke_scenario,
    "health": smoke_health,
    "bench": smoke_bench,
    "rpc": smoke_rpc,
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
