"""What a live job costs the serving process, by owner: the heap ledger.

One live single-task job, admitted to a two-site GAE and queued, holds a
fixed number of bytes of traced heap.  They are measured as the growth
between two rigs of different size (the *window*), so one-off allocations
cancel, and grouped by the module that allocated them into the owners of
:data:`OWNERS`.  The totals are the per-job figures ``peak_rss_mb``'s
memory claims rest on; the owners say where a regression landed.

Standard library only, so it runs as a plain script under any interpreter,
pytest or not (``PYTHONPATH=src python3.10 tests/gridsim/heap_ledger.py``
prints the ledger and exits non-zero on a breach); the rig draws nothing,
so numpy is not needed either.  Tier-1 runs it as
``tests/gridsim/test_memory_budget.py::test_heap_per_live_job_stays_inside_the_budget``;
with ``-s`` that prints the table ``docs/ARCHITECTURE.md`` "Memory budget"
is built from.
"""

import gc
import itertools
import os
import sys
import tracemalloc

import repro
from repro.gae import SteeringPolicy, build_gae
from repro.gridsim import GridBuilder
from repro.gridsim.job import Job, Task, TaskSpec

QUIET = SteeringPolicy(auto_move=False, poll_interval_s=3_600.0)

#: The rig sizes whose difference is measured.  Journalled, the window is
#: one where the 8 192-span ring is full at both ends (a job opens four
#: spans at admission, so it fills at 2 048 jobs).  ``distinct`` is the
#: journalled rig with no two tasks alike (see :func:`rig`).
WINDOWS = {"bare": (1_000, 4_000), "journal": (3_000, 6_000), "distinct": (3_000, 6_000)}

#: Bytes of traced heap per live job, all owners together; they hold on
#: 3.10–3.13 (3.10 reads highest: 831.8 / 1 603.8 / 2 284.6; 3.11 773.1 /
#: 1 529.4 / 2 169.1).
BUDGETS = {"bare": 840, "journal": 1_610, "distinct": 2_292}

#: Owner -> the modules (under ``repro``) whose allocations are its;
#: ``rig`` is this file: the jobs, tasks and specs a client would build.
#: The rings are one owner because from 3.11 on a deque block is charged
#: to the ring that allocates it, on 3.10 to the ring that freed it last.
OWNERS = {
    "rig": ("rig",),
    "scheduler + plan table": ("gridsim/scheduler.py", "gridsim/job.py"),
    "Condor pools": ("gridsim/condor.py",),
    "§6.2 accounting + estimates": ("core/estimators/",),
    "steering subscriber": ("core/steering/",),
    "trace records": ("observability/instrument.py",),
    "span ring + journal rows": (
        "ring.py", "observability/tracing.py", "events/journal.py", "payload.py",
    ),
}

#: B/job each owner may hold; any module no owner names shares ``other``.
#: The largest reading of 3.10–3.13, plus a few bytes.  The subscriber and
#: a bare build's trace records and rings hold nothing per job: the
#: subscriber reads the scheduler's plan table.
OWNER_BUDGETS = {
    "bare": {
        "rig": 268, "scheduler + plan table": 232, "Condor pools": 264,
        "§6.2 accounting + estimates": 86, "steering subscriber": 4,
        "trace records": 4, "span ring + journal rows": 4, "other": 4,
    },
    "journal": {
        "rig": 268, "scheduler + plan table": 272, "Condor pools": 292,
        "§6.2 accounting + estimates": 84, "steering subscriber": 4,
        "trace records": 244, "span ring + journal rows": 488, "other": 4,
    },
    "distinct": {
        "rig": 570, "scheduler + plan table": 436, "Condor pools": 292,
        "§6.2 accounting + estimates": 190, "steering subscriber": 4,
        "trace records": 244, "span ring + journal rows": 592, "other": 4,
    },
}

_REPRO = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_RIG = os.path.abspath(__file__)
_STAGES = itertools.count()


def two_site_gae(observability):
    grid = (
        GridBuilder(seed=3)
        .site("siteA", nodes=2, cpus_per_node=2)
        .site("siteB", nodes=2, cpus_per_node=2)
        .link("siteA", "siteB", capacity_mbps=622.0, latency_s=0.05)
        .probe_noise(0.0)
        .build()
    )
    gae = build_gae(grid, observability=observability, policy=QUIET)
    gae.start()
    return gae


def rig(jobs, observability, distinct=False):
    """A GAE holding *jobs* live single-task jobs.  Their specs repeat
    five values; *distinct* gives each its own input file, CPU-hour
    request and priority, as a DAG's stages have, so no two tasks hold
    alike specs or journal alike payloads (estimate, dispatch)."""
    gae = two_site_gae(observability)
    for i in range(jobs):
        if distinct:  # numbered across rigs: no task is alike one of an earlier rig
            stage = next(_STAGES)
            spec = TaskSpec(
                owner="u", priority=stage, requested_cpu_hours=1.0 + stage / 8_192,
                input_files=(f"stage-{stage}.root",),
            )
        else:
            spec = TaskSpec(owner="u", priority=i % 5)
        task = Task(spec=spec, work_seconds=100.0 + i % 7)
        gae.scheduler.submit_job(Job(tasks=[task], owner="u"))
    return gae


def owner_of(filename):
    """The owner of an allocation made in *filename*."""
    path = os.path.abspath(filename)
    module = "rig" if path == _RIG else path[len(_REPRO):] if path.startswith(_REPRO) else ""
    for owner, prefixes in OWNERS.items():
        if module.startswith(prefixes):
            return owner
    return "other"


def traced_heap(jobs, observability, distinct):
    """``{owner: bytes}`` still allocated by a rig of *jobs* live jobs."""
    gc.collect()
    tracemalloc.start(1)
    try:
        gae = rig(jobs, observability, distinct)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
        assert len(gae.scheduler.jobs()) == jobs  # and the rig is alive while measured
    finally:
        tracemalloc.stop()
    held = dict.fromkeys([*OWNERS, "other"], 0)
    for stat in snapshot.statistics("filename"):
        held[owner_of(stat.traceback[0].filename)] += stat.size
    return held


def ledger(mode):
    """``{owner: B/job}`` of one live job, *mode* one of :data:`WINDOWS`."""
    observability, distinct = mode != "bare", mode == "distinct"
    small, large = WINDOWS[mode]
    rig(50, observability, distinct)  # one-off allocations (caches, lazy imports) land here
    before = traced_heap(small, observability, distinct)
    after = traced_heap(large, observability, distinct)
    return {owner: (after[owner] - before[owner]) / (large - small) for owner in before}


def breaches(mode, per_owner):
    """What of *per_owner* exceeds :data:`BUDGETS` / :data:`OWNER_BUDGETS`."""
    out = [
        f"{mode} {owner}: {value:.1f} B/job > {OWNER_BUDGETS[mode][owner]}"
        for owner, value in per_owner.items()
        if value > OWNER_BUDGETS[mode][owner]
    ]
    total = sum(per_owner.values())
    if total > BUDGETS[mode]:
        out.append(f"{mode} total: {total:.1f} B/job > {BUDGETS[mode]}")
    return out


def render(mode, per_owner):
    rows = [f"ledger  {mode:<8} {'owner':<28} {'B/job':>7}  {'budget':>6}"]
    for owner, value in per_owner.items():
        rows.append(f"ledger  {mode:<8} {owner:<28} {value:7.1f}  {OWNER_BUDGETS[mode][owner]:>6}")
    rows.append(f"ledger  {mode:<8} {'total':<28} {sum(per_owner.values()):7.1f}  {BUDGETS[mode]:>6}")
    return "\n".join(rows)


if __name__ == "__main__":
    print(sys.version.split()[0])
    failed = []
    for mode in WINDOWS:
        per_owner = ledger(mode)
        print(render(mode, per_owner))
        failed += breaches(mode, per_owner)
    print("\n".join(failed) or "every budget holds")
    sys.exit(1 if failed else 0)
