"""Seeded workload generators for the end-to-end benchmark.

A workload is a rig description plus a **cycle**: a fixed list of K
operations the runner replays over one framed connection.  Everything
random comes from the ``--seed`` the runner was given; the server child
only ever sees the generated rig inputs and the calls themselves.

Two rules keep the numbers comparable between seeds and between runs:

- **Stratified draws.**  Task work, task priorities and the hot task set
  are seeded *permutations inside fixed strata*, never free draws, so
  every seed sees the same distribution of queue positions, priority
  bands and reply sizes while the concrete tasks differ.
- **State-periodic cycles.**  A cycle comes in two parities that undo
  each other (priorities alternate, moves ping-pong between the sites,
  every pause is followed by its resume), so the rig is in the same
  state at the start of every second cycle and position *i* of a cycle
  does the same work each time it is replayed.

This module imports nothing from the program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

#: One RPC: ``(method, params)``.
Call = Tuple[str, List[Any]]
#: One timed operation: a serial call is a 1-tuple, a pipelined batch
#: a tuple of ``BATCH`` calls.
Op = Tuple[Call, ...]

SITES = ("siteA", "siteB")
OWNER = "load"
PASSWORD = "pw"
PRIORITY_BANDS = 5
HOT_TASKS = 64
HOT_RUNNING = 16
K = 400
BATCH = 16
SUBMIT_CHUNK = 500
#: ``--quick`` caps a rig at this many jobs (enough to leave a queue).
QUICK_JOBS = 1000

#: name -> (why it exists, rig description).  ``quick`` swaps ``jobs``.
WORKLOADS: Dict[str, Tuple[str, Dict[str, Any]]] = {
    "poll_uncached": (
        "host-bound: collector and Condor-pool lookups at 10k live jobs, read cache off",
        {"jobs": 10_000, "read_cache": False, "observability": False},
    ),
    "poll_cached": (
        "the identical polling cycle served through the epoch-keyed read cache",
        {"jobs": 10_000, "read_cache": True, "observability": False},
    ),
    "steer_mixed": (
        "steering verbs and reads over the journal write path, four consumers and the store",
        {"jobs": 10_000, "read_cache": False, "observability": True},
    ),
    "wire_pipelined": (
        "transport-bound: 16-call pipelined page loads on a 400-job cached rig",
        {"jobs": 400, "read_cache": True, "observability": False},
    ),
}

#: Per-cycle call counts of the §5 polling mix (K = 400 serial calls):
#: 45 / 15 / 10 / 10 / 10 / 4 / 3 / 2.25 / 0.5 / 0.25 %.
POLL_MIX: Dict[str, int] = {
    "jobmon.job_status": 180,
    "jobmon.progress": 60,
    "jobmon.queue_position": 40,
    "jobmon.job_info": 40,
    "monalisa.grid_weather": 20,
    "monalisa.site_load": 20,
    "estimator.history_size": 16,
    "system.multicall": 12,
    "jobmon.owner_tasks": 9,
    "steering.set_priority": 2,
    "jobmon.running_tasks": 1,
}

#: Calls per group of 20 in the steering mix (20 groups per cycle).
STEER_GROUP: Dict[str, int] = {
    "steering.move": 1,
    "steering.set_priority": 1,
    "steering.pause": 1,
    "steering.resume": 1,
    "steering.task_progress": 2,
    "steering.evaluate_move": 1,
    "jobmon.job_status": 8,
    "jobmon.job_info": 5,
}
STEER_GROUPS = K // sum(STEER_GROUP.values())

#: Per-cycle call counts of the pipelined page-load mix (K batches of
#: 16 = 6400 calls): 50 / 20 / 10 / 10 / 9 / 1 %.
WIRE_MIX: Dict[str, int] = {
    "jobmon.job_status": 3200,
    "jobmon.progress": 1280,
    "jobmon.job_info": 640,
    "monalisa.grid_weather": 640,
    "estimator.history_size": 576,
    "jobmon.running_tasks": 64,
}

#: Methods whose replies the output check compares against direct calls.
READ_METHODS = frozenset(
    {
        "jobmon.job_status", "jobmon.progress", "jobmon.queue_position",
        "jobmon.job_info", "jobmon.owner_tasks", "jobmon.running_tasks",
        "monalisa.grid_weather", "monalisa.site_load", "estimator.history_size",
        "steering.task_progress", "steering.evaluate_move",
    }
)
#: Steering verbs: their reply carries ``ok`` and they change rig state.
VERBS = frozenset(
    {"steering.move", "steering.set_priority", "steering.pause", "steering.resume"}
)


@dataclass(frozen=True)
class Workload:
    """A rig plus the two parities of its cycle."""

    name: str
    #: ``cycles[c % 2]`` is the operation list of cycle ``c``.
    cycles: Tuple[List[Op], List[Op]]
    #: RPC calls per operation (1 serial, ``BATCH`` pipelined).
    calls_per_op: int

    def method_counts(self, parity: int = 0) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for op in self.cycles[parity]:
            for method, _ in op:
                counts[method] = counts.get(method, 0) + 1
        return counts


# ----------------------------------------------------------------------
# rig inputs
# ----------------------------------------------------------------------
def _stratified(rng: random.Random, n: int, values: Sequence[Any]) -> List[Any]:
    """``n`` draws in which each run of ``len(values)`` is a permutation."""
    out: List[Any] = []
    while len(out) < n:
        block = list(values)
        rng.shuffle(block)
        out.extend(block)
    return out[:n]


def rig_inputs(seed: int, spec: Dict[str, Any]) -> Dict[str, Any]:
    """What the server child is told: the rig shape and every task's inputs."""
    rng = random.Random(seed)
    jobs = int(spec["jobs"])
    # 64 evenly spaced work values in [50, 500) s per block of 64 tasks:
    # the share that finishes before the rig settles is the same for
    # every seed, which tasks those are is not.
    grid = [50.0 + 450.0 * (i + rng.random()) / 64 for i in range(64)]
    return {
        "grid_seed": seed,
        "jobs": jobs,
        "read_cache": bool(spec["read_cache"]),
        "observability": bool(spec["observability"]),
        "work_seconds": _stratified(rng, jobs, grid),
        "priorities": _stratified(rng, jobs, range(PRIORITY_BANDS)),
        "owner": OWNER,
        "password": PASSWORD,
        "submit_chunk": SUBMIT_CHUNK,
    }


# ----------------------------------------------------------------------
# task selection
# ----------------------------------------------------------------------
def _strata_pick(rng: random.Random, items: Sequence[str], count: int) -> List[str]:
    """One item from each of ``count`` equal slices of ``items``, in order."""
    if count <= 0 or not items:
        return []
    count = min(count, len(items))
    picks = []
    for s in range(count):
        lo = s * len(items) // count
        hi = (s + 1) * len(items) // count
        picks.append(items[rng.randrange(lo, hi)])
    return picks


def _hot_set(rng: random.Random, layout: Dict[str, Any]) -> Tuple[List[str], List[str]]:
    """``(running, queued)`` hot tasks, split evenly over the sites.

    Queued picks are stratified over each site's idle queue so the mean
    queue depth a lookup has to walk is the same for every seed.  A rig
    with nothing queued (the 400-job one) polls running tasks only.
    """
    has_queue = all(layout["queued"][s] for s in SITES)
    n_running = HOT_RUNNING if has_queue else HOT_TASKS
    running: List[str] = []
    queued: List[str] = []
    for site in SITES:
        running += _strata_pick(rng, layout["running"][site], n_running // len(SITES))
        if has_queue:
            queued += _strata_pick(
                rng, layout["queued"][site], (HOT_TASKS - HOT_RUNNING) // len(SITES)
            )
    return running, queued


# ----------------------------------------------------------------------
# cycles
# ----------------------------------------------------------------------
def _poll_cycles(
    rng: random.Random, layout: Dict[str, Any], priorities: Dict[str, int]
) -> Tuple[List[Op], List[Op]]:
    running, queued = _hot_set(rng, layout)
    hot = running + queued
    calls: List[Tuple[Call, Call]] = []  # (even-cycle call, odd-cycle call)

    def add(method: str, params_of: Any, n: int, tasks: Sequence[str] = ()) -> None:
        picks = _stratified(rng, n, tasks) if tasks else [None] * n
        for tid in picks:
            call = (method, params_of(tid))
            calls.append((call, call))

    for method in ("job_status", "progress", "queue_position", "job_info"):
        add(f"jobmon.{method}", lambda tid: [tid], POLL_MIX[f"jobmon.{method}"], hot)
    add("monalisa.grid_weather", lambda _: [], POLL_MIX["monalisa.grid_weather"])
    add("monalisa.site_load", lambda site: [site], POLL_MIX["monalisa.site_load"], SITES)
    add("estimator.history_size", lambda _: [], POLL_MIX["estimator.history_size"])
    add(
        "system.multicall",
        lambda tid: [[
            {"methodName": "jobmon.job_status", "params": [tid]},
            {"methodName": "jobmon.progress", "params": [tid]},
            {"methodName": "jobmon.job_status", "params": [tid]},
        ]],
        POLL_MIX["system.multicall"],
        hot,
    )
    add("jobmon.owner_tasks", lambda _: [OWNER], POLL_MIX["jobmon.owner_tasks"])
    add("jobmon.running_tasks", lambda _: [], POLL_MIX["jobmon.running_tasks"])
    # The write trickle: hot tasks bumped one band on even cycles and
    # restored on odd ones (queue order is restored too: the sort key is
    # (-priority, condor id)).
    for tid in rng.sample(queued or running, POLL_MIX["steering.set_priority"]):
        base = priorities[tid]
        calls.append((
            ("steering.set_priority", [tid, (base + 1) % PRIORITY_BANDS]),
            ("steering.set_priority", [tid, base]),
        ))
    rng.shuffle(calls)
    return [(even,) for even, _ in calls], [(odd,) for _, odd in calls]


def _steer_cycles(
    rng: random.Random, layout: Dict[str, Any], priorities: Dict[str, int]
) -> Tuple[List[Op], List[Op]]:
    running, queued = _hot_set(rng, layout)
    hot = running + queued
    n = STEER_GROUPS
    # Movers and re-prioritised tasks are queued (a running task that
    # leaves frees a slot and the population would drift); they are
    # disjoint so a move never carries a bumped priority across.
    picks = {site: _strata_pick(rng, layout["queued"][site], n) for site in SITES}
    movers = [(tid, SITES[0]) for tid in picks[SITES[0]][0::2]]
    movers += [(tid, SITES[1]) for tid in picks[SITES[1]][1::2]]
    bumped = picks[SITES[0]][1::2] + picks[SITES[1]][0::2]
    rng.shuffle(movers)
    rng.shuffle(bumped)
    pausable = _strata_pick(rng, layout["running"]["siteA"], n // 2) + _strata_pick(
        rng, layout["running"]["siteB"], n - n // 2
    )
    rng.shuffle(pausable)
    progress = _stratified(rng, n * STEER_GROUP["steering.task_progress"], hot)
    evaluated = _stratified(rng, n, running)
    statuses = _stratified(rng, n * STEER_GROUP["jobmon.job_status"], hot)
    infos = _stratified(rng, n * STEER_GROUP["jobmon.job_info"], hot)

    even: List[Op] = []
    odd: List[Op] = []
    for g in range(n):
        tid, home = movers[g]
        away = SITES[1 - SITES.index(home)]
        base = priorities[bumped[g]]
        group: List[Tuple[Call, Call]] = [
            (("steering.move", [tid, away]), ("steering.move", [tid, home])),
            (
                ("steering.set_priority", [bumped[g], (base + 1) % PRIORITY_BANDS]),
                ("steering.set_priority", [bumped[g], base]),
            ),
        ]

        def same(method: str, tid: str) -> Tuple[Call, Call]:
            call = (method, [tid])
            return call, call

        reads = [same("steering.task_progress", progress.pop()) for _ in range(2)]
        reads.append(same("steering.evaluate_move", evaluated.pop()))
        reads += [same("jobmon.job_status", statuses.pop()) for _ in range(8)]
        reads += [same("jobmon.job_info", infos.pop()) for _ in range(5)]
        group += reads
        rng.shuffle(group)
        # The pause lands somewhere in the group, its resume right after
        # the next operation: never adjacent, never left hanging.
        at = rng.randrange(0, len(group))
        group.insert(at, same("steering.pause", pausable[g]))
        group.insert(at + 2, same("steering.resume", pausable[g]))
        even += [(e,) for e, _ in group]
        odd += [(o,) for _, o in group]
    return even, odd


def _wire_cycles(rng: random.Random, layout: Dict[str, Any]) -> Tuple[List[Op], List[Op]]:
    running, queued = _hot_set(rng, layout)
    hot = running + queued
    calls: List[Call] = []
    for method in ("jobmon.job_status", "jobmon.progress", "jobmon.job_info"):
        calls += [(method, [tid]) for tid in _stratified(rng, WIRE_MIX[method], hot)]
    for method in ("monalisa.grid_weather", "estimator.history_size", "jobmon.running_tasks"):
        calls += [(method, [])] * WIRE_MIX[method]
    # A page load is whatever 16 calls come next: the ~100 KB scans fall
    # where the shuffle puts them, none, one or several to a batch.
    rng.shuffle(calls)
    cycle = [tuple(calls[b * BATCH : (b + 1) * BATCH]) for b in range(K)]
    return cycle, cycle


def build_workload(
    name: str, seed: int, layout: Dict[str, Any], priorities: Dict[str, int]
) -> Workload:
    """The seeded cycle of workload *name* over a rig's reported layout.

    *layout* is what the server child reports once the rig has settled:
    ``{"running": {site: [task ids]}, "queued": {site: [ids in queue
    order]}}``.  *priorities* maps task id to the priority it was
    submitted with (so a bumped priority can be restored).
    """
    rng = random.Random(f"{name}:{seed}")
    if name in ("poll_uncached", "poll_cached"):
        # Both poll workloads share one generator state: the identical cycle.
        rng = random.Random(f"poll:{seed}")
        return Workload(name, _poll_cycles(rng, layout, priorities), 1)
    if name == "steer_mixed":
        return Workload(name, _steer_cycles(rng, layout, priorities), 1)
    if name == "wire_pipelined":
        return Workload(name, _wire_cycles(rng, layout), BATCH)
    raise KeyError(f"unknown workload {name!r}")
