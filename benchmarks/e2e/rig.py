"""The benchmark's own rig builder: a quiescent two-site GAE of live jobs.

Same shape as ``repro.analysis.load._rig`` (two sites of 64 nodes x 4
CPUs, one 622 Mbps link, no auto-steering, a slow poll) but built from
the inputs the runner generated, in timed phases: every phase and every
chunk of submissions is one unit of ``setup_s`` (wall-clock seconds).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List

SITES = ("siteA", "siteB")
SETTLE_AT_S = 100.0


class Lap:
    """``take()``: seconds since the last ``take()`` (or construction)."""

    def __init__(self) -> None:
        self._mark = time.perf_counter()

    def take(self) -> float:
        now = time.perf_counter()
        elapsed, self._mark = now - self._mark, now
        return elapsed


@dataclass
class Rig:
    gae: Any
    #: Every submitted ``Task``, in submission order.
    tasks: List[Any]

    def layout(self) -> Dict[str, Any]:
        """Where every task sits once the rig has settled."""
        running: Dict[str, List[str]] = {}
        queued: Dict[str, List[str]] = {}
        for site in SITES:
            pool = self.gae.grid.sites[site].pool
            running[site] = [ad.task_id for ad in pool.running_snapshot()]
            queued[site] = [ad.task_id for ad in pool.queue_snapshot()]
        return {
            "task_ids": [task.task_id for task in self.tasks],
            "running": running,
            "queued": queued,
        }

    def population(self) -> Dict[str, int]:
        """Task count by state; the steering cycles must conserve it."""
        return dict(Counter(task.state.value for task in self.tasks))


def build_rig(inputs: Dict[str, Any], units: Dict[str, float]) -> Rig:
    """Build and settle the rig described by *inputs*.

    Appends ``build_gae``, ``submit_<n>`` (seconds per chunk, keyed by the
    running task count) and ``settle`` to *units*.
    """
    from repro.gae import SteeringPolicy, build_gae
    from repro.gridsim import GridBuilder
    from repro.gridsim.job import Job, Task, TaskSpec, reset_id_counters

    watch = Lap()
    reset_id_counters()
    builder = GridBuilder(seed=int(inputs["grid_seed"]))
    for site in SITES:
        builder = builder.site(site, nodes=64, cpus_per_node=4)
    grid = (
        builder.link(*SITES, capacity_mbps=622.0, latency_s=0.05).probe_noise(0.0).build()
    )
    gae = build_gae(
        grid,
        read_cache=bool(inputs["read_cache"]),
        observability=bool(inputs["observability"]),
        policy=SteeringPolicy(auto_move=False, poll_interval_s=3_600.0),
    )
    owner = inputs["owner"]
    gae.add_user(owner, inputs["password"])
    gae.start()
    units["build_gae"] = watch.take()

    chunk = int(inputs["submit_chunk"])
    tasks: List[Any] = []
    for work, priority in zip(inputs["work_seconds"], inputs["priorities"]):
        task = Task(
            spec=TaskSpec(owner=owner, priority=int(priority)), work_seconds=float(work)
        )
        tasks.append(task)
        gae.scheduler.submit_job(Job(tasks=[task], owner=owner))
        if len(tasks) % chunk == 0:
            units[f"submit_{len(tasks):05d}"] = watch.take()
    if len(tasks) % chunk:
        units[f"submit_{len(tasks):05d}"] = watch.take()

    # Dispatch settles and the sim clock stops: nothing completes mid-run.
    grid.run_until(SETTLE_AT_S)
    units["settle"] = watch.take()
    return Rig(gae, tasks)
