"""Admission cost must not grow with the number of live jobs.

Count-based, so it cannot flake: the work ``submit_job`` does per call is
counted (queue-order key evaluations, commitment-map iterations), never
timed.  The timed version of the same claim is ``setup_s`` of the
end-to-end benchmark.
"""

import math

from repro.gae import build_gae
from repro.gridsim import GridBuilder
from repro.gridsim.condor import CondorJobAd
from repro.gridsim.job import Job, Task, TaskSpec

JOBS = 4000
TAIL = 500


def two_site_gae():
    grid = (
        GridBuilder(seed=3)
        .site("siteA", nodes=2, cpus_per_node=2)
        .site("siteB", nodes=2, cpus_per_node=2)
        .link("siteA", "siteB", capacity_mbps=622.0, latency_s=0.05)
        .probe_noise(0.0)
        .build()
    )
    gae = build_gae(grid)
    gae.start()
    return gae


def single_task_job(i):
    task = Task(spec=TaskSpec(owner="u", priority=i % 5), work_seconds=100.0 + i % 7)
    return Job(tasks=[task], owner="u")


class _NeverIterated(dict):
    """A commitment map that may be read by key but not walked."""

    def _walked(self, *args):
        raise AssertionError("the commitment map was iterated on the admission path")

    __iter__ = keys = values = items = _walked


def test_key_evaluations_per_submit_stay_logarithmic(monkeypatch):
    gae = two_site_gae()
    evaluations = 0
    original = CondorJobAd.sort_key

    def counting_sort_key(ad):
        nonlocal evaluations
        evaluations += 1
        return original(ad)

    monkeypatch.setattr(CondorJobAd, "sort_key", counting_sort_key)
    for i in range(JOBS - TAIL):
        gae.scheduler.submit_job(single_task_job(i))
    before_tail = evaluations
    for i in range(JOBS - TAIL, JOBS):
        gae.scheduler.submit_job(single_task_job(i))
    per_submit = (evaluations - before_tail) / TAIL

    queued = sum(len(site.pool.queue_snapshot()) for site in gae.grid.sites.values())
    assert queued > JOBS - 100  # the queues really are this long
    # Placement by bisection: ~log2(n) keys.  A full re-sort costs ~n/2 here.
    assert per_submit <= 4 * math.log2(JOBS) + 8, per_submit


def test_rank_sites_reads_a_count_not_the_commitment_map():
    gae = two_site_gae()
    scheduler = gae.scheduler
    for i in range(50):
        scheduler.submit_job(single_task_job(i))
    scheduler._commitments = _NeverIterated(scheduler._commitments)
    probe = single_task_job(50)
    ranks = scheduler.rank_sites(probe.tasks[0])
    assert len(ranks) == 2
    # A whole admission walks it no more than a ranking does.
    scheduler.submit_job(probe)
    assert probe.tasks[0].task_id in scheduler._commitments
