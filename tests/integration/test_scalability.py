"""Integration test: a grid-scale workload runs to completion.

500 batch jobs on a 16-site grid go through scheduling, monitoring updates
and history recording; every one must complete, and the scheduler must
spread them over the grid rather than pile them on one site.
"""

from repro.gae import build_gae
from repro.gridsim import GridBuilder
from repro.workloads.generators import bag_of_batch_tasks


def build_big_gae():
    """16 four-node sites at background loads 0, 0.1, 0.2 and 0.3 in turn."""
    builder = GridBuilder(seed=99).probe_noise(0.0)
    for i in range(16):
        builder.site(f"site{i:02d}", nodes=4, background_load=0.1 * (i % 4))
    return build_gae(builder.build(), load_publish_period_s=300.0)


class TestScaleCorrectness:
    def test_500_jobs_16_sites_all_complete(self):
        gae = build_big_gae()
        job = bag_of_batch_tasks("u", 500, gae.grid.rngs.stream("scale"), mean_seconds=300.0)
        gae.scheduler.submit_job(job)
        gae.grid.run_until(1e7)
        assert all(t.state.value == "completed" for t in job.tasks)
        assert len(gae.scheduler.plan(job.job_id).sites()) >= 4  # work got spread
