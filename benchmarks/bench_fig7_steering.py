"""Figure 7 — Job completion at different sites (the steering experiment).

Paper setup (§7): a prime-counting job measured at **283 s on a free CPU**
runs on site A under significant CPU load.  The steering service monitors
its progress (via the job monitoring service), detects the slow execution
rate, and reschedules it to a free site B — while the site-A copy is left
running for comparison.  The figure charts job progress (% complete) versus
elapsed time for both.

Paper result: the steered job completes at **~369 s**, far sooner than the
copy still grinding at site A, and necessarily later than the **283 s**
free-CPU reference (dashed line).

This bench asserts the shape of ``repro.analysis.experiments.run_figure7``
— the ordering ``283 s < steered < stay-put`` — along with the "quicker
decision → quicker completion" and "even quicker if checkpoint-able" claims
(``run_steering_policy_sweeps``).
"""

import pytest

from repro.analysis.experiments import (
    figure7_gae,
    run_figure7,
    run_figure7_job,
    run_steering_policy_sweeps,
    submit_pinned,
)
from repro.workloads.generators import PRIME_JOB_FREE_CPU_SECONDS, make_prime_count_task

PAPER_STEERED_COMPLETION_S = 369.0


class TestFigure7:
    @pytest.fixture(scope="class")
    def sweeps(self):
        return run_steering_policy_sweeps()

    def test_regenerate_figure7(self):
        result = run_figure7()
        print("\n" + result.to_markdown())
        steered_end, shadow_end = result.values["steered_end"], result.values["shadow_end"]
        # The paper's ordering: free-CPU bound < steered < stayed-at-A.
        assert PRIME_JOB_FREE_CPU_SECONDS < steered_end < shadow_end
        # And the steered completion lands in the paper's neighbourhood.
        assert steered_end < 1.6 * PAPER_STEERED_COMPLETION_S

    def test_quicker_decision_quicker_completion(self, sweeps):
        """§7: 'The quicker the decision is taken, the better the chance
        that it will complete quicker.'"""
        poll = sweeps.values["poll"]
        ends = [poll[interval][0] for interval in sorted(poll)]
        assert ends == sorted(ends)
        assert ends[0] < ends[-1]

    def test_checkpointable_flocking_quicker_still(self, sweeps):
        """§7: 'The job can be completed even quicker than 369 seconds if it
        is checkpoint-able and flocking is enabled.'"""
        assert sweeps.values["checkpoint_end"] < sweeps.values["restart_end"]


@pytest.mark.benchmark(group="fig7-steering")
def test_full_scenario_run_time(benchmark):
    """Wall-clock cost of simulating the whole Figure 7 experiment."""
    run = benchmark(lambda: run_figure7_job(figure7_gae()))
    assert run.steered_end > PRIME_JOB_FREE_CPU_SECONDS


@pytest.mark.benchmark(group="fig7-steering")
def test_optimizer_evaluate_latency(benchmark):
    """Latency of one optimizer evaluation (the steering loop's inner op)."""
    gae = figure7_gae()
    task = make_prime_count_task()
    submit_pinned(gae, task, "siteA")
    gae.grid.run_until(100.0)
    decision = benchmark(lambda: gae.steering.optimizer.evaluate(task.task_id))
    assert decision.should_move
