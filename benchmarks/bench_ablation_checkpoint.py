"""Ablation — checkpointing and flocking (§7's closing observation).

"The job can be completed even quicker than 369 seconds if it is
checkpoint-able and flocking is enabled between site A and Site B."

``repro.analysis.ablations.run_checkpoint_ablation`` sweeps the moment of
the move across the job's lifetime and compares restart-from-zero against
checkpointed moves; this bench asserts that the later the move, the more
work a restart throws away, so checkpointing's advantage grows linearly —
and that flocking lets queued work drain to the free pool without steering
at all.
"""

import pytest

from repro.analysis.ablations import run_checkpoint_ablation
from repro.gridsim.clock import Simulator
from repro.gridsim.condor import CondorPool
from repro.gridsim.node import Node
from repro.workloads.generators import make_prime_count_task


class TestCheckpointAblation:
    def test_checkpoint_advantage_grows_with_move_time(self):
        result = run_checkpoint_ablation()
        print("\n" + result.to_markdown())
        advantage = result.values["advantage"]
        # Checkpointing never hurts and its advantage grows with accrued work.
        assert all(a >= -1e-6 for a in advantage)
        assert advantage == sorted(advantage)
        # Saved work = accrued at move time = move_at * rate (0.4).
        assert advantage[1] == pytest.approx(100.0 * 0.4, rel=0.01)

    def test_checkpointed_move_beats_staying_even_late(self):
        values = run_checkpoint_ablation().values
        assert values["late_move_end"] < values["stay_end"]  # 707.5 s at site A

    def test_flocking_drains_queue_without_steering(self):
        """With flocking enabled, excess jobs run at the friendly pool."""
        values = run_checkpoint_ablation().values
        assert values["flock_makespan"] < values["plain_makespan"]


@pytest.mark.benchmark(group="ablation-checkpoint")
def test_vacate_and_resubmit_cost(benchmark):
    """Mechanical cost of one vacate + checkpointed resubmit."""

    def cycle():
        sim = Simulator()
        a = CondorPool(sim, "A", [Node(name="a0")])
        b = CondorPool(sim, "B", [Node(name="b0")])
        task = make_prime_count_task(checkpointable=True)
        a.submit(task)
        sim.run_until(10.0)
        ad = a.vacate(task.task_id)
        b.submit(task, initial_work=ad.accrued_work)
        return ad.accrued_work

    carried = benchmark(cycle)
    assert carried == pytest.approx(10.0)
