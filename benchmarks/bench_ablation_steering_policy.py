"""Ablation — steering-policy design choices.

§7 names the factors that "must be taken into account when deciding whether
a job should be transferred or allowed to run to completion": how quickly
the decision is taken, and the cost of moving (data transfer, restart).
``repro.analysis.experiments.run_steering_policy_sweeps`` sweeps them on
the Figure 7 job; this bench asserts where each crossover falls:

- poll interval × detection threshold → completion time (the decision-speed
  claim, quantified);
- site-A load level → move-vs-stay crossover (below some load, moving is
  not worth it and the optimizer must decline);
- input-data size → the transfer-cost crossover for a data-heavy job.
"""

from dataclasses import replace

import pytest

from repro.analysis.experiments import figure7_gae, run_steering_policy_sweeps, submit_pinned
from repro.workloads.generators import PRIME_JOB_FREE_CPU_SECONDS, make_prime_count_task


class TestPolicySweep:
    @pytest.fixture(scope="class")
    def sweeps(self):
        result = run_steering_policy_sweeps()
        print("\n" + result.to_markdown())
        return result.values

    def test_poll_interval_sweep(self, sweeps):
        poll = sweeps["poll"]
        # Monotone: slower polling never completes sooner.
        intervals = sorted(poll)
        for a, b in zip(intervals, intervals[1:]):
            assert poll[a][0] <= poll[b][0] + 1e-6

    def test_threshold_sweep(self, sweeps):
        threshold = sweeps["threshold"]
        # At threshold 0.3 the 0.4-rate job is *not* slow -> no move.
        end_no_move, moves_no_move = threshold[0.3]
        assert moves_no_move == 0
        assert end_no_move == pytest.approx(
            PRIME_JOB_FREE_CPU_SECONDS * 2.5, rel=0.01
        )  # 283 / 0.4

    def test_move_vs_stay_crossover_in_load(self, sweeps):
        """Below some site-A load, the optimizer must decline to move."""
        load = sweeps["load"]
        moved_at = {level: moves > 0 for level, (_, moves) in load.items()}
        assert not moved_at[0.1]   # healthy rate 0.91 -> stays
        assert moved_at[3.0]       # rate 0.25 -> moves
        # Crossover is monotone: once it moves, heavier load still moves.
        loads = sorted(moved_at)
        first_move = next(level for level in loads if moved_at[level])
        assert all(moved_at[level] for level in loads if level >= first_move)

    def test_transfer_cost_crossover(self, sweeps):
        """A data-heavy job over a thin pipe should stay put; the same job
        over a fat pipe should move (the §7 'time taken to transfer the
        data files' factor)."""
        pipe = sweeps["pipe"]
        (_, moves_fat), (_, moves_thin) = pipe[1000.0], pipe[1.5]
        assert moves_fat >= 1
        assert moves_thin == 0


@pytest.mark.benchmark(group="ablation-steering")
def test_steering_loop_pass_cost(benchmark):
    """Cost of one steering-loop pass over an active task set."""
    gae = figure7_gae()
    gae.steering.adopt_policy(replace(gae.steering.policy, auto_move=False))
    for _ in range(10):
        submit_pinned(gae, make_prime_count_task(), "siteA")
    gae.grid.run_until(100.0)
    benchmark(gae.steering.steer_once)
