"""Integration test: the full Figure 7 steering scenario.

The paper's experiment: a 283 s (free-CPU) prime-counting job runs on
site A under significant CPU load; the steering service monitors it via the
job monitoring service, detects the slow execution rate, and reschedules it
to a free site B, where it completes far sooner than it would have at A —
369 s total in the paper, versus the 283 s free-CPU bound.

The testbed and the run are ``repro.analysis.experiments``' — the ones the
figure bench, ``gae-repro figure7`` and ``FIGURES.json`` use.
"""

import pytest

from repro.analysis.experiments import figure7_gae, run_figure7_job
from repro.gridsim import JobState
from repro.workloads.generators import PRIME_JOB_FREE_CPU_SECONDS

SITE_A_LOAD = 1.5  # "significant CPU load" -> progress rate 0.4


class TestFigure7:
    def test_job_is_moved_and_completes(self):
        gae = figure7_gae()
        run = run_figure7_job(gae)
        assert run.task.state is JobState.COMPLETED
        moves = [a for a in gae.steering.actions if a.result and a.result.ok]
        assert len(moves) == run.moves == 1
        assert moves[0].decision.current_site == "siteA"
        assert moves[0].decision.target_site == "siteB"
        assert gae.grid.execution_services["siteB"].pool.has_task(run.task.task_id)

    def test_steered_completion_beats_staying(self):
        end = run_figure7_job(figure7_gae(site_a_load=SITE_A_LOAD)).steered_end
        stay_put_time = PRIME_JOB_FREE_CPU_SECONDS * (1 + SITE_A_LOAD)  # 707.5 s
        assert end < stay_put_time
        # ... but cannot beat the free-CPU bound (paper's dashed line).
        assert end > PRIME_JOB_FREE_CPU_SECONDS

    def test_completion_near_paper_shape(self):
        """Paper: moved job finished at ~369 s with a ~283 s bound.  Our
        detection fires at the first poll past the grace period, so the
        completed time is 283 + (decision time) + (restart losses)."""
        end = run_figure7_job(figure7_gae()).steered_end
        assert PRIME_JOB_FREE_CPU_SECONDS < end < 450.0

    def test_quicker_decision_quicker_completion(self):
        """Paper: 'The quicker the decision is taken, the better the chance
        that it will complete quicker.'"""
        ends = {
            poll: run_figure7_job(figure7_gae(poll_interval_s=poll)).steered_end
            for poll in (10.0, 120.0)
        }
        assert ends[10.0] < ends[120.0]

    def test_checkpointing_completes_even_quicker(self):
        """Paper: 'The job can be completed even quicker than 369 seconds if
        it is checkpoint-able and flocking is enabled.'"""
        plain_end = run_figure7_job(figure7_gae()).steered_end
        ckpt_end = run_figure7_job(figure7_gae(), checkpointable=True).steered_end
        assert ckpt_end < plain_end

    def test_progress_curves_have_paper_shape(self):
        """Site A's curve rises slowly; after the move the steered job's
        progress rises at the free-CPU rate and reaches 100 % first."""
        run = run_figure7_job(figure7_gae(), chart=True)
        at_a = [(t, pct) for t, pct in run.steered_curve if t < run.decision_at]
        at_b = [(t, pct) for t, pct in run.steered_curve if t >= run.decision_at]
        assert at_a and at_b
        # Slow rise at A: strictly below the free-CPU reference line t/283 —
        # for the steered job until it moves, for the shadow throughout.
        for t, pct in at_a[1:] + run.shadow_curve[1:]:
            assert pct / 100.0 < t / PRIME_JOB_FREE_CPU_SECONDS + 1e-9
        # Restarted from zero at B, completed there — before the shadow.
        assert at_b[0][1] == 0.0
        assert at_b[-1][1] == pytest.approx(100.0)
        finished = next(t for t, pct in run.steered_curve if pct >= 100.0 - 1e-9)
        assert dict(run.shadow_curve)[finished] < 100.0
