"""Ablation — the adaptive steering agent (§1's learned policies).

``repro.analysis.ablations.run_agent_ablation`` compares three regimes on
a stream of jobs landing on a loaded site:

1. **no steering** — jobs grind to completion where they land;
2. **default policy** — the shipped SteeringPolicy;
3. **learned policy** — the policy an AdaptiveSteeringAgent distilled from
   two manual expert moves.

The learned policy should recover most of the default policy's advantage
over no steering — evidence that watching experts is enough to bootstrap
automation, the paper's §1 thesis.
"""

import pytest

from repro.analysis.ablations import run_agent_ablation
from repro.core.steering.agent import AdaptiveSteeringAgent


class TestAgentAblation:
    def test_learned_policy_recovers_most_of_the_benefit(self):
        result = run_agent_ablation()
        print("\n" + result.to_markdown())
        none_mean = result.values["no steering"]
        default_mean = result.values["default policy"]
        learned_mean = result.values["learned policy"]
        assert default_mean < none_mean
        assert learned_mean < none_mean
        # The learned policy captures at least half the default's saving.
        assert none_mean - learned_mean >= 0.5 * (none_mean - default_mean)


@pytest.mark.benchmark(group="ablation-agent")
def test_agent_observation_cost(benchmark):
    """Cost of recording one manual-move observation."""
    from repro.core.monitoring.records import MonitoringRecord

    agent = AdaptiveSteeringAgent()
    record = MonitoringRecord(
        task_id="t", job_id="j", site="s", status="running",
        elapsed_time_s=40.0, estimated_run_time_s=283.0, remaining_time_s=243.0,
        progress=0.14, queue_position=-1, priority=0, submission_time=0.0,
        execution_time=0.0, completion_time=None, cpu_time_used_s=40.0,
        input_io_mb=0.0, output_io_mb=0.0, owner="u",
    )
    benchmark(lambda: agent.observe_manual_move(100.0, record))
    assert agent.n_observations > 0
