"""Ablation — runtime-estimator design choices.

The paper picks history-based statistical prediction (§6.1, related work
§8 category 3) with *mean and linear regression* over similar tasks found
via templates.  ``repro.analysis.ablations.run_estimator_ablation``
quantifies each choice on the synthetic Paragon workload; this bench
asserts who wins:

- estimate method: mean vs regression vs auto vs the naive baseline of
  trusting the user's requested CPU hours (what a scheduler does with no
  estimator at all);
- template selection: the fixed specificity ladder vs the greedy
  Smith/Taylor/Foster search vs no templates (global history);
- history size: accuracy as the history grows from 10 to 400 jobs.
"""

import pytest

from repro.analysis.ablations import run_estimator_ablation
from repro.core.estimators.similarity import GreedyTemplateSearch
from repro.workloads.downey import DowneyWorkloadGenerator


class TestEstimatorAblation:
    def test_method_and_template_sweep(self):
        result = run_estimator_ablation()
        print("\n" + result.to_markdown())
        means = result.values["variant_means"]
        # The paper's choice (history + templates) must beat both baselines.
        assert means["auto"] < means["requested-hours baseline"]
        assert means["auto"] < means["no templates (global mean)"]
        # Greedy search is competitive with the fixed ladder (within 2x).
        assert means["greedy templates"] < 2.0 * means["auto"]

    def test_history_size_sweep(self):
        """More history → (weakly) better estimates, then diminishing."""
        by_size = run_estimator_ablation().values["history_means"]
        assert by_size[400] < by_size[10]  # history helps


@pytest.mark.benchmark(group="ablation-estimator")
def test_greedy_search_cost(benchmark):
    """One-off cost of the greedy template search over a 100-job history."""
    gen = DowneyWorkloadGenerator(seed=1995)
    history, _ = gen.history_and_tests(100, 5)
    search = GreedyTemplateSearch()
    result = benchmark(lambda: search.search(history))
    assert result.error < float("inf")
