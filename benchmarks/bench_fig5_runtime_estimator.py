"""Figure 5 — Actual & Estimated Runtimes for 20 test cases.

Paper setup (§7): a history of 100 jobs from the SDSC Paragon accounting
trace; runtimes of 20 further jobs estimated with the history-based Runtime
Estimator (similar-task matching + mean/linear-regression statistics).

Paper result: the estimates track the actuals across the 20 cases, with a
**mean error of 13.53 %**.

This bench asserts the shape of ``repro.analysis.experiments.run_figure5``
(the 20-case series on the synthetic Paragon trace) and of its across-seed
average: the calibrated accuracy band (mean absolute percentage error
between 5 % and 25 %, averaged over seeds).  The pytest-benchmark timing
target is a single estimate call — the latency a scheduler pays per §6.1
step (b) query.
"""

import pytest

from repro.analysis.experiments import figure5_estimator, run_figure5, run_figure5_seeds


class TestFigure5:
    def test_regenerate_figure5(self):
        result = run_figure5()
        print("\n" + result.to_markdown())
        # Shape: estimates track actuals within the paper's accuracy band.
        assert result.values["n"] == 20
        assert result.values["mean_abs_pct"] < 30.0
        assert result.values["within_25_pct"] >= 0.6

    def test_accuracy_band_across_seeds(self):
        """The headline number, averaged over seeds, sits in the paper band."""
        result = run_figure5_seeds()
        print("\n" + result.to_markdown())
        assert 5.0 < result.values["mean"] < 25.0

    def test_estimates_correlate_with_actuals(self):
        assert run_figure5().values["correlation"] > 0.9  # the figure's visual "tracking"


@pytest.mark.benchmark(group="fig5-estimator")
def test_estimate_call_latency(benchmark):
    """Latency of one §6.1 estimate query (what the scheduler pays)."""
    estimator, tests = figure5_estimator()
    spec = tests[0].to_task_spec()
    result = benchmark(lambda: estimator.estimate(spec).value)
    assert result > 0.0


@pytest.mark.benchmark(group="fig5-estimator")
def test_full_figure5_run_time(benchmark):
    """End-to-end cost of regenerating the whole figure."""
    result = benchmark(run_figure5)
    assert result.values["n"] == 20
