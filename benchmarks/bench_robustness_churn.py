"""Robustness — throughput under execution-service churn.

§4.2.4 exists because grid sites die;
``repro.analysis.ablations.run_churn_robustness`` quantifies what Backup &
Recovery buys.  A batch of jobs runs on a three-site grid while two sites
churn through seeded MTBF/MTTR failure cycles; this bench asserts that

- with B&R's sweep running, every job completes; makespan degrades
  gracefully as churn intensifies;
- with recovery disabled, jobs stranded on crashed sites never finish.
"""

import pytest

from repro.analysis.ablations import CHURN_JOBS, run_churn_robustness


class TestChurnRobustness:
    @pytest.fixture(scope="class")
    def churn(self):
        result = run_churn_robustness()
        print("\n" + result.to_markdown())
        return result.values

    def test_makespan_degrades_gracefully_with_churn(self, churn):
        done = {label: churn[label][0] for label in ("none", "mild", "harsh")}
        makespan = {label: churn[label][1] for label in ("none", "mild", "harsh")}
        # Everything completes at every churn level (B&R running) ...
        assert set(done.values()) == {CHURN_JOBS}
        # ... and churn costs time, monotonically.
        assert makespan["none"] <= makespan["mild"] <= makespan["harsh"]

    def test_without_recovery_jobs_strand(self, churn):
        """The counterfactual: kill B&R resubmission and some jobs die with
        their sites."""
        assert churn["harsh"][0] == CHURN_JOBS
        assert churn["harsh_without_recovery"] < CHURN_JOBS
