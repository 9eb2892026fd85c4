"""Unit tests for the synthetic Paragon trace generator."""

import numpy as np
import pytest

from repro.core.estimators.runtime import RuntimeEstimator
from repro.analysis.metrics import summarize_errors
from repro.workloads.downey import DowneyWorkloadGenerator


@pytest.fixture
def gen():
    return DowneyWorkloadGenerator(seed=1995)


class TestRecordShape:
    def test_all_paper_fields_present(self, gen):
        [r] = gen.generate(1)
        for field in (
            "account", "login", "partition", "nodes", "job_type", "status",
            "requested_cpu_hours", "queue", "cpu_charge_rate", "idle_charge_rate",
            "submit_time", "start_time", "end_time",
        ):
            assert hasattr(r, field)

    def test_times_ordered(self, gen):
        for r in gen.generate(50):
            assert r.submit_time <= r.start_time <= r.end_time

    def test_runtime_positive(self, gen):
        assert all(r.runtime_s >= 1.0 for r in gen.generate(50))

    def test_nodes_power_of_two(self, gen):
        for r in gen.generate(50):
            assert r.nodes & (r.nodes - 1) == 0

    def test_arrivals_increasing(self, gen):
        records = gen.generate(20)
        submits = [r.submit_time for r in records]
        assert submits == sorted(submits)

    def test_conversions(self, gen):
        [r] = gen.generate(1)
        record = r.to_task_record()
        assert record.runtime_s == pytest.approx(r.runtime_s)
        spec = r.to_task_spec()
        assert spec.owner == r.login
        task = r.to_task()
        assert task.work_seconds == pytest.approx(max(1.0, r.runtime_s))


class TestStatistics:
    def test_deterministic_per_seed(self):
        a = DowneyWorkloadGenerator(seed=3).generate(20)
        b = DowneyWorkloadGenerator(seed=3).generate(20)
        assert a == b

    def test_different_seeds_differ(self):
        a = DowneyWorkloadGenerator(seed=3).generate(20)
        b = DowneyWorkloadGenerator(seed=4).generate(20)
        assert a != b

    def test_failure_rate_roughly_respected(self):
        gen = DowneyWorkloadGenerator(seed=0, failure_rate=0.2)
        records = gen.generate(500)
        rate = sum(1 for r in records if r.status == "failed") / len(records)
        assert 0.1 < rate < 0.3

    def test_runtimes_span_orders_of_magnitude(self):
        gen = DowneyWorkloadGenerator(seed=1)
        runtimes = [r.runtime_s for r in gen.generate(300)]
        assert max(runtimes) / min(runtimes) > 50.0

    def test_family_runtimes_cluster(self):
        """Similar tasks must have similar runtimes (the §6.1 premise)."""
        gen = DowneyWorkloadGenerator(seed=2, noise_sigma=0.17)
        records = gen.generate(400)
        by_app = {}
        for r in records:
            if r.status == "successful":
                by_app.setdefault(r.application, []).append(r.runtime_s)
        cvs = [
            np.std(v) / np.mean(v) for v in by_app.values() if len(v) >= 5
        ]
        assert cvs, "expected populated families"
        assert float(np.median(cvs)) < 0.35

    def test_requests_overestimate_runtime(self, gen):
        records = [r for r in gen.generate(200) if r.status == "successful"]
        ratios = [r.requested_cpu_hours * 3600.0 / r.runtime_s for r in records]
        assert np.median(ratios) > 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DowneyWorkloadGenerator(noise_sigma=-1.0)
        with pytest.raises(ValueError):
            DowneyWorkloadGenerator(failure_rate=1.0)
        with pytest.raises(ValueError):
            DowneyWorkloadGenerator(runtime_range_s=(10.0, 5.0))
        with pytest.raises(ValueError):
            DowneyWorkloadGenerator().generate(-1)


class TestHistoryAndTests:
    def test_paper_setup_sizes(self, gen):
        history, tests = gen.history_and_tests(100, 20)
        assert len(history) == 100
        assert len(tests) == 20

    def test_test_jobs_successful_and_seen(self, gen):
        history, tests = gen.history_and_tests(100, 20)
        seen_apps = {r.executable for r in history.successful()}
        for t in tests:
            assert t.status == "successful"
            assert t.application in seen_apps

    def test_estimator_error_in_paper_band(self):
        """The headline Figure 5 property: mean |%err| lands near 13.53 %."""
        values = []
        for seed in (1995, 7, 21, 42):
            gen = DowneyWorkloadGenerator(seed=seed)
            history, tests = gen.history_and_tests(100, 20)
            estimator = RuntimeEstimator(history)
            actuals = [t.runtime_s for t in tests]
            estimates = [estimator.estimate(t.to_task_spec()).value for t in tests]
            values.append(summarize_errors(actuals, estimates).mean_abs_pct)
        assert 5.0 < float(np.mean(values)) < 25.0
