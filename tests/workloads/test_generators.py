"""Unit tests for concrete job generators."""

import numpy as np
import pytest

from repro.workloads.generators import (
    PRIME_JOB_FREE_CPU_SECONDS,
    bag_of_batch_tasks,
    count_primes,
    make_prime_count_task,
    physics_analysis_job,
    prime_job_history_records,
)


class TestCountPrimes:
    """Known prime-counting values pin the real workload's correctness."""

    @pytest.mark.parametrize(
        "limit,expected",
        [(0, 0), (2, 0), (3, 1), (10, 4), (100, 25), (1000, 168), (10000, 1229)],
    )
    def test_known_values(self, limit, expected):
        assert count_primes(limit) == expected


class TestPrimeCountTask:
    def test_defaults_match_paper(self):
        t = make_prime_count_task()
        assert t.work_seconds == PRIME_JOB_FREE_CPU_SECONDS == 283.0
        assert t.spec.executable == "prime_counter"
        assert t.spec.requested_cpu_hours == pytest.approx(283.0 / 3600.0)
        assert not t.checkpointable

    def test_checkpointable_variant(self):
        assert make_prime_count_task(checkpointable=True).checkpointable

    def test_history_records_near_283(self):
        records = prime_job_history_records(n=10, sigma=0.02)
        runtimes = [r.runtime_s for r in records]
        assert np.mean(runtimes) == pytest.approx(283.0, rel=0.05)
        assert all(r.executable == "prime_counter" for r in records)

    def test_history_records_deterministic(self):
        a = [r.runtime_s for r in prime_job_history_records(seed=3)]
        b = [r.runtime_s for r in prime_job_history_records(seed=3)]
        assert a == b


class TestPhysicsAnalysisJob:
    def test_dag_shape(self):
        job = physics_analysis_job("alice", n_analysis_tasks=3)
        assert len(job.tasks) == 5  # stage + 3 + merge
        stage = job.tasks[0]
        merge = job.tasks[-1]
        assert job.parents(stage.task_id) == ()
        for analysis in job.tasks[1:-1]:
            assert job.parents(analysis.task_id) == (stage.task_id,)
        assert set(job.parents(merge.task_id)) == {
            t.task_id for t in job.tasks[1:-1]
        }

    def test_file_flow(self):
        job = physics_analysis_job("alice", n_analysis_tasks=2, dataset_files=("raw.dat",))
        stage = job.tasks[0]
        assert stage.spec.input_files == ("raw.dat",)
        assert stage.spec.output_files == ("staged.dat",)
        merge = job.tasks[-1]
        assert merge.spec.input_files == ("histo_00.root", "histo_01.root")

    def test_jitter_with_rng(self):
        rng = np.random.default_rng(0)
        job = physics_analysis_job("alice", n_analysis_tasks=4, rng=rng)
        works = [t.work_seconds for t in job.tasks[1:-1]]
        assert len(set(works)) > 1  # jittered

    def test_validation(self):
        with pytest.raises(ValueError):
            physics_analysis_job("alice", n_analysis_tasks=0)


class TestBagOfBatchTasks:
    def test_shape_and_determinism(self):
        a = bag_of_batch_tasks("u", 10, np.random.default_rng(1))
        assert len(a.tasks) == 10
        assert a.dependencies == {}
        b = bag_of_batch_tasks("u", 10, np.random.default_rng(1))
        assert [t.work_seconds for t in a.tasks] == [t.work_seconds for t in b.tasks]

    def test_mixed_priorities(self):
        job = bag_of_batch_tasks("u", 30, np.random.default_rng(2))
        assert len({t.priority for t in job.tasks}) > 1

    def test_validation(self):
        with pytest.raises(ValueError):
            bag_of_batch_tasks("u", 0, np.random.default_rng(0))
