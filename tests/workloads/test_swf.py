"""Unit tests for the SWF trace reader."""

import numpy as np
import pytest

from repro.workloads.swf import (
    SwfParseError,
    read_swf,
    swf_history_and_tests,
    swf_to_history,
)

HEADER = """\
; SWF test fixture
; Computer: Test Paragon
; MaxJobs: 5
"""


def swf_line(
    job=1, submit=0.0, wait=10.0, run=100.0, procs=4, req_time=200.0,
    status=1, user=3, group=1, app=7, queue=2, partition=1,
):
    # 18 fields, 1-indexed per the SWF spec.
    fields = [
        job, submit, wait, run, procs,
        -1,            # 6 avg cpu time used
        -1,            # 7 used memory
        req_time,      # 8 requested time
        -1,            # 9 requested memory
        -1,            # 10 requested processors? (order per spec: 8 req procs...)
        status,        # 11 status
        user,          # 12 user id
        group,         # 13 group id
        app,           # 14 executable number
        queue,         # 15 queue number
        partition,     # 16 partition number
        -1,            # 17 preceding job
        -1,            # 18 think time
    ]
    return " ".join(str(f) for f in fields)


def synthetic_swf(n=150, seed=0):
    """An SWF text with per-app clustered runtimes."""
    rng = np.random.default_rng(seed)
    lines = [HEADER]
    base = {app: float(rng.uniform(100, 5000)) for app in range(5)}
    t = 0.0
    for i in range(1, n + 1):
        app = int(rng.integers(0, 5))
        run = base[app] * float(rng.lognormal(0.0, 0.15))
        t += float(rng.exponential(300.0))
        # Requests pad the *family* runtime, independently of this run's
        # noise — otherwise regression would back the runtime out exactly.
        req = base[app] * 1.5 * float(rng.uniform(0.8, 1.3))
        lines.append(
            swf_line(job=i, submit=t, run=run, app=app, user=app % 3,
                     req_time=req, status=1 if rng.random() > 0.05 else 0)
        )
    return "\n".join(lines)


class TestParsing:
    def test_comments_and_blanks_skipped(self):
        text = HEADER + "\n" + swf_line() + "\n\n" + swf_line(job=2)
        jobs = read_swf(text)
        assert [j.job_number for j in jobs] == [1, 2]

    def test_fields_mapped(self):
        [job] = read_swf(swf_line(run=123.0, procs=8, user=42, app=9, status=1))
        assert job.run_time == 123.0
        assert job.processors == 8
        assert job.user_id == 42
        assert job.executable_number == 9
        assert job.successful

    def test_failed_status(self):
        [job] = read_swf(swf_line(status=0))
        assert not job.successful

    def test_limit(self):
        text = "\n".join(swf_line(job=i) for i in range(1, 11))
        assert len(read_swf(text, limit=4)) == 4

    def test_short_line_rejected(self):
        with pytest.raises(SwfParseError):
            read_swf("1 2 3")

    def test_non_numeric_rejected(self):
        bad = swf_line().replace("100.0", "abc")
        with pytest.raises(SwfParseError):
            read_swf(bad)

    def test_file_path_source(self, tmp_path):
        path = tmp_path / "trace.swf"
        path.write_text(HEADER + swf_line())
        assert len(read_swf(path)) == 1


class TestConversion:
    def test_task_record_mapping(self):
        [job] = read_swf(swf_line(run=100.0, wait=10.0, submit=5.0, req_time=200.0))
        record = job.to_task_record()
        assert record.runtime_s == 100.0
        assert record.requested_cpu_hours == pytest.approx(200.0 / 3600.0)
        assert record.start_time == 15.0
        assert record.end_time == 115.0
        assert record.executable == "app7"
        assert record.status == "successful"

    def test_unknown_request_falls_back_to_runtime(self):
        [job] = read_swf(swf_line(req_time=-1, run=100.0))
        assert job.to_task_record().requested_cpu_hours == pytest.approx(100.0 / 3600.0)

    def test_to_task(self):
        [job] = read_swf(swf_line(run=100.0, procs=2))
        task = job.to_task()
        assert task.work_seconds == 100.0
        assert task.spec.nodes == 2

    def test_history_conversion(self):
        jobs = read_swf(synthetic_swf(50))
        history = swf_to_history(jobs)
        assert len(history) == 50


class TestFigure5OnSwf:
    def test_history_and_tests_protocol(self):
        jobs = read_swf(synthetic_swf(160))
        history, tests = swf_history_and_tests(jobs, n_history=100, n_tests=20)
        assert len(history) == 100
        assert len(tests) == 20
        assert all(t.successful for t in tests)

    def test_trace_too_short_rejected(self):
        jobs = read_swf(synthetic_swf(50))
        with pytest.raises(SwfParseError):
            swf_history_and_tests(jobs, n_history=100, n_tests=20)

    def test_estimator_works_on_swf_trace(self, tmp_path):
        """The full Figure 5 pipeline (what ``gae-repro figure5 --swf``
        runs) over an SWF source."""
        from repro.analysis.experiments import run_figure5

        path = tmp_path / "trace.swf"
        path.write_text(synthetic_swf(200, seed=4))
        result = run_figure5(n_history=120, n_tests=20, swf=path)
        assert [len(s.x) for s in result.figure.series] == [20, 20]
        rows = {row[0]: row[2] for row in result.comparison}
        assert rows["mean |% error|"] < 40.0  # clustered runtimes are learnable
        assert "trace.swf" in result.notes
