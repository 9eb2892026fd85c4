"""Tests for the read-only web interface (the §4.2.4 download page)."""

import json
import urllib.error
import urllib.request

import pytest

from repro.gae import build_gae
from repro.gridsim import GridBuilder, Job, Task, TaskSpec
from repro.webui import GAEWebUI


@pytest.fixture
def served():
    grid = (
        GridBuilder(seed=91)
        .site("siteA", nodes=2, background_load=0.5)
        .site("siteB", nodes=2, background_load=0.0)
        .probe_noise(0.0)
        .build()
    )
    gae = build_gae(grid)
    gae.add_user("alice", "pw")
    done = Task(spec=TaskSpec(owner="alice", output_files=("out.root",)),
                work_seconds=30.0)
    running = Task(spec=TaskSpec(owner="alice"), work_seconds=5000.0)
    for t in (done, running):
        gae.scheduler.submit_job(Job(tasks=[t], owner="alice"))
    gae.load_publisher.publish_now()
    gae.grid.run_until(100.0)
    with GAEWebUI(gae) as ui:
        yield gae, ui, done, running


def fetch(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, resp.read().decode("utf-8"), dict(resp.headers)


class TestPages:
    def test_overview_lists_sites(self, served):
        gae, ui, *_ = served
        status, body, _ = fetch(ui.url)
        assert status == 200
        assert "siteA" in body and "siteB" in body
        assert "up" in body

    def test_overview_shows_down_site(self, served):
        gae, ui, *_ = served
        gae.grid.execution_services["siteA"].fail(crash_pool=False)
        _, body, _ = fetch(ui.url)
        assert "DOWN" in body

    def test_jobs_table(self, served):
        gae, ui, done, running = served
        _, body, _ = fetch(ui.url + "jobs")
        assert done.task_id in body
        assert running.task_id in body
        assert "completed" in body
        assert "running" in body

    def test_job_detail(self, served):
        gae, ui, done, _ = served
        _, body, _ = fetch(ui.url + f"job/{done.task_id}")
        assert "alice" in body
        assert "completed" in body
        assert f"/state/{done.task_id}" in body  # the download link

    def test_job_detail_unknown_is_structured_404(self, served):
        _, ui, *_ = served
        with pytest.raises(urllib.error.HTTPError) as exc:
            fetch(ui.url + "job/ghost")
        assert exc.value.code == 404
        error = json.loads(exc.value.read().decode("utf-8"))
        assert error == {
            "error": "not-found", "resource": "task", "id": "ghost", "status": 404,
        }
        assert exc.value.headers["Content-Type"] == "application/json"

    def test_job_detail_escapes_task_id(self, served):
        _, ui, *_ = served
        with pytest.raises(urllib.error.HTTPError) as exc:
            fetch(ui.url + "job/%3Cscript%3Ealert(1)%3C/script%3E")
        error = json.loads(exc.value.read().decode("utf-8"))
        # The JSON body carries the raw id; nothing is reflected as HTML.
        assert error["id"] == "<script>alert(1)</script>"
        assert exc.value.headers["Content-Type"] == "application/json"

    def test_state_download(self, served):
        gae, ui, done, _ = served
        status, body, headers = fetch(ui.url + f"state/{done.task_id}")
        assert status == 200
        state = json.loads(body)
        assert state["state"] == "completed"
        assert "attachment" in headers["Content-Disposition"]

    def test_state_missing_404(self, served):
        gae, ui, _, running = served
        with pytest.raises(urllib.error.HTTPError) as exc:
            fetch(ui.url + f"state/{running.task_id}")
        assert exc.value.code == 404
        error = json.loads(exc.value.read().decode("utf-8"))
        assert error["error"] == "not-found"
        assert error["resource"] == "execution-state"
        assert error["id"] == running.task_id

    def test_notifications_page(self, served):
        gae, ui, done, _ = served
        _, body, _ = fetch(ui.url + "notifications")
        assert "completion" in body
        assert done.task_id in body

    def test_weather_json(self, served):
        gae, ui, *_ = served
        _, body, _ = fetch(ui.url + "weather")
        weather = json.loads(body)
        assert set(weather) == {"siteA", "siteB"}

    def test_unknown_page_404(self, served):
        _, ui, *_ = served
        with pytest.raises(urllib.error.HTTPError) as exc:
            fetch(ui.url + "nope")
        assert exc.value.code == 404


class TestProgressChart:
    def test_job_detail_renders_progress_curve_from_db_history(self):
        from repro.gae import build_gae
        from repro.gridsim import GridBuilder, Job as GJob

        grid = GridBuilder(seed=92).site("s").probe_noise(0.0).build()
        gae = build_gae(grid, monitor_snapshot_period_s=20.0)
        gae.add_user("u", "pw")
        t = Task(spec=TaskSpec(owner="u"), work_seconds=100.0)
        gae.scheduler.submit_job(GJob(tasks=[t], owner="u"))
        gae.start()
        gae.grid.run_until(120.0)
        gae.stop()
        with GAEWebUI(gae) as ui:
            _, body, _ = fetch(ui.url + f"job/{t.task_id}")
        assert "Progress of" in body
        assert "progress (%)" in body

    def test_no_chart_without_history(self, served):
        gae, ui, _, running = served
        _, body, _ = fetch(ui.url + f"job/{running.task_id}")
        assert "Progress of" not in body


class TestMetricsPage:
    def test_metrics_exposition(self, served):
        gae, ui, *_ = served
        gae.client("alice", "pw")  # at least one dispatched call to count
        status, body, headers = fetch(ui.url + "metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "gae_rpc_calls_total" in body
        assert (
            'gae_rpc_calls_total{method="system.login",outcome="ok",'
            'served_from="execute",transport="inproc"} 1'
        ) in body
        assert 'gae_site_load{site="siteA"}' in body

    def test_metrics_include_latency_quantiles(self, served):
        gae, ui, done, running = served
        client = gae.client("alice", "pw")
        for _ in range(3):
            client.service("jobmon").job_status(running.task_id)
        _, body, _ = fetch(ui.url + "metrics")
        assert 'gae_rpc_latency_ms{method="jobmon.job_status",quantile="0.5"}' in body
        assert 'quantile="0.95"' in body and 'quantile="0.99"' in body

    def test_nav_links_to_metrics(self, served):
        gae, ui, *_ = served
        _, body, _ = fetch(ui.url)
        assert '<a href="/metrics">metrics</a>' in body

    def test_metrics_include_observability_registry(self, served):
        gae, ui, *_ = served
        _, body, _ = fetch(ui.url + "metrics")
        assert "gae_scheduler_jobs_planned_total" in body
        assert "gae_scheduler_tasks_planned_total" in body
        assert 'gae_execution_service_up{site="siteA"}' in body


class TestTracePages:
    def test_trace_page_renders_span_tree(self, served):
        gae, ui, done, _ = served
        status, body, _ = fetch(ui.url + f"trace/{done.task_id}")
        assert status == 200
        assert f"task:{done.task_id}" in body
        assert "run@" in body
        assert gae.observability.trace_id_of(done.task_id) in body

    def test_timeline_json(self, served):
        gae, ui, done, _ = served
        status, body, _ = fetch(ui.url + f"timeline/{done.task_id}")
        assert status == 200
        timeline = json.loads(body)
        assert timeline["task_id"] == done.task_id
        types = [e["type"] for e in timeline["events"]]
        assert types[0] == "submitted"
        assert "completed" in types
        trace_ids = {e["trace_id"] for e in timeline["events"]}
        assert trace_ids == {gae.observability.trace_id_of(done.task_id)}

    def test_trace_unknown_task_404(self, served):
        _, ui, *_ = served
        for page in ("trace", "timeline"):
            with pytest.raises(urllib.error.HTTPError) as exc:
                fetch(ui.url + f"{page}/ghost")
            assert exc.value.code == 404
            error = json.loads(exc.value.read().decode("utf-8"))
            assert error["error"] == "not-found"

    def test_trace_disabled_503(self):
        grid = GridBuilder(seed=93).site("s").probe_noise(0.0).build()
        gae = build_gae(grid, observability=False)
        assert gae.observability is None
        with GAEWebUI(gae) as ui:
            with pytest.raises(urllib.error.HTTPError) as exc:
                fetch(ui.url + "trace/task-000001")
            assert exc.value.code == 503

    def test_job_detail_links_to_trace(self, served):
        gae, ui, done, _ = served
        _, body, _ = fetch(ui.url + f"job/{done.task_id}")
        assert f"/trace/{done.task_id}" in body
        assert f"/timeline/{done.task_id}" in body
