"""Tests for the read-only web interface (the §4.2.4 download page).

The UI is a Clarens client: each test serves the pages of one logged-in
principal, ``GAEWebUI(gae.client(user, password))``.
"""

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
    with GAEWebUI(gae.client("alice", "pw")) as ui:
        yield gae, ui, done, running


def fetch(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, resp.read().decode("utf-8"), dict(resp.headers)


class TestPages:
    def test_overview_lists_sites(self, served):
        gae, ui, *_ = served
        status, body, _ = fetch(ui.url)
        assert status == 200
        assert "<td>siteA</td><td>1.00</td>" in body  # the published loads
        assert "<td>siteB</td><td>0.50</td>" in body

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
        with GAEWebUI(gae.client("u", "pw")) as ui:
            _, body, _ = fetch(ui.url + f"job/{t.task_id}")
        assert "Progress of" in body
        assert "progress (%)" in body

    def test_no_chart_without_history(self, served):
        gae, ui, _, running = served
        _, body, _ = fetch(ui.url + f"job/{running.task_id}")
        assert "Progress of" not in body


class TestFaults:
    def test_health_disabled_is_503(self):
        grid = GridBuilder(seed=93).site("s").probe_noise(0.0).build()
        gae = build_gae(grid, observability=False)
        gae.add_user("u", "pw")
        with GAEWebUI(gae.client("u", "pw")) as ui:
            with pytest.raises(urllib.error.HTTPError) as exc:
                fetch(ui.url + "health")
        assert exc.value.code == 503
        assert json.loads(exc.value.read()) == {"error": "health-disabled", "status": 503}

    def test_any_other_fault_is_a_502(self, served):
        gae, ui, *_ = served
        ui.client.logout()  # the host now refuses the UI's session
        with pytest.raises(urllib.error.HTTPError) as exc:
            fetch(ui.url + "jobs")
        assert exc.value.code == 502
        assert exc.value.read().decode().startswith("the host answered 401: ")


def two_users():
    """A GAE where alice and bob each ran one task to completion."""
    grid = GridBuilder(seed=94).site("s", nodes=2).probe_noise(0.0).build()
    gae = build_gae(grid)
    tasks = {}
    for user in ("alice", "bob"):
        gae.add_user(user, "pw")
        tasks[user] = Task(spec=TaskSpec(owner=user), work_seconds=30.0)
        gae.scheduler.submit_job(Job(tasks=[tasks[user]], owner=user))
    gae.grid.run_until(100.0)
    return gae, tasks["alice"].task_id, tasks["bob"].task_id


class TestPrincipals:
    def test_a_second_user_sees_only_their_own_tasks(self):
        gae, alices, bobs = two_users()
        with GAEWebUI(gae.client("bob", "pw")) as ui:
            _, jobs, _ = fetch(ui.url + "jobs")
            _, notes, _ = fetch(ui.url + "notifications")
            _, state, _ = fetch(ui.url + f"state/{bobs}")
            with pytest.raises(urllib.error.HTTPError) as exc:
                fetch(ui.url + f"state/{alices}")
        assert bobs in jobs and alices not in jobs
        assert bobs in notes and alices not in notes
        assert json.loads(state)["state"] == "completed"
        assert exc.value.code == 404
        assert json.loads(exc.value.read()) == {
            "error": "not-found", "resource": "execution-state", "id": alices,
            "status": 404,
        }

    def test_every_page_is_the_principals_own_calls(self):
        gae, _, bobs = two_users()
        reader = gae.client("alice", "pw")  # reads the ring; its own calls are skipped
        pages = {
            "": ["monalisa.grid_weather"],
            "jobs": ["steering.my_jobs", "system.multicall", "jobmon.job_tasks"],
            f"job/{bobs}": ["jobmon.job_info", "steering.download_execution_state",
                            "jobmon.progress_history"],
            f"state/{bobs}": ["steering.download_execution_state"],
            "notifications": ["steering.notifications"],
            "health": ["system.health"],
            "weather": ["monalisa.grid_weather"],
        }
        with GAEWebUI(gae.client("bob", "pw")) as ui:
            for page, methods in pages.items():
                before = len(reader.call("system.recent_calls", -1))
                fetch(ui.url + page)
                # Skip the row of the recent_calls call that read *before*.
                rows = reader.call("system.recent_calls", -1)[before + 1:]
                assert [r["method"] for r in rows] == methods, page
                assert {(r["transport"], r["principal"], r["outcome"]) for r in rows} == {
                    ("inproc", "bob", "ok")
                }, page
