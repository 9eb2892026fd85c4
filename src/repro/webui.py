"""A read-only web interface: one Clarens client's answers as HTML.

§4.2.4: after a job completes, Backup & Recovery archives its execution
state, which "is made available for download on the web interface."  This
module is that interface — a small HTTP server (stdlib) that renders the
answers of one logged-in :class:`~repro.clarens.ClarensClient` as HTML
tables and serves execution states as JSON downloads.  Every page is its
principal's own calls, so the Session Manager and the ACL decide what it
shows, and every call is an ``rpc:`` span on the host:

- ``/``                 — overview: each site's latest load
  (``monalisa.grid_weather``)
- ``/jobs``             — the principal's tasks (``steering.my_jobs``, then
  ``jobmon.job_tasks`` per job in one batch)
- ``/job/<task_id>``    — one task's monitoring record
  (``jobmon.job_info``) and its progress chart
  (``jobmon.progress_history``)
- ``/state/<task_id>``  — the archived execution state
  (``steering.download_execution_state``, a JSON download)
- ``/notifications``    — Backup & Recovery's notifications to the
  principal (``steering.notifications``)
- ``/health``           — the health rules' live state and transition
  history (``system.health``)
- ``/weather``          — the grid-weather snapshot (JSON)

A per-task read the host answers with a :class:`~repro.clarens.RemoteFault`
gets a structured JSON 404 (machine-readable, like the Clarens fault
shape); any other fault is a 502.  Read-only by design: steering
*commands* go through the Clarens API, never through a browser GET.  The
server answers one request at a time, so a client whose transport is not
thread-safe is never called from two threads.
"""

from __future__ import annotations

import html
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import unquote

from repro.clarens import ClarensClient, ClarensFault, RemoteFault

_PAGE = """<!DOCTYPE html>
<html><head><title>GAE — {title}</title>
<style>
 body {{ font-family: sans-serif; margin: 2em; }}
 table {{ border-collapse: collapse; }}
 th, td {{ border: 1px solid #999; padding: 4px 10px; text-align: left; }}
 th {{ background: #eee; }}
 nav a {{ margin-right: 1.2em; }}
</style></head>
<body>
<nav><a href="/">overview</a><a href="/jobs">jobs</a>
<a href="/notifications">notifications</a><a href="/health">health</a>
<a href="/weather">grid weather</a></nav>
<h1>{title}</h1>
{body}
<p><small>Grid Analysis Environment</small></p>
</body></html>"""


def _table(headers: List[str], rows: List[List[Any]]) -> str:
    head = "".join(f"<th>{html.escape(str(h))}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{cell}</td>" for cell in row) + "</tr>"
        for row in rows
    )
    return f"<table><tr>{head}</tr>{body}</table>"


def _esc(value: Any) -> str:
    return html.escape(str(value))


class _PageHandler(BaseHTTPRequestHandler):
    client: ClarensClient  # injected by GAEWebUI

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        try:
            path = unquote(self.path.split("?", 1)[0]).rstrip("/") or "/"
            if path == "/":
                self._send_html("Overview", self._overview())
            elif path == "/jobs":
                self._send_html("Jobs", self._jobs())
            elif path.startswith("/job/"):
                task_id = path[len("/job/"):]
                body = self._job_detail(task_id)
                if body is None:
                    self._send_not_found("task", task_id)
                else:
                    self._send_html("Job detail", body)
            elif path.startswith("/state/"):
                self._send_state(path[len("/state/"):])
            elif path == "/notifications":
                self._send_html("Notifications", self._notifications())
            elif path == "/health":
                self._send_health()
            elif path == "/weather":
                self._send_json(self.client.call("monalisa.grid_weather"))
            else:
                self._send_text(404, f"no such page: {path}")
        except ClarensFault as exc:
            self._send_text(502, f"the host answered {exc.code}: {exc.message}")

    # ------------------------------------------------------------------
    # page bodies
    # ------------------------------------------------------------------
    def _overview(self) -> str:
        weather = self.client.call("monalisa.grid_weather")
        return _table(
            ["site", "load"],
            [[_esc(site), f"{load:.2f}"] for site, load in sorted(weather.items())],
        )

    def _jobs(self) -> str:
        jobs = self.client.call("steering.my_jobs")
        answers = self.client.batch_reads(
            [("jobmon.job_tasks", job["job_id"]) for job in jobs]
        )
        records = []
        for answer in answers:
            if not answer.ok:
                fault = ClarensFault(answer.error)
                fault.code = answer.code
                raise fault
            records.extend(answer.result)
        rows = [
            [
                f'<a href="/job/{_esc(r["task_id"])}">{_esc(r["task_id"])}</a>',
                _esc(r["job_id"]), _esc(r["owner"]), _esc(r["site"]), _esc(r["status"]),
                f"{r['progress'] * 100:.1f}%", f"{r['elapsed_time_s']:.1f}",
            ]
            for r in sorted(records, key=lambda r: r["task_id"])
        ]
        return _table(
            ["task", "job", "owner", "site", "status", "progress", "elapsed (s)"],
            rows,
        )

    def _job_detail(self, task_id: str) -> Optional[str]:
        try:
            record = self.client.call("jobmon.job_info", task_id)
        except RemoteFault:
            return None
        rows = [[_esc(k), _esc(v)] for k, v in sorted(record.items())]
        extra = ""
        if self._execution_state(task_id) is not None:
            extra = (
                f'<p><a href="/state/{_esc(task_id)}">download execution state'
                "</a> (JSON)</p>"
            )
        # With continuous monitoring enabled, render the Figure 7-style
        # progress curve from the DB's snapshot history.
        history = self.client.call("jobmon.progress_history", task_id)
        if len(history) >= 2:
            from repro.analysis.figures import FigureData  # numpy loads with a chart

            figure = FigureData(
                title=f"Progress of {task_id}",
                x_label="simulated time (s)",
                y_label="progress (%)",
            ).add(
                "progress",
                [h["snapshot_time"] for h in history],
                [h["progress"] * 100.0 for h in history],
            )
            extra += "<pre>" + html.escape(figure.render()) + "</pre>"
        return _table(["field", "value"], rows) + extra

    def _execution_state(self, task_id: str) -> Optional[Dict[str, Any]]:
        """The archived state, or None when the host refuses the read."""
        try:
            return self.client.call("steering.download_execution_state", task_id)
        except RemoteFault:
            return None

    def _notifications(self) -> str:
        rows = [
            [f"{n['time']:.1f}", _esc(n["kind"]), _esc(n["task_id"]),
             _esc(n["site"]), _esc(n["detail"])]
            for n in self.client.call("steering.notifications")
        ]
        return _table(["time (s)", "kind", "task", "site", "detail"], rows)

    def _send_health(self) -> None:
        snap = self.client.call("system.health")
        if not snap["enabled"]:
            self._send_json({"error": "health-disabled", "status": 503}, code=503)
            return
        firing = snap["firing"]
        headline = (
            f"<p><strong>{firing} rule(s) firing</strong></p>"
            if firing
            else "<p>all rules ok</p>"
        )
        rule_rows = []
        transition_rows = []
        for rule in snap["rules"]:
            rule_rows.append([
                _esc(rule["name"]), _esc(rule["kind"]), _esc(rule["severity"]),
                _esc(rule["state"]), f"{rule['since_s']:.1f}",
                "" if rule["value"] is None else f"{rule['value']:.4g}",
                _esc(rule["op"]) + " " + f"{rule['threshold']:.4g}",
                rule["evaluations"],
            ])
            for t in rule["transitions"]:
                transition_rows.append(
                    (t["time_s"], rule["name"], t["to"], t["value"])
                )
        transition_rows.sort(key=lambda r: (r[0], r[1]))
        body = headline + _table(
            ["rule", "kind", "severity", "state", "since (s)", "value",
             "condition", "evaluations"],
            rule_rows,
        )
        if transition_rows:
            body += "<h2>Transitions</h2>" + _table(
                ["time (s)", "rule", "to", "value"],
                [
                    [f"{t:.1f}", _esc(name), _esc(to),
                     "" if value is None else f"{value:.4g}"]
                    for t, name, to, value in transition_rows
                ],
            )
        body += (
            f"<p><small>window {snap['window_s']:.0f}s · "
            f"{snap['windows_closed']} windows closed</small></p>"
        )
        self._send_html("Health", body)

    def _send_state(self, task_id: str) -> None:
        state = self._execution_state(task_id)
        if state is None:
            self._send_not_found("execution-state", task_id)
            return
        self._send_json(state, headers={
            "Content-Disposition": f'attachment; filename="{task_id}-state.json"'
        })

    # ------------------------------------------------------------------
    # response plumbing
    # ------------------------------------------------------------------
    def _send(
        self, code: int, content_type: str, text: str, headers: Dict[str, str]
    ) -> None:
        payload = text.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_html(self, title: str, body: str) -> None:
        text = _PAGE.format(title=html.escape(title), body=body)
        self._send(200, "text/html; charset=utf-8", text, {})

    def _send_text(self, code: int, message: str) -> None:
        self._send(code, "text/plain; charset=utf-8", message, {})

    def _send_json(
        self, value: Any, code: int = 200, headers: Optional[Dict[str, str]] = None
    ) -> None:
        self._send(code, "application/json", json.dumps(value, indent=2), headers or {})

    def _send_not_found(self, resource: str, identifier: str) -> None:
        """Structured 404: machine-readable JSON, not bare text."""
        self._send_json(
            {"error": "not-found", "resource": resource, "id": identifier,
             "status": 404},
            code=404,
        )


class GAEWebUI:
    """Serves the read-only pages of one logged-in Clarens client.

    Use as a context manager::

        with GAEWebUI(gae.client("alice", "secret")) as ui:
            print("browse", ui.url)
    """

    def __init__(
        self, client: ClarensClient, bind: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.client = client
        handler = type("BoundHandler", (_PageHandler,), {"client": client})
        self._server = HTTPServer((bind, port), handler)
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="gae-webui", daemon=True
        )
        self._started = False

    def start(self) -> "GAEWebUI":
        """Begin serving in a background thread."""
        if not self._started:
            self._thread.start()
            self._started = True
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """(host, port) the UI is bound to."""
        return self._server.server_address  # type: ignore[return-value]

    @property
    def url(self) -> str:
        """Root URL of the pages."""
        bind, port = self.address
        return f"http://{bind}:{port}/"

    def shutdown(self) -> None:
        """Stop serving and release the socket."""
        if self._started:
            self._server.shutdown()
            self._thread.join(timeout=5.0)
            self._started = False
        self._server.server_close()

    def __enter__(self) -> "GAEWebUI":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
