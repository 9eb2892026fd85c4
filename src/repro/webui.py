"""A read-only web interface over a running GAE.

§4.2.4: after a job completes, Backup & Recovery archives its execution
state, which "is made available for download on the web interface."  This
module is that interface — a small threaded HTTP server (stdlib) rendering
the GAE's state as HTML tables and serving execution states as JSON
downloads:

- ``/``                 — overview: sites, loads, job counts
- ``/jobs``             — every monitored task
- ``/job/<task_id>``    — one task's full monitoring record
- ``/state/<task_id>``  — the archived execution state (JSON download)
- ``/trace/<task_id>``  — the task's rendered span tree (observability)
- ``/timeline/<task_id>`` — the task's journal timeline (JSON)
- ``/notifications``    — Backup & Recovery's client notifications
- ``/health``           — the declarative health rules' live state and
  their firing/resolved transition history
- ``/weather``          — the MonALISA grid-weather snapshot (JSON)
- ``/store``            — the GAE's state-store namespaces and key counts
  (JSON; the persistence layer behind checkpoint/restore)
- ``/metrics``          — the Clarens host's metrics registry, the GAE's
  observability registry and the site loads, in Prometheus-style text
  exposition

Unknown task ids get a structured JSON 404 body (machine-readable, like
the Clarens fault shape) rather than bare text.  Read-only by design:
steering *commands* go through the authenticated Clarens API, never
through a browser GET.
"""

from __future__ import annotations

import html
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from socketserver import ThreadingMixIn
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import unquote

from repro.gae import GAE

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
<a href="/weather">grid weather</a>
<a href="/store">store</a><a href="/metrics">metrics</a></nav>
<h1>{title}</h1>
{body}
<p><small>Grid Analysis Environment — simulated time t={now:.1f}s</small></p>
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


class _GAEStatusHandler(BaseHTTPRequestHandler):
    gae: GAE  # injected by the server class

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
            elif path.startswith("/trace/"):
                self._send_trace(path[len("/trace/"):])
            elif path.startswith("/timeline/"):
                self._send_timeline(path[len("/timeline/"):])
            elif path == "/notifications":
                self._send_html("Notifications", self._notifications())
            elif path == "/health":
                self._send_health()
            elif path == "/weather":
                self._send_json(self._weather())
            elif path == "/store":
                self._send_store()
            elif path == "/metrics":
                self._send_text(self._metrics())
            else:
                self._send_error(404, f"no such page: {path}")
        except Exception as exc:  # pragma: no cover - defensive
            self._send_error(500, f"internal error: {exc}")

    # ------------------------------------------------------------------
    # page bodies
    # ------------------------------------------------------------------
    def _overview(self) -> str:
        gae = self.gae
        rows = []
        for name in sorted(gae.grid.sites):
            site = gae.grid.sites[name]
            try:
                gae.grid.execution_services[name].ping()
                status = "up"
            except Exception:
                status = "DOWN"
            rows.append([
                _esc(name), status, site.pool.total_slots, site.pool.busy_slots,
                len(site.pool.queue_snapshot()), f"{site.current_load():.2f}"
                if status == "up" else "?",
            ])
        monitored = len(gae.monitoring.db_manager) + len(
            gae.monitoring.collector.collect_running()
        )
        return (
            f"<p>{len(rows)} sites; ~{monitored} monitored tasks; "
            f"{len(gae.steering.actions)} autonomous steering actions.</p>"
            + _table(["site", "status", "slots", "busy", "queued", "load"], rows)
        )

    def _jobs(self) -> str:
        # The jobs table is the UI's hot page; its rendered HTML is
        # memoized in the host's epoch-keyed read cache under a
        # pseudo-method name, invalidated by the same epochs the jobmon
        # RPCs depend on.
        return self.gae.host.read_cache.cached(
            "webui.jobs", (), ("clock", "scheduler", "pool:*", "monitoring"),
            self._render_jobs,
        )

    def _render_jobs(self) -> str:
        gae = self.gae
        records = {r.task_id: r for r in gae.monitoring.collector.collect_running()}
        for task_id in gae.monitoring.db_manager.task_ids():
            records.setdefault(task_id, gae.monitoring.db_manager.get(task_id))
        rows = []
        for task_id in sorted(records):
            r = records[task_id]
            rows.append([
                f'<a href="/job/{_esc(task_id)}">{_esc(task_id)}</a>',
                _esc(r.job_id), _esc(r.owner), _esc(r.site), _esc(r.status),
                f"{r.progress * 100:.1f}%", f"{r.elapsed_time_s:.1f}",
            ])
        return _table(
            ["task", "job", "owner", "site", "status", "progress", "elapsed (s)"],
            rows,
        )

    def _job_detail(self, task_id: str) -> Optional[str]:
        record = self.gae.monitoring.manager.get_info(task_id)
        if record is None:
            return None
        # vars() needs an instance __dict__, so the monitoring record must
        # stay un-slotted (unlike the slots=True per-job grid records).
        rows = [[_esc(k), _esc(v)] for k, v in sorted(vars(record).items())]
        extra = ""
        if task_id in self.gae.steering.backup_recovery.execution_states:
            extra = (
                f'<p><a href="/state/{_esc(task_id)}">download execution state'
                "</a> (JSON)</p>"
            )
        obs = self.gae.observability
        if obs is not None and obs.trace_id_of(task_id) is not None:
            extra += (
                f'<p><a href="/trace/{_esc(task_id)}">span tree</a> · '
                f'<a href="/timeline/{_esc(task_id)}">timeline (JSON)</a></p>'
            )
        # With continuous monitoring enabled, render the Figure 7-style
        # progress curve straight from the DB's snapshot history.
        history = self.gae.monitoring.db_manager.progress_history(task_id)
        if len(history) >= 2:
            from repro.analysis.figures import FigureData

            times = [h[0] for h in history]
            progress = [h[2] * 100.0 for h in history]
            figure = FigureData(
                title=f"Progress of {task_id}",
                x_label="simulated time (s)",
                y_label="progress (%)",
            ).add("progress", times, progress)
            extra += "<pre>" + html.escape(figure.render()) + "</pre>"
        return _table(["field", "value"], rows) + extra

    def _notifications(self) -> str:
        rows = [
            [f"{n.time:.1f}", _esc(n.kind), _esc(n.task_id), _esc(n.owner),
             _esc(n.site), _esc(n.detail)]
            for n in self.gae.steering.backup_recovery.notifications
        ]
        return _table(["time (s)", "kind", "task", "owner", "site", "detail"], rows)

    def _send_health(self) -> None:
        obs = self.gae.observability
        if obs is None:
            self._send_json({"error": "health-disabled", "status": 503}, code=503)
            return
        snap = obs.health_snapshot()
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

    def _weather(self) -> Dict[str, float]:
        return self.gae.host.read_cache.cached(
            "webui.weather", (), ("monalisa",), self._compute_weather,
        )

    def _compute_weather(self) -> Dict[str, float]:
        return {
            farm: self.gae.monalisa.site_load(farm, default=0.0)
            for farm in self.gae.monalisa.farms()
            if self.gae.monalisa.has_series(farm, "load")
        }

    def _send_store(self) -> None:
        """The persistence layer's namespaces and key counts (JSON).

        Lists the canonical registry (everything a checkpoint file holds)
        and, for each namespace, whether this GAE's live store has it
        registered and how many keys it currently carries.
        """
        from repro.store.registry import NAMESPACES

        store = self.gae.store
        if store is None:
            self._send_json({"error": "store-disabled", "status": 503}, code=503)
            return
        live = {ns.name for ns in store.namespaces()}
        namespaces = [
            {
                "name": ns.name,
                "version": ns.version,
                "description": ns.description,
                "registered": ns.name in live,
                "keys": store.count(ns.name) if ns.name in live else 0,
            }
            for ns in NAMESPACES
        ]
        self._send_json({
            "backend": type(store).__name__,
            "namespaces": namespaces,
        })

    def _send_trace(self, task_id: str) -> None:
        obs = self.gae.observability
        if obs is None:
            self._send_json({"error": "observability-disabled", "status": 503}, code=503)
            return
        rendered = obs.render_trace(task_id)
        if rendered is None:
            self._send_not_found("trace", task_id)
            return
        trace_id = obs.trace_id_of(task_id)
        body = (
            f"<p>trace <code>{_esc(trace_id)}</code> for task "
            f"<code>{_esc(task_id)}</code></p>"
            f"<pre>{html.escape(rendered)}</pre>"
            f'<p><a href="/timeline/{_esc(task_id)}">timeline (JSON)</a></p>'
        )
        self._send_html(f"Trace {task_id}", body)

    def _send_timeline(self, task_id: str) -> None:
        obs = self.gae.observability
        if obs is None:
            self._send_json({"error": "observability-disabled", "status": 503}, code=503)
            return
        timeline = obs.timeline_wire(task_id)
        if not timeline:
            self._send_not_found("timeline", task_id)
            return
        self._send_json({"task_id": task_id, "events": timeline})

    def _metrics(self) -> str:
        """Prometheus-style text exposition of both metrics registries.

        The host's (RPC calls, read cache, aio worker pools), the GAE's
        when observability is wired, and the latest published site loads.
        """
        lines = self.gae.host.metrics.prometheus_lines()
        if self.gae.observability is not None:
            lines.extend(self.gae.observability.metrics.prometheus_lines())
        lines += [
            "# HELP gae_site_load Latest published load per site.",
            "# TYPE gae_site_load gauge",
        ]
        for farm, load in sorted(self._weather().items()):
            lines.append(f'gae_site_load{{site="{farm}"}} {load:.6f}')
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    # response plumbing
    # ------------------------------------------------------------------
    def _send_html(self, title: str, body: str) -> None:
        text = _PAGE.format(title=html.escape(title), body=body, now=self.gae.sim.now)
        payload = text.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_text(self, text: str) -> None:
        payload = text.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(self, value: Any, code: int = 200) -> None:
        payload = json.dumps(value, indent=2).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_not_found(self, resource: str, identifier: str) -> None:
        """Structured 404: machine-readable JSON, not bare text."""
        self._send_json(
            {"error": "not-found", "resource": resource, "id": identifier,
             "status": 404},
            code=404,
        )

    def _send_state(self, task_id: str) -> None:
        states = self.gae.steering.backup_recovery.execution_states
        if task_id not in states:
            self._send_not_found("execution-state", task_id)
            return
        payload = json.dumps(states[task_id], indent=2).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header(
            "Content-Disposition", f'attachment; filename="{task_id}-state.json"'
        )
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_error(self, code: int, message: str) -> None:
        payload = message.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


class _ThreadedHTTPServer(ThreadingMixIn, HTTPServer):
    daemon_threads = True
    allow_reuse_address = True


class GAEWebUI:
    """Serves the read-only status pages for one GAE.

    Use as a context manager::

        with GAEWebUI(gae) as ui:
            print("browse", ui.url)
    """

    def __init__(self, gae: GAE, bind: str = "127.0.0.1", port: int = 0) -> None:
        self.gae = gae
        handler = type("BoundHandler", (_GAEStatusHandler,), {"gae": gae})
        self._server = _ThreadedHTTPServer((bind, port), handler)
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
        """Root URL of the status pages."""
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
