"""Concurrent-client latency measurement (the Figure 6 harness core).

Builds a GAE with running jobs, serves it over the real threaded XML-RPC
server, and measures the mean per-request wall time as N genuinely
concurrent clients hammer the Job Monitoring Service — the §7 performance
study of the paper.  ``repro.analysis.experiments.run_figure6`` runs it,
for the ``gae-repro figure6`` CLI command and the ``figures`` smoke.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import List, Tuple

from repro.clarens.client import ClarensClient
from repro.clarens.transport import SocketTransport
from repro.gae import GAE, build_gae
from repro.gridsim import GridBuilder, Job, Task, TaskSpec


def build_served_monitoring(seed: int = 6, n_jobs: int = 8) -> Tuple[GAE, List[str]]:
    """A GAE with *n_jobs* long-running jobs, ready to be served.

    Returns the GAE and the ids of the running tasks clients will query.
    The caller mounts ``gae.host`` on an
    :class:`~repro.clarens.xmlrpc_server.XmlRpcServerHandle`.
    """
    grid = (
        GridBuilder(seed=seed)
        .site("siteA", nodes=4, background_load=0.3)
        .site("siteB", nodes=4, background_load=0.1)
        .probe_noise(0.0)
        .build()
    )
    gae = build_gae(grid)
    gae.add_user("alice", "pw")
    task_ids: List[str] = []
    for _ in range(n_jobs):
        t = Task(spec=TaskSpec(owner="alice"), work_seconds=1e6)
        gae.scheduler.submit_job(Job(tasks=[t], owner="alice"))
        task_ids.append(t.task_id)
    gae.grid.run_until(100.0)
    return gae, task_ids


def measure_mean_latency_ms(
    url: str,
    task_ids: List[str],
    n_clients: int,
    calls_per_client: int = 10,
) -> float:
    """Mean per-request latency (ms) with *n_clients* concurrent clients.

    Each client owns its transport/connection, logs in, waits on a barrier
    so the load applies simultaneously, then times *calls_per_client*
    ``jobmon.job_status`` calls.
    """
    if n_clients < 1:
        raise ValueError("need at least one client")
    latencies: List[float] = []
    lock = threading.Lock()
    barrier = threading.Barrier(n_clients)
    errors: List[Exception] = []

    def client_worker(idx: int) -> None:
        try:
            client = ClarensClient(SocketTransport(url))
            client.login("alice", "pw")
            jobmon = client.service("jobmon")
            task_id = task_ids[idx % len(task_ids)]
            barrier.wait()
            mine = []
            for _ in range(calls_per_client):
                t0 = time.perf_counter()
                jobmon.job_status(task_id)
                mine.append((time.perf_counter() - t0) * 1000.0)
            with lock:
                latencies.extend(mine)
        except Exception as exc:  # pragma: no cover - surfaced to caller
            with lock:
                errors.append(exc)

    threads = [
        threading.Thread(target=client_worker, args=(i,)) for i in range(n_clients)
    ]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    if errors:
        raise errors[0]
    return statistics.mean(latencies)
