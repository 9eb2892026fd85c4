"""Figure 6 — Response times for queries to the Job Monitoring Service.

Paper setup (§7): the Job Monitoring Service hosted on a Windows-XP
JClarens server; {1, 2, 3, 5, 25, 50, 100} parallel clients call service
methods; the figure charts the average time to fulfil a request.

Paper result: roughly flat (~10–30 ms) for few clients, rising to ~60–70 ms
at 100 concurrent clients — "the performance of the service scales well
with increasing number of clients … as long as they do not exceed a certain
limit."

``repro.analysis.experiments.run_figure6`` hosts the real monitoring
service on the stdlib threaded XML-RPC server (loopback HTTP) and drives
genuine concurrent clients, measuring the mean per-request wall time.
Absolute milliseconds differ from a 2005 Windows box; the asserted shape is
(a) low flat latency at small client counts and (b) a clear rise by 100
clients.
"""

import statistics

import pytest

from repro.analysis.experiments import run_figure6
from repro.analysis.latency import build_served_monitoring
from repro.clarens.client import ClarensClient
from repro.clarens.xmlrpc_server import XmlRpcServerHandle
from repro.clarens.transport import LoopbackTransport, SocketTransport


class TestFigure6:
    def test_regenerate_figure6(self):
        result = run_figure6()
        print("\n" + result.to_markdown())
        results = result.values["latency_ms"]
        # Shape assertions:
        small = statistics.mean([results[1], results[2], results[3], results[5]])
        # (a) small client counts stay mutually close (flat region)
        for n in (1, 2, 3, 5):
            assert results[n] < 4.0 * small + 1.0
        # (b) contention rises by 100 clients
        assert results[100] > 1.5 * small
        # (c) latency grows (weakly) along the heavy end of the sweep
        assert results[100] > results[5]


@pytest.mark.benchmark(group="fig6-monitoring")
def test_single_request_latency(benchmark):
    """pytest-benchmark timing of one monitoring query over XML-RPC."""
    gae, task_ids = build_served_monitoring()
    with XmlRpcServerHandle(gae.host) as handle:
        client = ClarensClient(SocketTransport(handle.url))
        client.login("alice", "pw")
        jobmon = client.service("jobmon")
        result = benchmark(lambda: jobmon.job_status(task_ids[0]))
        assert result == "running"


@pytest.mark.benchmark(group="fig6-monitoring")
def test_inprocess_request_latency(benchmark):
    """The same query without sockets — the transport-cost baseline."""
    gae, task_ids = build_served_monitoring()
    client = ClarensClient(LoopbackTransport(gae.host))
    client.login("alice", "pw")
    jobmon = client.service("jobmon")
    result = benchmark(lambda: jobmon.job_status(task_ids[0]))
    assert result == "running"
