"""Ablation — Clarens transport and dispatch overhead.

The paper's services are "SOAP/XMLRPC web services … to ensure a modular
architecture" (§3); the price is serialization and HTTP.  This bench breaks
the per-call cost into layers:

- bare in-process dispatch (auth + ACL + marshalling, no sockets),
- real XML-RPC over loopback HTTP,
- the framed async transport (serial round trips, and pipelined) under
  each wire codec,
- the marshalling layer alone (to_wire on a monitoring record),
- token validation alone.
"""

import pytest

from repro.clarens.aio import AsyncSocketServerHandle
from repro.clarens.client import ClarensClient
from repro.clarens.serialization import to_wire
from repro.clarens.server import ClarensHost
from repro.clarens.transport import (
    AsyncSocketTransport,
    LoopbackTransport,
    SocketTransport,
)
from repro.clarens.xmlrpc_server import XmlRpcServerHandle


class EchoService:
    def echo(self, value):
        """Return the argument unchanged."""
        return value


SAMPLE_RECORD = {
    "task_id": "task-000001",
    "job_id": "job-000001",
    "site": "caltech",
    "status": "running",
    "elapsed_time_s": 120.5,
    "estimated_run_time_s": 283.0,
    "remaining_time_s": 162.5,
    "progress": 0.426,
    "queue_position": -1,
    "priority": 0,
    "submission_time": 0.0,
    "execution_time": 1.5,
    "completion_time": None,
    "cpu_time_used_s": 120.5,
    "input_io_mb": 10.0,
    "output_io_mb": 0.0,
    "owner": "physicist",
    "environment": {"ROOTSYS": "/opt/root", "SCRAM_ARCH": "slc3_ia32_gcc323"},
}


def make_host():
    host = ClarensHost("bench")
    host.users.add_user("u", "p", groups=("g",))
    host.acl.allow("echo.*", groups=("g",))
    host.register("echo", EchoService())
    return host


@pytest.mark.benchmark(group="ablation-transport")
def test_inprocess_dispatch(benchmark):
    host = make_host()
    client = ClarensClient(LoopbackTransport(host))
    client.login("u", "p")
    echo = client.service("echo")
    result = benchmark(lambda: echo.echo(SAMPLE_RECORD))
    assert result["task_id"] == "task-000001"


@pytest.mark.benchmark(group="ablation-transport")
def test_xmlrpc_dispatch(benchmark):
    host = make_host()
    with XmlRpcServerHandle(host) as handle:
        client = ClarensClient(SocketTransport(handle.url))
        client.login("u", "p")
        echo = client.service("echo")
        result = benchmark(lambda: echo.echo(SAMPLE_RECORD))
        assert result["owner"] == "physicist"


@pytest.mark.benchmark(group="ablation-transport")
@pytest.mark.parametrize("codec", ["json", "xmlrpc"])
def test_async_framed_dispatch(benchmark, codec):
    host = make_host()
    with AsyncSocketServerHandle(host) as handle:
        client = ClarensClient(AsyncSocketTransport(handle.address, codec=codec))
        client.login("u", "p")
        echo = client.service("echo")
        result = benchmark(lambda: echo.echo(SAMPLE_RECORD))
        assert result["owner"] == "physicist"
        client.close()


@pytest.mark.benchmark(group="ablation-transport")
@pytest.mark.parametrize("codec", ["json", "xmlrpc"])
def test_async_framed_pipelined(benchmark, codec):
    """Amortised per-call cost with 64 calls in flight on one connection."""
    host = make_host()
    with AsyncSocketServerHandle(host) as handle:
        transport = AsyncSocketTransport(handle.address, codec=codec)
        client = ClarensClient(transport)
        token = client.login("u", "p")
        batch = [("echo.echo", [SAMPLE_RECORD])] * 64

        def run():
            return transport.call_pipelined(batch, token=token)

        results = benchmark(run)
        assert all(ok for ok, _ in results)
        client.close()


@pytest.mark.benchmark(group="ablation-transport")
def test_marshalling_only(benchmark):
    result = benchmark(lambda: to_wire(SAMPLE_RECORD))
    assert result["progress"] == pytest.approx(0.426)


@pytest.mark.benchmark(group="ablation-transport")
def test_token_validation_only(benchmark):
    host = make_host()
    token = host.auth.login("u", "p")
    principal = benchmark(lambda: host.auth.validate(token))
    assert principal.user == "u"


class TestTransportEquivalence:
    def test_overhead_ordering(self):
        """Sanity: sockets cost more than in-process, which costs more than
        bare marshalling.  (The printed ratios go into EXPERIMENTS.md.)"""
        import time

        host = make_host()

        def time_it(fn, n=300):
            t0 = time.perf_counter()
            for _ in range(n):
                fn()
            return (time.perf_counter() - t0) / n * 1e6  # us

        local = ClarensClient(LoopbackTransport(host))
        local.login("u", "p")
        local_echo = local.service("echo")
        t_local = time_it(lambda: local_echo.echo(SAMPLE_RECORD))
        t_marshal = time_it(lambda: to_wire(SAMPLE_RECORD))
        with XmlRpcServerHandle(host) as handle:
            remote = ClarensClient(SocketTransport(handle.url))
            remote.login("u", "p")
            remote_echo = remote.service("echo")
            t_remote = time_it(lambda: remote_echo.echo(SAMPLE_RECORD))
        print(
            f"\nmarshal-only: {t_marshal:.1f} us; in-process call: {t_local:.1f} us; "
            f"xmlrpc call: {t_remote:.1f} us "
            f"(socket tax {t_remote / t_local:.1f}x)"
        )
        assert t_marshal < t_local < t_remote
