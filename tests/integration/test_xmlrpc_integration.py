"""Integration tests: the GAE services served over real XML-RPC sockets.

The simulator's clock only advances when the test drives it, so the remote
clients observe a frozen-but-consistent world — exactly what the Figure 6
benchmark relies on.
"""

import threading

import pytest

from repro.clarens.client import ClarensClient
from repro.clarens.xmlrpc_server import XmlRpcServerHandle
from repro.clarens.transport import SocketTransport
from repro.gae import build_gae
from repro.gridsim import GridBuilder, Job, Task, TaskSpec
from repro.workloads.downey import DowneyWorkloadGenerator


@pytest.fixture
def served_gae():
    grid = (
        GridBuilder(seed=23)
        .site("siteA", background_load=0.5)
        .site("siteB", background_load=0.0)
        .probe_noise(0.0)
        .build()
    )
    history, _ = DowneyWorkloadGenerator(seed=1995).history_and_tests(100, 5)
    gae = build_gae(grid, history=history)
    gae.add_user("alice", "pw")
    tasks = [Task(spec=TaskSpec(owner="alice"), work_seconds=500.0) for _ in range(3)]
    for t in tasks:
        gae.scheduler.submit_job(Job(tasks=[t], owner="alice"))
    gae.grid.run_until(60.0)
    with XmlRpcServerHandle(gae.host) as handle:
        yield gae, handle, tasks


class TestRemoteAccess:
    def test_monitoring_over_the_wire(self, served_gae):
        gae, handle, tasks = served_gae
        client = ClarensClient(SocketTransport(handle.url))
        client.login("alice", "pw")
        info = client.service("jobmon").job_info(tasks[0].task_id)
        assert info["status"] in ("running", "queued")
        assert info["owner"] == "alice"

    def test_steering_over_the_wire(self, served_gae):
        gae, handle, tasks = served_gae
        client = ClarensClient(SocketTransport(handle.url))
        client.login("alice", "pw")
        running = [t for t in tasks if t.state.value == "running"]
        result = client.service("steering").pause(running[0].task_id)
        assert result["ok"]
        client.service("steering").resume(running[0].task_id)

    def test_estimator_over_the_wire(self, served_gae):
        gae, handle, tasks = served_gae
        client = ClarensClient(SocketTransport(handle.url))
        client.login("alice", "pw")
        assert client.service("estimator").history_size() == 100

    def test_accounting_over_the_wire(self, served_gae):
        gae, handle, _ = served_gae
        client = ClarensClient(SocketTransport(handle.url))
        client.login("alice", "pw")
        out = client.service("accounting").cheapest_site({"siteA": 100.0, "siteB": 100.0})
        assert out["site"] in ("siteA", "siteB")

    def test_parallel_clients_all_get_consistent_answers(self, served_gae):
        gae, handle, tasks = served_gae
        task_id = tasks[0].task_id
        answers, errors = [], []

        def worker():
            try:
                client = ClarensClient(SocketTransport(handle.url))
                client.login("alice", "pw")
                for _ in range(3):
                    answers.append(client.service("jobmon").job_status(task_id))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(10)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert not errors
        assert len(answers) == 30
        assert len(set(answers)) == 1  # frozen sim clock -> one status


class TestMulticallOverTheWire:
    """Batch fault isolation and trace sharing over the real transport.

    Until this PR multicall was only exercised in-process; these tests pin
    the wire behaviour: one failing sub-call must not poison the batch,
    and every sub-call must be traceable under the batch's trace id.
    """

    def test_fault_isolation_in_a_real_batch(self, served_gae):
        gae, handle, tasks = served_gae
        with ClarensClient(SocketTransport(handle.url)) as client:
            client.login("alice", "pw")
            detailed = client.batch_detailed([
                ("jobmon.job_status", tasks[0].task_id),
                ("ghost.method",),
                ("system.host_name",),
            ])
        assert [r.ok for r in detailed] == [True, False, True]
        assert detailed[0].result in ("running", "queued")
        assert detailed[1].code == 404
        assert detailed[2].result == "jclarens"

    def test_batch_raises_first_typed_fault(self, served_gae):
        from repro.clarens.errors import ServiceNotFound

        gae, handle, _ = served_gae
        with ClarensClient(SocketTransport(handle.url)) as client:
            client.login("alice", "pw")
            with pytest.raises(ServiceNotFound):
                client.batch([("system.ping",), ("ghost.method",)])

    def test_client_trace_id_spans_every_subcall(self, served_gae):
        gae, handle, tasks = served_gae
        with ClarensClient(SocketTransport(handle.url)) as client:
            client.login("alice", "pw")
            trace = client.new_trace()
            detailed = client.batch_detailed([
                ("jobmon.job_status", tasks[0].task_id),
                ("ghost.method",),
                ("system.ping",),
            ])
            records = client.call("system.recent_calls", 200, trace)
        # Every sub-call result carries the client-issued trace id ...
        assert {r.trace_id for r in detailed} == {trace}
        # ... and every sub-call (even the failed one) is in the ring,
        # alongside the enclosing system.multicall itself.
        methods = [r["method"] for r in records]
        assert "system.multicall" in methods
        assert "jobmon.job_status" in methods
        assert "ghost.method" in methods
        assert "system.ping" in methods
        outcomes = {r["method"]: r["outcome"] for r in records}
        assert outcomes["ghost.method"] == "fault"
        assert outcomes["system.ping"] == "ok"
        assert all(r["transport"] == "xmlrpc" for r in records)
