"""Unit tests for the Figure 6 measurement core."""

import pytest

from repro.analysis.latency import build_served_monitoring, measure_mean_latency_ms
from repro.clarens.xmlrpc_server import XmlRpcServerHandle


class TestBuildServedMonitoring:
    def test_jobs_running_and_queryable(self):
        gae, task_ids = build_served_monitoring(n_jobs=4)
        assert len(task_ids) == 4
        for task_id in task_ids:
            assert gae.monitoring.job_status(task_id) == "running"

    def test_deterministic_per_seed(self):
        from repro.gridsim.job import reset_id_counters

        reset_id_counters()
        _, a = build_served_monitoring(seed=2, n_jobs=3)
        reset_id_counters()
        _, b = build_served_monitoring(seed=2, n_jobs=3)
        assert a == b


class TestMeasurement:
    def test_single_client_measurement(self):
        gae, task_ids = build_served_monitoring(n_jobs=2)
        with XmlRpcServerHandle(gae.host) as handle:
            ms = measure_mean_latency_ms(handle.url, task_ids, 1, calls_per_client=3)
        assert 0.0 < ms < 1000.0

    def test_multiple_clients(self):
        gae, task_ids = build_served_monitoring(n_jobs=2)
        with XmlRpcServerHandle(gae.host) as handle:
            ms = measure_mean_latency_ms(handle.url, task_ids, 4, calls_per_client=2)
        assert ms > 0.0

    def test_zero_clients_rejected(self):
        with pytest.raises(ValueError):
            measure_mean_latency_ms("http://127.0.0.1:1/RPC2", ["t"], 0)

    def test_worker_errors_surface(self):
        # Nothing listening on the port: the TransportError must propagate.
        from repro.clarens.errors import TransportError

        with pytest.raises(TransportError):
            measure_mean_latency_ms(
                "http://127.0.0.1:1/RPC2", ["t"], 1, calls_per_client=1
            )
