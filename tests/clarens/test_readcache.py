"""Unit tests for the epoch-keyed read cache and request coalescing."""

import pytest

from repro.clarens.client import ClarensClient
from repro.clarens.readcache import (
    EpochRegistry,
    ReadCache,
    ReadPolicy,
    canonical_args,
)
from repro.clarens.registry import clarens_method
from repro.clarens.server import ClarensHost
from repro.clarens.transport import LoopbackTransport
from repro.observability.metrics import MetricsRegistry


class TestEpochRegistry:
    def test_bump_increments_and_get_defaults_to_zero(self):
        epochs = EpochRegistry()
        assert epochs.get("scheduler") == 0
        assert epochs.bump("scheduler") == 1
        assert epochs.bump("scheduler") == 2
        assert epochs.get("scheduler") == 2

    def test_bumper_registers_immediately_and_ignores_arguments(self):
        epochs = EpochRegistry()
        bump = epochs.bumper("monitoring")
        assert "monitoring" in epochs.names()
        bump("positional", keyword=1)
        assert epochs.get("monitoring") == 1

    def test_vector_reads_unregistered_names_as_zero(self):
        epochs = EpochRegistry()
        epochs.bump("a")
        assert epochs.vector(("a", "never-bumped")) == (1, 0)

    def test_wildcard_expands_sorted_and_grows_with_new_members(self):
        epochs = EpochRegistry()
        epochs.bump("pool:siteB")
        epochs.bump("pool:siteA")
        epochs.bump("pool:siteA")
        # sorted by name: siteA then siteB
        assert epochs.vector(("pool:*",)) == (2, 1)
        # A new member changes the vector *length*, so every dependent
        # cache key conservatively misses.
        epochs.register("pool:siteC")
        assert epochs.vector(("pool:*",)) == (2, 1, 0)

    def test_snapshot_is_a_plain_dict(self):
        epochs = EpochRegistry()
        epochs.bump("x")
        assert epochs.snapshot() == {"x": 1}


class TestReadPolicy:
    def test_rejects_empty_dependencies(self):
        with pytest.raises(ValueError):
            ReadPolicy(depends_on=())

    def test_rejects_bare_star(self):
        with pytest.raises(ValueError):
            ReadPolicy(depends_on=("*",))


class TestCanonicalArgs:
    def test_containers_freeze_to_hashable_forms(self):
        key = canonical_args([[1, 2], {"b": 2, "a": [3]}, "s", 1.5, None])
        assert key == ((1, 2), ("__dict__", (("a", (3,)), ("b", 2))), "s", 1.5, None)
        hash(key)  # must be usable as a dict key

    def test_unhashable_leaves_yield_none(self):
        assert canonical_args([object()]) is None
        assert canonical_args([{"k": object()}]) is None

    def test_argument_order_distinguishes_keys(self):
        assert canonical_args([1, 2]) != canonical_args([2, 1])


class TestReadCache:
    def test_hit_miss_invalidation_lifecycle(self):
        epochs = EpochRegistry()
        cache = ReadCache(epochs, MetricsRegistry())
        vec = epochs.vector(("scheduler",))
        assert cache.lookup("m", (), vec) is ReadCache._MISS
        cache.store("m", (), vec, "answer")
        assert cache.lookup("m", (), vec) == "answer"
        epochs.bump("scheduler")
        stale = cache.lookup("m", (), epochs.vector(("scheduler",)))
        assert stale is ReadCache._MISS
        counters = cache.snapshot()["per_method"]["m"]
        assert counters == {
            "hits": 1, "misses": 1, "invalidations": 1, "coalesced": 0,
        }

    def test_lru_eviction_is_counted(self):
        epochs = EpochRegistry()
        cache = ReadCache(epochs, MetricsRegistry(), capacity=2)
        vec = ()
        cache.store("m", "a", vec, 1)
        cache.store("m", "b", vec, 2)
        assert cache.lookup("m", "a", vec) == 1  # refresh "a"
        cache.store("m", "c", vec, 3)  # evicts "b", the LRU entry
        assert cache.lookup("m", "b", vec) is ReadCache._MISS
        assert cache.lookup("m", "a", vec) == 1
        assert cache.lookup("m", "c", vec) == 3
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_clear_drops_entries(self):
        cache = ReadCache(EpochRegistry(), MetricsRegistry())
        cache.store("m", "a", (), 1)
        assert cache.clear() == 1
        assert cache.lookup("m", "a", ()) is ReadCache._MISS

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ReadCache(EpochRegistry(), MetricsRegistry(), capacity=0)

    def test_counts_live_in_the_registry_only(self):
        registry = MetricsRegistry()
        cache = ReadCache(EpochRegistry(), registry, capacity=1)
        cache.lookup("m", (), ())          # miss
        cache.store("m", (), (), "v")
        cache.lookup("m", (), ())          # hit
        cache.store("m", "other", (), "w")  # evicts the first entry
        cache.note_coalesced("m")
        for kind in ("hits", "misses", "coalesced"):
            assert registry.get(f"gae_rpc_cache_{kind}_total").value(method="m") == 1.0
        assert registry.get("gae_rpc_cache_evictions_total").total() == 1.0
        snap = cache.snapshot()
        assert snap["evictions"] == 1 and isinstance(snap["evictions"], int)
        assert snap["per_method"] == {
            "m": {"hits": 1, "misses": 1, "invalidations": 0, "coalesced": 1},
        }


class _CountingReads:
    """A service whose read method counts real executions."""

    def __init__(self):
        self.executions = 0
        self.state = {"t1": "queued"}
        self.epochs = None  # set by the rig; mutations bump "scheduler"

    @clarens_method(cache=ReadPolicy(depends_on=("scheduler",)))
    def status(self, task_id):
        self.executions += 1
        return {"task": task_id, "status": self.state.get(task_id, "unknown")}

    @clarens_method
    def mutate(self, task_id, status):
        self.state[task_id] = status
        if self.epochs is not None:
            self.epochs.bump("scheduler")
        return True

    @clarens_method(cache=ReadPolicy(depends_on=("scheduler",)), pass_principal=True)
    def mine(self, principal):
        self.executions += 1
        return principal.user

    @clarens_method(cache=ReadPolicy(depends_on=("scheduler",)))
    def flaky(self):
        self.executions += 1
        raise ValueError("always fails")


@pytest.fixture
def rig():
    host = ClarensHost("cache-host")
    host.users.add_user("alice", "pw", groups=("users",))
    host.users.add_user("bob", "pw", groups=("users",))
    host.acl.allow("jobs.*", groups=("users",))
    service = _CountingReads()
    host.register("jobs", service)
    # The test stands in for the subsystem that would own this epoch.
    host.epochs.register("scheduler")
    service.epochs = host.epochs
    client = ClarensClient(LoopbackTransport(host))
    client.login("alice", "pw")
    return host, service, client


class TestReadCacheMiddleware:
    def test_repeat_read_served_from_cache(self, rig):
        host, service, client = rig
        first = client.call("jobs.status", "t1")
        second = client.call("jobs.status", "t1")
        assert first == second
        assert service.executions == 1
        snap = host.read_cache.snapshot()["per_method"]["jobs.status"]
        assert snap["hits"] == 1 and snap["misses"] == 1

    def test_epoch_bump_invalidates(self, rig):
        host, service, client = rig
        assert client.call("jobs.status", "t1")["status"] == "queued"
        client.call("jobs.mutate", "t1", "running")
        assert client.call("jobs.status", "t1")["status"] == "running"
        assert service.executions == 2
        snap = host.read_cache.snapshot()["per_method"]["jobs.status"]
        assert snap["invalidations"] == 1

    def test_distinct_args_are_distinct_entries(self, rig):
        host, service, client = rig
        client.call("jobs.status", "t1")
        client.call("jobs.status", "t2")
        assert service.executions == 2

    def test_pass_principal_methods_key_on_the_caller(self, rig):
        host, service, client = rig
        assert client.call("jobs.mine") == "alice"
        assert client.call("jobs.mine") == "alice"
        assert service.executions == 1
        bob = ClarensClient(LoopbackTransport(host))
        bob.login("bob", "pw")
        assert bob.call("jobs.mine") == "bob"
        assert service.executions == 2

    def test_disabled_host_always_executes(self):
        host = ClarensHost("nocache", read_cache_enabled=False)
        host.users.add_user("u", "p", groups=("g",))
        host.acl.allow("jobs.*", groups=("g",))
        service = _CountingReads()
        host.register("jobs", service)
        client = ClarensClient(LoopbackTransport(host))
        client.login("u", "p")
        client.call("jobs.status", "t1")
        client.call("jobs.status", "t1")
        assert service.executions == 2

    def test_system_cache_rpc_reports_counters_and_epochs(self, rig):
        host, service, client = rig
        client.call("jobs.status", "t1")
        client.call("jobs.status", "t1")
        snap = client.call("system.cache")
        assert snap["enabled"] is True
        assert snap["entries"] >= 1
        assert snap["per_method"]["jobs.status"]["hits"] == 1
        assert "scheduler" in snap["epochs"]

    def test_served_from_recorded_in_stats_and_traces(self, rig):
        host, service, client = rig
        client.call("jobs.status", "t1")
        client.call("jobs.status", "t1")
        stats = host.stats.snapshot()
        assert stats["served"]["jobs.status"]["cache"] == 1
        # Only the executed call enters the latency reservoir.
        assert stats["latency_ms"]["jobs.status"]["count"] == 1
        assert stats["per_method"]["jobs.status"] == 2
        records = [
            r for r in client.call("system.recent_calls")
            if r["method"] == "jobs.status"
        ]
        assert [r["served_from"] for r in records] == ["execute", "cache"]


class TestMulticallCoalescing:
    def test_identical_reads_coalesce_to_one_execution(self, rig):
        host, service, client = rig
        results = client.batch([
            ("jobs.status", "t1"),
            ("jobs.status", "t1"),
            ("jobs.status", "t1"),
        ])
        assert results[0] == results[1] == results[2]
        assert service.executions == 1
        snap = host.read_cache.snapshot()["per_method"]["jobs.status"]
        assert snap["coalesced"] == 2
        assert host.stats.snapshot()["served"]["jobs.status"]["coalesced"] == 2

    def test_mutating_subcall_resets_the_dedup_window(self, rig):
        host, service, client = rig
        results = client.batch_detailed([
            ("jobs.status", "t1"),
            ("jobs.mutate", "t1", "running"),
            ("jobs.status", "t1"),
        ])
        assert all(r.ok for r in results)
        # The second read must re-execute: the mutation between the two
        # identical reads may have changed the answer.
        assert service.executions == 2
        assert results[0].result["status"] == "queued"
        assert results[2].result["status"] == "running"

    def test_coalescing_disabled_with_the_cache(self):
        host = ClarensHost("nocache", read_cache_enabled=False)
        host.users.add_user("u", "p", groups=("g",))
        host.acl.allow("jobs.*", groups=("g",))
        service = _CountingReads()
        host.register("jobs", service)
        client = ClarensClient(LoopbackTransport(host))
        client.login("u", "p")
        client.batch([("jobs.status", "t1"), ("jobs.status", "t1")])
        assert service.executions == 2

    def test_faulted_first_call_is_not_reused(self, rig):
        host, service, client = rig
        results = client.batch_detailed([
            ("jobs.flaky",),
            ("jobs.flaky",),
        ])
        # Faults are never cached or coalesced: both duplicates execute
        # (and fault) independently.
        assert not results[0].ok and not results[1].ok
        assert service.executions == 2


class TestBatchReads:
    def test_duplicates_are_sent_once_and_fanned_back(self, rig):
        host, service, client = rig
        results = client.batch_reads([
            ("jobs.status", "t1"),
            ("jobs.status", "t2"),
            ("jobs.status", "t1"),
        ])
        assert [r.ok for r in results] == [True, True, True]
        assert results[0].result == results[2].result
        assert results[1].result["task"] == "t2"
        assert service.executions == 2

    def test_order_preserved_for_unique_calls(self, rig):
        host, service, client = rig
        results = client.batch_reads([
            ("jobs.status", "t2"),
            ("jobs.status", "t1"),
        ])
        assert results[0].result["task"] == "t2"
        assert results[1].result["task"] == "t1"
