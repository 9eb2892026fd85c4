"""Unit tests for the StateStore, in memory and on file.

Every behavioural test runs against ``StateStore()`` and
``StateStore(path)`` through one fixture; the identity of the two modes,
and of a file with what :func:`read_store_file` loads from it, have
their own tests at the bottom.
"""

import json
import math
import os
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import (
    NAMESPACES,
    Namespace,
    NamespaceVersionError,
    StateStore,
    UnknownNamespaceError,
    namespace_names,
    read_store_file,
    register_all,
)
from repro.store.base import decode_value, encode_value
from repro.store.registry import namespace_record

NS = "test.ns"


# ``memory`` is ``StateStore()``; ``sqlite`` a store on file.
@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    if request.param == "memory":
        s = StateStore()
    else:
        s = StateStore(str(tmp_path / "store.sqlite"))
    s.register_namespace(Namespace(NS, 1, "test bucket"))
    yield s
    s.close()


class TestNamespaces:
    def test_unregistered_namespace_raises(self, store):
        with pytest.raises(UnknownNamespaceError):
            store.put("ghost.ns", "k", 1)
        with pytest.raises(UnknownNamespaceError):
            store.get("ghost.ns", "k")
        with pytest.raises(UnknownNamespaceError):
            store.keys("ghost.ns")

    def test_unknown_namespace_error_is_keyerror(self, store):
        with pytest.raises(KeyError):
            store.get("ghost.ns", "k")

    def test_reregistration_is_idempotent(self, store):
        store.register_namespace(Namespace(NS, 1))
        assert store.namespace(NS).version == 1

    def test_version_mismatch_raises(self, store):
        with pytest.raises(NamespaceVersionError) as exc:
            store.register_namespace(Namespace(NS, 2))
        assert exc.value.registered == 1
        assert exc.value.requested == 2

    def test_namespaces_in_registration_order(self, store):
        store.register_namespace(Namespace("b.ns", 1))
        store.register_namespace(Namespace("a.ns", 1))
        names = [ns.name for ns in store.namespaces()]
        assert names == [NS, "b.ns", "a.ns"]

    def test_register_all_is_idempotent(self, store):
        register_all(store)
        register_all(store)
        registered = {ns.name for ns in store.namespaces()}
        assert set(namespace_names()) <= registered

    def test_namespace_record_round_trip(self):
        for ns in NAMESPACES:
            assert namespace_record(ns.name) == ns
        with pytest.raises(KeyError):
            namespace_record("ghost.ns")


class TestKeyValue:
    def test_get_missing_raises_keyerror(self, store):
        with pytest.raises(KeyError):
            store.get(NS, "ghost")

    def test_get_missing_with_default(self, store):
        assert store.get(NS, "ghost", default=None) is None
        assert store.get(NS, "ghost", default=7) == 7

    def test_put_get_round_trip(self, store):
        value = {"a": 1, "b": [1.5, "x", None, True]}
        store.put(NS, "k", value)
        assert store.get(NS, "k") == value

    def test_overwrite_keeps_first_insertion_order(self, store):
        store.put(NS, "first", 1)
        store.put(NS, "second", 2)
        store.put(NS, "first", 10)
        assert store.keys(NS) == ["first", "second"]
        assert store.get(NS, "first") == 10

    def test_put_many_counts_and_orders(self, store):
        n = store.put_many(NS, [(f"k{i}", i) for i in range(5)])
        assert n == 5
        assert store.keys(NS) == [f"k{i}" for i in range(5)]
        assert store.values(NS) == list(range(5))

    def test_items_pairs(self, store):
        store.put(NS, "a", 1)
        store.put(NS, "b", [2])
        assert store.items(NS) == [("a", 1), ("b", [2])]

    def test_delete(self, store):
        store.put(NS, "k", 1)
        assert store.delete(NS, "k") is True
        assert store.delete(NS, "k") is False
        assert store.count(NS) == 0

    def test_clear(self, store):
        store.put_many(NS, [(f"k{i}", i) for i in range(3)])
        assert store.clear(NS) == 3
        assert store.count(NS) == 0
        assert store.keys(NS) == []

    def test_dict_key_order_preserved(self, store):
        # Insertion order of dict keys is part of several services'
        # semantics; the codec must not sort them.
        value = {"zeta": 1, "alpha": 2, "mid": 3}
        store.put(NS, "k", value)
        assert list(store.get(NS, "k")) == ["zeta", "alpha", "mid"]

    def test_tuples_become_lists(self, store):
        store.put(NS, "k", (1, (2, 3)))
        assert store.get(NS, "k") == [1, [2, 3]]

    def test_float_round_trip_exact(self, store):
        values = [0.1, 1e-308, 1.7976931348623157e308, 3.141592653589793]
        store.put(NS, "floats", values)
        assert store.get(NS, "floats") == values


class TestLifecycle:
    def test_close_idempotent(self, store):
        store.close()
        store.close()

    def test_context_manager_closes(self, tmp_path):
        with StateStore(str(tmp_path / "cm.sqlite")) as s:
            s.register_namespace(Namespace(NS, 1))
            s.put(NS, "k", 1)
        with pytest.raises(RuntimeError):
            s.sql_connection()

    def test_sqlite_reopen_preserves_everything(self, tmp_path):
        path = str(tmp_path / "reopen.sqlite")
        with StateStore(path) as s:
            s.register_namespace(Namespace(NS, 1, "bucket"))
            s.put(NS, "b", 2)
            s.put(NS, "a", 1)
            s.put(NS, "b", 20)  # overwrite must keep first-insertion order
        with StateStore(path) as s:
            assert s.namespace(NS) == Namespace(NS, 1, "bucket")
            assert s.keys(NS) == ["b", "a"]
            assert s.get(NS, "b") == 20

    def test_sqlite_reopen_enforces_versions(self, tmp_path):
        path = str(tmp_path / "versions.sqlite")
        with StateStore(path) as s:
            s.register_namespace(Namespace(NS, 1))
        with StateStore(path) as s:
            with pytest.raises(NamespaceVersionError):
                s.register_namespace(Namespace(NS, 2))

    def test_sql_connection_shares_storage(self, store):
        conn = store.sql_connection()
        conn.execute("CREATE TABLE extra (x INTEGER)")
        conn.execute("INSERT INTO extra VALUES (42)")
        conn.commit()
        assert conn.execute("SELECT x FROM extra").fetchone() == (42,)
        # KV data and relational tables coexist on the one connection.
        store.put(NS, "k", 1)
        assert store.get(NS, "k") == 1

    def test_concurrent_puts_all_land(self, store):
        def writer(offset):
            for i in range(50):
                store.put(NS, f"k{offset}-{i}", i)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert store.count(NS) == 200


class TestCrossBackendIdentity:
    """``StateStore()`` and ``StateStore(path)`` read back the same."""

    def _fill(self, s):
        s.register_namespace(Namespace(NS, 1))
        s.put(NS, "zeta", {"b": 1, "a": [1.5, None, True]})
        s.put(NS, "alpha", (1, 2))
        s.put_many(NS, [("m1", 0.1), ("m2", {"k": "v"})])
        s.put(NS, "zeta", {"b": 2, "a": []})  # overwrite

    def test_reads_bit_identical(self, tmp_path):
        memory = StateStore()
        on_file = StateStore(str(tmp_path / "x.sqlite"))
        self._fill(memory)
        self._fill(on_file)
        assert memory.keys(NS) == on_file.keys(NS)
        assert json.dumps(memory.items(NS)) == json.dumps(on_file.items(NS))
        on_file.close()

    def test_codec_is_shared(self):
        value = {"z": [1, 2.5, "s", None], "a": {"nested": True}}
        assert decode_value(encode_value(value)) == value
        # compact separators, no key sorting
        assert encode_value({"b": 1, "a": 2}) == '{"b":1,"a":2}'


def raw_rows(store, namespace):
    """(key, raw value string) in the store's iteration order."""
    return store.sql_connection().execute(
        "SELECT key, value FROM gae_store WHERE namespace = ? ORDER BY seq", (namespace,)
    ).fetchall()


_names = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8)
_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**63), 2**63 - 1)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([math.nan, -0.0, "é", "雪", "\u2028"])
    | st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_ops = st.lists(
    st.tuples(
        st.integers(0, 3),  # namespace index (mod the namespaces drawn)
        st.sampled_from(["put", "put", "put", "delete"]),
        st.sampled_from(["a", "b", "c", "ключ", "d"]),  # few keys: overwrites
        _values,
    ),
    max_size=25,
)


class TestReadStoreFile:
    @settings(max_examples=60, deadline=None)
    @given(
        namespaces=st.lists(
            st.tuples(_names, st.integers(1, 5), st.text(max_size=12)),
            min_size=1,
            max_size=4,
            unique_by=lambda ns: ns[0],
        ),
        ops=_ops,
    )
    def test_the_copy_is_the_file(self, namespaces, ops):
        """Namespaces in order with versions and descriptions, keys in
        first-insertion order after overwrites, raw value strings: all as
        written, NaN, -0.0 and non-ASCII included."""
        records = [Namespace(*fields) for fields in namespaces]
        model = {ns.name: {} for ns in records}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "store.sqlite")
            with StateStore(path) as written:
                for ns in records:
                    written.register_namespace(ns)
                for index, op, key, value in ops:
                    name = records[index % len(records)].name
                    if op == "put":
                        written.put(name, key, value)
                        model[name][key] = encode_value(value)
                    else:
                        written.delete(name, key)
                        model[name].pop(key, None)
            with read_store_file(path) as copy:
                assert copy.namespaces() == records
                for ns in records:
                    assert raw_rows(copy, ns.name) == list(model[ns.name].items())
                # The copy keeps appending after the file's last seq.
                first = records[0].name
                copy.put(first, "appended", 1)
                assert copy.keys(first)[-1] == "appended"
            assert os.listdir(tmp) == ["store.sqlite"]

    def test_a_bad_file_is_a_database_error(self, tmp_path):
        import sqlite3

        garbage = tmp_path / "garbage.sqlite"
        garbage.write_bytes(b"not a database" * 100)
        for path in (garbage, tmp_path / "missing.sqlite"):
            with pytest.raises(sqlite3.DatabaseError):
                read_store_file(str(path))
        assert sorted(os.listdir(tmp_path)) == ["garbage.sqlite"]
