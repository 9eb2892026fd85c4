"""A stdlib-only oracle for the state store, in memory and on file.

Random operations (register, put, put_many, delete, clear) run against a
``StateStore()``, a ``StateStore(path)`` and a model of dicts; after every
operation the stores must read back what the model holds, and the file,
loaded through ``read_store_file``, must hold the same raw value strings
in the same order.  It imports nothing outside the standard library and
``repro.store``, so it runs as a plain script under any interpreter,
pytest or not::

    PYTHONPATH=src python3.13 tests/store/test_store_oracle.py
"""

import json
import math
import os
import random
import sys
import tempfile

from repro.store.base import Namespace, StateStore, encode_value, read_store_file

VALUES = [
    None, True, 0, -1, 2**62, 0.1, -0.0, math.nan, math.inf, "", "é", "雪  ",
    [1, [2.5, None]], {"z": 1, "a": [True]}, (3, 4),
]
KEYS = ["a", "b", "c", "ключ", "d e"]
NAMES = ["ns.one", "ns.two", "ns.three"]


def raw_rows(store, namespace):
    return store.sql_connection().execute(
        "SELECT key, value FROM gae_store WHERE namespace = ? ORDER BY seq", (namespace,)
    ).fetchall()


def check(stores, model):
    for store in stores:
        assert [ns.name for ns in store.namespaces()] == list(model), store
        for name, rows in model.items():
            assert raw_rows(store, name) == list(rows.items()), (store, name)
            assert store.keys(name) == list(rows), (store, name)
            assert store.count(name) == len(rows), (store, name)
            decoded = json.dumps(store.items(name))
            assert decoded == json.dumps([(k, json.loads(v)) for k, v in rows.items()])


def run(seed, steps=120):
    """One random sequence of operations; raises AssertionError on a
    difference between either store and the model."""
    rng = random.Random(seed)
    model = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "oracle.sqlite")
        with StateStore() as memory, StateStore(path) as on_file:
            stores = (memory, on_file)
            for _ in range(steps):
                op = rng.choice(["register", "put", "put", "put_many", "delete", "clear"])
                if op == "register" or not model:
                    name = rng.choice(NAMES)
                    for store in stores:
                        store.register_namespace(Namespace(name, 1, f"{name} bucket"))
                    model.setdefault(name, {})
                    continue
                name = rng.choice(list(model))
                if op == "put":
                    key, value = rng.choice(KEYS), rng.choice(VALUES)
                    for store in stores:
                        store.put(name, key, value)
                    model[name][key] = encode_value(value)
                elif op == "put_many":
                    items = [(rng.choice(KEYS), rng.choice(VALUES)) for _ in range(3)]
                    for store in stores:
                        assert store.put_many(name, items) == len(items)
                    for key, value in items:
                        model[name][key] = encode_value(value)
                elif op == "delete":
                    key = rng.choice(KEYS)
                    for store in stores:
                        assert store.delete(name, key) is (key in model[name])
                    model[name].pop(key, None)
                else:
                    for store in stores:
                        assert store.clear(name) == len(model[name])
                    model[name].clear()
                check(stores, model)
        with read_store_file(path) as copy:
            check((copy,), model)
        assert os.listdir(tmp) == ["oracle.sqlite"]


def test_random_operations_match_the_model():
    for seed in range(8):
        run(seed)


if __name__ == "__main__":
    import sqlite3

    for seed in range(int(sys.argv[1]) if len(sys.argv) > 1 else 50):
        run(seed)
    print(f"store oracle: OK (Python {sys.version.split()[0]}, SQLite {sqlite3.sqlite_version})")
