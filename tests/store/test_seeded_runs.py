"""A seed is a run: ids follow from the grid seed, across restore too.

The workload is the demo job (``repro.cli.checkpoint_demo_workload``),
steered at t=100 s through the Clarens client, checkpointed at t=150 s
(self-contained) and t=205 s (a continuation of it), run out, and the
continuation restored and run out as well.  Run by this file as a script
it prints, as JSON, every journal row's ``to_wire()`` and every consumer's
``fingerprint()`` of both runs, and every namespace of both checkpoint
files as a sha256 — so two fresh interpreters can be compared byte for
byte, with no mapping of ids to ordinals::

    PYTHONPATH=src python tests/store/test_seeded_runs.py SCRATCH_DIR > run.json

Two such files, say one written with a parent commit's ``src`` and one
with a change's, are compared by::

    PYTHONPATH=src python tests/store/test_seeded_runs.py --compare PARENT.json CHANGE.json \
        [--expect checkpoint.gridsim,checkpoint.steering]

which prints each key that differs (the outcomes, a run's journal, a
consumer's fingerprint, a checkpoint namespace's masked digest) and exits
1 unless every difference is a namespace named by ``--expect``.

The only values that may differ between two runs of one seed are named in
:data:`WALL_CLOCK_OR_RANDOM`; those namespaces are compared with exactly
those values masked.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List

from repro.cli import checkpoint_demo_workload
from repro.clarens.errors import ClarensFault
from repro.gridsim.job import reset_id_counters
from repro.observability.tracing import seeded_id_prefix
from repro.store.base import read_store_file
from repro.store.checkpoint import Checkpointer, restore_gae
from repro.store.registry import CHECKPOINT_META, OBSERVABILITY_TRACING

T_STEER, T_BASE, T_DELTA, T_END = 100.0, 150.0, 205.0, 3_000.0
FIXTURE = Path(__file__).parent / "fixtures" / "format2_full.sqlite"

#: Namespace -> what in it is not a function of the seed: the wall-clock
#: ``duration_ms`` of each ``rpc:`` span and the trace ids a client mints
#: for its calls (random per process), and the password salts (and so the
#: hashes) of the user table.
WALL_CLOCK_OR_RANDOM = {
    OBSERVABILITY_TRACING: "rpc spans' duration_ms; client-minted trace ids",
    CHECKPOINT_META: "password salts and hashes in users",
}


def steered_demo():
    """The demo workload with four steering verbs at ``T_STEER``."""
    gae, job = checkpoint_demo_workload()
    steering = gae.client("demo", "demo").service("steering")
    tasks = [task.task_id for task in job.tasks]
    outcomes = []

    def steer():
        moved = tasks[2]
        target = "siteA" if gae.grid.sites["siteB"].pool.has_task(moved) else "siteB"
        for verb, *args in (
            ("set_priority", tasks[0], 7), ("pause", tasks[1]),
            ("resume", tasks[1]), ("move", moved, target),
        ):
            try:
                outcomes.append(getattr(steering, verb)(*args))
            except ClarensFault as exc:
                outcomes.append(str(exc))

    gae.sim.at(T_STEER, steer)
    return gae, outcomes


def run_out(gae):
    gae.sim.run_until(T_END)
    gae.stop()
    gae.sim.run()
    return gae


def journal_wire(gae):
    return [json.dumps(e.to_wire(), sort_keys=True) for e in gae.events.journal.events()]


def fingerprints(gae):
    return {
        name: json.dumps(consumer.fingerprint(), sort_keys=True)
        for name, consumer in sorted(gae.events.consumers.items())
    }


def masked(namespace, rows):
    """*rows* with the :data:`WALL_CLOCK_OR_RANDOM` values of *namespace* masked."""
    if namespace == CHECKPOINT_META:
        meta = dict(rows[0][1])
        meta["users"] = [[name, "-", "-", groups] for name, _h, _s, groups in meta["users"]]
        return [("meta", meta)]
    if namespace == OBSERVABILITY_TRACING:
        out = []
        for key, span in rows:
            span = dict(span, attributes=dict(span["attributes"]))
            if span["name"].startswith("rpc:"):
                del span["attributes"]["duration_ms"]
                if "adopted_from" in span["attributes"]:
                    span["attributes"]["adopted_from"] = "<call>"
                else:
                    span["trace_id"] = "<call>"
            out.append((key, span))
        return out
    return rows


def namespace_digests(path):
    """``namespace -> [sha256 of its rows, sha256 with the exceptions masked]``."""
    store = read_store_file(str(path))
    out = {}
    for ns in store.namespaces():
        rows = list(store.items(ns.name))
        out[ns.name] = [
            hashlib.sha256(json.dumps(r, sort_keys=True).encode()).hexdigest()
            for r in (rows, masked(ns.name, rows))
        ]
    return out


def one_run(tmp: Path) -> dict:
    """Everything two runs of one seed must write identically."""
    base, delta = tmp / "base.sqlite", tmp / "delta.sqlite"
    gae, outcomes = steered_demo()
    ckpt = Checkpointer(gae)
    ckpt.checkpoint_at(T_BASE, str(base))
    ckpt.checkpoint_at(T_DELTA, str(delta), base=str(base))
    run_out(gae)
    reset_id_counters()
    restored = run_out(restore_gae(str(delta), base=str(base)))
    return {
        "outcomes": outcomes,
        "journal": {"live": journal_wire(gae), "restored": journal_wire(restored)},
        "fingerprints": {"live": fingerprints(gae), "restored": fingerprints(restored)},
        "namespaces": {"base": namespace_digests(base), "delta": namespace_digests(delta)},
    }


def fresh_interpreter_run(tmp: Path) -> dict:
    tmp.mkdir()
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PYTHONHASHSEED", None)  # each interpreter hashes its own way
    out = subprocess.run(
        [sys.executable, __file__, str(tmp)],
        capture_output=True, text=True, timeout=300, env=env, check=False,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_two_fresh_interpreters_write_the_same_run(tmp_path):
    first = fresh_interpreter_run(tmp_path / "first")
    second = fresh_interpreter_run(tmp_path / "second")
    assert [o["ok"] for o in first["outcomes"]] == [True] * 4, first["outcomes"]
    assert first["outcomes"] == second["outcomes"]
    for run in ("live", "restored"):
        assert first["journal"][run] == second["journal"][run], run
        assert first["fingerprints"][run] == second["fingerprints"][run], run
    # The restored run's rows are the uninterrupted run's, ids included.
    assert first["journal"]["restored"] == first["journal"]["live"]
    for name in ("base", "delta"):
        a, b = first["namespaces"][name], second["namespaces"][name]
        assert sorted(a) == sorted(b)
        differ = {ns for ns in a if a[ns][0] != b[ns][0]}
        assert differ <= set(WALL_CLOCK_OR_RANDOM), (name, differ)
        assert {ns: a[ns][1] for ns in a} == {ns: b[ns][1] for ns in b}, name


def test_ids_continue_across_a_restore(tmp_path):
    """Cut at ``T_DELTA``, restore and run out: the rows after the barrier
    are the uninterrupted run's byte for byte, and the restored ring holds
    no id twice."""
    path = tmp_path / "cut.sqlite"
    gae, _ = steered_demo()
    ckpt = Checkpointer(gae)
    ckpt.checkpoint_at(T_DELTA, str(path))
    gae.sim.run_until(T_DELTA)
    barrier = ckpt.last_info.head_seq
    reference = journal_wire(run_out(gae))[barrier + 1:]

    reset_id_counters()
    restored = run_out(restore_gae(str(path)))
    assert journal_wire(restored)[barrier + 1:] == reference
    assert len(reference) > 100
    assert any(json.loads(row)["span_id"] for row in reference)
    ids = [span.span_id for span in restored.observability.tracer.spans()]
    assert len(ids) == len(set(ids))


def test_a_restored_format2_file_mints_no_id_its_ring_holds():
    """The fixture's spans carry random prefixes and it saved no counters;
    what the restored build mints from its seed is never one of them."""
    reset_id_counters()
    gae = restore_gae(str(FIXTURE))
    tracer = gae.observability.tracer
    loaded = tracer.spans()
    held = {span.span_id for span in loaded}
    run_out(gae)
    assert len(tracer) < tracer.capacity  # nothing dropped: the ring is loaded + minted
    minted = tracer.spans()[len(loaded):]
    assert len(minted) > 10
    assert not {span.span_id for span in minted} & held
    prefix = seeded_id_prefix(gae.grid.rngs.seed)
    assert all(span.span_id.startswith(prefix + "-s") for span in minted)
    ids = [span.span_id for span in tracer.spans()]
    assert len(ids) == len(set(ids))


def differing(parent: dict, change: dict) -> List[str]:
    """Each key in which two :func:`one_run` results differ: ``outcomes``,
    ``journal.<run>``, ``fingerprints.<run>.<consumer>`` and
    ``namespaces.<file>.<namespace>`` (its masked digest)."""
    keys = [] if parent["outcomes"] == change["outcomes"] else ["outcomes"]
    for run in ("live", "restored"):
        if parent["journal"][run] != change["journal"][run]:
            keys.append(f"journal.{run}")
        a, b = parent["fingerprints"][run], change["fingerprints"][run]
        keys += [
            f"fingerprints.{run}.{name}" for name in sorted({*a, *b}) if a.get(name) != b.get(name)
        ]
    for name in ("base", "delta"):
        a, b = parent["namespaces"][name], change["namespaces"][name]
        keys += [
            f"namespaces.{name}.{ns}" for ns in sorted({*a, *b})
            if (a.get(ns) or [None, None])[1] != (b.get(ns) or [None, None])[1]
        ]
    return keys


def test_differing_names_each_key_that_differs():
    run = {
        "outcomes": [{"ok": True}],
        "journal": {"live": ["a"], "restored": ["a"]},
        "fingerprints": {"live": {"c": "1"}, "restored": {"c": "1"}},
        "namespaces": {"base": {"n.x": ["r", "m"]}, "delta": {"n.x": ["r", "m"]}},
    }
    assert differing(run, run) == []
    other = json.loads(json.dumps(run))
    other["journal"]["restored"] = ["b"]
    other["fingerprints"]["live"]["c"] = "2"
    other["namespaces"]["base"]["n.x"] = ["raw differs", "m"]  # masked equal
    other["namespaces"]["delta"]["n.y"] = ["r", "m"]
    assert differing(run, other) == [
        "fingerprints.live.c", "journal.restored", "namespaces.delta.n.y"
    ]


def compare(argv: List[str]) -> int:
    """``PARENT.json CHANGE.json [--expect ns,...]``: print each differing
    key; 1 unless every one is a namespace named by ``--expect``."""
    expected = set(argv[argv.index("--expect") + 1].split(",")) if "--expect" in argv else set()
    parent, change = (json.loads(Path(p).read_text("utf-8")) for p in argv[:2])
    keys = differing(parent, change)
    unexpected = [
        key for key in keys
        if not key.startswith("namespaces.") or key.split(".", 2)[2] not in expected
    ]
    for key in keys:
        print(("unexpected: " if key in unexpected else "expected: ") + key)
    return 1 if unexpected else 0


if __name__ == "__main__":
    if sys.argv[1] == "--compare":
        sys.exit(compare(sys.argv[2:]))
    print(json.dumps(one_run(Path(sys.argv[1]))))
