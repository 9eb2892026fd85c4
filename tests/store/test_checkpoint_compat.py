"""Checkpoints written by an earlier commit still restore to its answers.

``fixtures/format2_full.sqlite`` and ``fixtures/format2_bare.sqlite`` are
format-2 checkpoints of the :mod:`tests.store.test_checkpoint` workload at
its barrier, written by the commit before the journal consumers took over
their own checkpoint rows (PR 23, ``ed4f482``) on an instrumented and on
an ``observability=False`` build; ``fixtures/format2_answers.json`` holds
the ``jobmon.*`` / ``estimator.*`` answers that commit gave — the same on
both builds — at the barrier and after running the same workload,
uninterrupted, to completion.

Regenerate (only when the format is bumped on purpose) with the writing
commit's ``src`` on the path, from the repository root::

    PYTHONPATH=<checkout>/src python -m tests.store.test_checkpoint_compat
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.clarens.errors import ClarensFault
from repro.gridsim.job import reset_id_counters
from repro.store.checkpoint import (
    CHECKPOINT_FORMAT,
    RETIRED_BUILD_PARAMS,
    RETIRED_PHASES,
    CheckpointError,
    Checkpointer,
    restore_gae,
)
from repro.store.registry import CHECKPOINT_GRIDSIM, CHECKPOINT_META
from repro.store.sqlite import SqliteStore, read_store_file

from tests.store.test_checkpoint import T_CHECKPOINT, build_workload, run_to_completion

FIXTURES = Path(__file__).parent / "fixtures"
BUILDS = {"full": True, "bare": False}


def service_answers(gae):
    """Every ``jobmon.*`` / ``estimator.*`` read for the workload's job."""
    client = gae.client("alice", "pw")

    def ask(method, *args):
        try:
            return client.call(method, *args)
        except ClarensFault as exc:
            return ["fault", str(exc)]

    [job] = gae.scheduler.jobs()
    per_task = {
        task.task_id: {
            method: ask(method, task.task_id)
            for method in (
                "jobmon.job_status", "jobmon.progress_history", "jobmon.queue_position",
                "jobmon.remaining_time", "jobmon.estimated_run_time",
            )
        }
        for task in job.tasks
    }
    answers = {
        "tasks": per_task,
        "job_info": ask("jobmon.job_info", job.job_id),
        "owner_tasks": ask("jobmon.owner_tasks", "alice"),
        "history_size": ask("estimator.history_size"),
        "estimate_runtime": ask("estimator.estimate_runtime", {"owner": "alice", "nodes": 1}),
        "estimate_queue_time": {
            f"{site}/{task.task_id}": ask("estimator.estimate_queue_time", site, task.task_id)
            for site in sorted(gae.grid.sites)
            for task in job.tasks
        },
    }
    return json.loads(json.dumps(answers))  # as the file holds them


@pytest.mark.parametrize("build", sorted(BUILDS))
def test_a_parent_written_checkpoint_restores_to_the_parents_answers(build):
    expected = json.loads((FIXTURES / "format2_answers.json").read_text("utf-8"))
    assert expected["format"] == CHECKPOINT_FORMAT
    reset_id_counters()
    gae = restore_gae(str(FIXTURES / f"format2_{build}.sqlite"))
    assert gae.sim.now == T_CHECKPOINT
    assert (gae.observability is not None) == BUILDS[build]
    assert service_answers(gae) == expected["at_barrier"]
    # The restored host answers ``system.recent_calls``: the calls served since.
    client = gae.client()
    served = gae.host.stats.snapshot()["calls"]
    assert len(client.call("system.recent_calls", -1)) == served
    if BUILDS[build]:
        # The file stored instruments nothing binds any more: consumer
        # cursor/lag gauges and the per-type event counter (telemetry's
        # journal series count events now).  Restore re-creates them by
        # name — the gauges valueless, the counter with its stored counts
        # — and the answers above and below do not depend on them.
        stale = {
            name: state for name, state in gae.observability.metrics.snapshot().items()
            if name.startswith("gae_consumer_") or name == "gae_task_events_total"
        }
        assert sorted(stale) == [
            f"gae_consumer_{consumer}_{gauge}"
            for consumer in ("accounting", "estimators", "monalisa", "monitoring")
            for gauge in ("cursor", "lag")
        ] + ["gae_task_events_total"]
        counted = stale.pop("gae_task_events_total")
        assert counted["kind"] == "counter"
        assert sum(counted["values"].values()) == gae.events.journal.head_seq + 1
        assert all(s["kind"] == "gauge" and s["values"] == {} for s in stale.values())
    run_to_completion(gae)
    assert service_answers(gae) == expected["at_completion"]


def test_the_fixtures_record_every_retired_build_param_at_its_constant():
    """What the restores above rebuild: each retired key, at the constant
    ``build_gae`` now wires in its place; and what they read and drop: the
    phase of each periodic activity the build no longer runs."""
    for build in BUILDS:
        stored = read_store_file(str(FIXTURES / f"format2_{build}.sqlite"))
        recorded = stored.get(CHECKPOINT_META, "meta")["build_params"]
        assert {key: recorded[key] for key in RETIRED_BUILD_PARAMS} == RETIRED_BUILD_PARAMS
        phases = stored.get(CHECKPOINT_GRIDSIM, "publishers")
        assert set(RETIRED_PHASES) <= set(phases)


@pytest.mark.parametrize("edit", [{"bogus": 1}, {"telemetry": False}])
def test_build_params_this_build_cannot_reproduce_are_refused(tmp_path, edit):
    """An unknown key, or a retired one holding another value than its
    constant, is a ``CheckpointError`` naming the key."""
    path = tmp_path / "edited.sqlite"
    shutil.copyfile(FIXTURES / "format2_full.sqlite", path)
    with SqliteStore(str(path)) as store:
        meta = store.get(CHECKPOINT_META, "meta")
        meta["build_params"].update(edit)
        store.put(CHECKPOINT_META, "meta", meta)
    [key] = edit
    with pytest.raises(CheckpointError, match=f"build_params (names )?{key}"):
        restore_gae(str(path))


@pytest.mark.parametrize("edit, refusal", [
    ("drop site_load", "the publishers record lacks site_load"),
    ("add bogus", "the publishers record names bogus, which this build does not run"),
])
def test_a_publishers_record_this_build_cannot_resume_is_refused(tmp_path, edit, refusal):
    """A periodic phase the record lacks, or one the build does not run
    (retired ones aside), is a ``CheckpointError`` naming the file and the
    key — not a bare ``KeyError``, nor a silent restore."""
    path = tmp_path / "edited.sqlite"
    shutil.copyfile(FIXTURES / "format2_full.sqlite", path)
    verb, key = edit.split()
    with SqliteStore(str(path)) as store:
        phases = store.get(CHECKPOINT_GRIDSIM, "publishers")
        if verb == "drop":
            del phases[key]
        else:
            phases[key] = 30.0
        store.put(CHECKPOINT_GRIDSIM, "publishers", phases)
    with pytest.raises(CheckpointError) as raised:
        restore_gae(str(path))
    assert str(raised.value) == f"{str(path)!r}: {refusal}"


if __name__ == "__main__":
    recorded = {}
    for name, observability in BUILDS.items():
        path = FIXTURES / f"format2_{name}.sqlite"
        path.unlink(missing_ok=True)
        gae, _ = build_workload(observability=observability)
        Checkpointer(gae).checkpoint_at(T_CHECKPOINT, str(path))
        at_barrier = {}
        gae.sim.at(T_CHECKPOINT, lambda: at_barrier.update(service_answers(gae)))
        gae.sim.run_until(T_CHECKPOINT)
        run_to_completion(gae)
        recorded[name] = {"at_barrier": at_barrier, "at_completion": service_answers(gae)}
    assert recorded["full"] == recorded["bare"]
    (FIXTURES / "format2_answers.json").write_text(
        json.dumps({"format": CHECKPOINT_FORMAT, **recorded["full"]}, sort_keys=True) + "\n",
        "utf-8",
    )
