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
from pathlib import Path

import pytest

from repro.clarens.errors import ClarensFault
from repro.gridsim.job import reset_id_counters
from repro.store.checkpoint import CHECKPOINT_FORMAT, Checkpointer, restore_gae

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
    if BUILDS[build]:
        # The file stored consumer cursor/lag gauges nothing binds any
        # more; restore re-creates them by name, valueless, and the
        # answers above do not depend on them.
        stale = {
            name: state for name, state in gae.observability.metrics.snapshot().items()
            if name.startswith("gae_consumer_")
        }
        assert sorted(stale) == [
            f"gae_consumer_{consumer}_{gauge}"
            for consumer in ("accounting", "estimators", "monalisa", "monitoring")
            for gauge in ("cursor", "lag")
        ]
        assert all(s["kind"] == "gauge" and s["values"] == {} for s in stale.values())
    run_to_completion(gae)
    assert service_answers(gae) == expected["at_completion"]


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
