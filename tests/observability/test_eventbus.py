"""Unit tests for the event-sourced core (journal-first write path)."""

import ast
import contextlib
import dataclasses
import functools
import os
import tempfile
from pathlib import Path

import pytest

from repro.clarens.server import ClarensHost
from repro.cli import checkpoint_demo_workload
from repro.events.core import CONSUMER_NAMES, JournalConsumer
from repro.events.journal import EventJournal, EventType, OutOfOrderError
from repro.gae import build_gae
from repro.gridsim import GridBuilder
from repro.gridsim.job import TaskSpec, bag_of_tasks, reset_id_counters
from repro.store.memory import MemoryStore
from repro.store.checkpoint import CheckpointError, Checkpointer, restore_gae


def demo_at(t=300.0):
    gae, job = checkpoint_demo_workload()
    gae.sim.run_until(t)
    return gae, job


class TestJournalFirstWritePath:
    def test_all_consumers_registered_in_order(self):
        gae, _ = demo_at(0.0)
        core = gae.observability.eventcore
        names = list(core.consumers)
        assert tuple(names) == CONSUMER_NAMES
        # Monitoring must fold before monalisa: the derived job-state
        # publish reads the row the SQL upsert just wrote.
        assert names.index("monitoring") < names.index("monalisa")

    def test_every_consumer_rebuilds_bit_identically(self):
        gae, _ = demo_at()
        for report in gae.observability.eventcore.verify_all():
            assert report["covered"], report
            assert report["identical"], report

    def test_cursors_track_journal_head(self):
        gae, _ = demo_at()
        core = gae.observability.eventcore
        head = gae.observability.journal.head_seq
        assert head > 0
        assert core.cursors() == {name: head for name in CONSUMER_NAMES}
        # Synchronous dispatch: every consumer folded every event of its
        # kinds, up to the head — what a cursor could only ever repeat.
        for consumer in core.consumers.values():
            assert consumer.events_applied == sum(
                e.type in consumer.kinds for e in core.journal.events()
            )

    def test_system_consumers_rpc_reports_the_head(self):
        gae, _ = demo_at()
        with gae.client("demo", "demo") as client:
            snap = client.call("system.consumers")
        assert snap["enabled"]
        assert snap["journal_head_seq"] == gae.events.journal.head_seq > 0
        rows = {row["name"]: row for row in snap["consumers"]}
        assert set(rows) == set(CONSUMER_NAMES)
        for row in rows.values():
            assert set(row) == {"name", "kinds", "namespaces"}

    def test_snapshot_is_restore_invariant(self):
        """Process-local diagnostics stay out of the RPC snapshot."""
        gae, _ = demo_at()
        snap = gae.observability.eventcore.snapshot()
        for row in snap["consumers"]:
            assert "events_applied" not in row
            assert "baseline_seq" not in row

    def test_no_consumer_gauge_that_can_only_read_the_head(self):
        gae, _ = demo_at()
        metrics = gae.observability.metrics.snapshot()
        assert not [name for name in metrics if name.startswith("gae_consumer_")]
        # The journal's own size and telemetry's per-type counts are the
        # instruments: every event is counted once, in a closed window, the
        # open one, or the next.
        head = gae.observability.journal.head_seq
        state = gae.observability.telemetry.export_state()
        counted = sum(
            sum(state[part].values())
            for part in ("cumulative", "current_counts", "next_counts")
        )
        assert counted == head + 1


class Boom(RuntimeError):
    pass


class PoisonedConsumer(JournalConsumer):
    """Folds every kind into nothing, and raises while ``poisoned``."""

    name = "poisoned"
    kinds = frozenset(EventType)
    poisoned = False

    def fold(self, event, notify):
        if self.poisoned:
            raise Boom(f"consumer choked on seq {event.seq}")

    def save(self, store):
        pass

    def load(self, store):
        pass

    @contextlib.contextmanager
    def twin(self):
        yield PoisonedConsumer()


class TestNobodyIsStarved:
    """An event that is in the journal reaches every consumer, whoever
    raised before them; the producer still hears the first exception."""

    @staticmethod
    def write_through_every_producer(gae, job):
        task_id = job.tasks[0].task_id
        record = dataclasses.replace(
            gae.monitoring.db_manager.get(task_id), snapshot_time=gae.sim.now, progress=0.5
        )
        for produce in (
            lambda: gae.monalisa.publish("siteA", "load", gae.sim.now, 0.625),
            lambda: gae.estimators.record_estimate(task_id, 4242.0),
            lambda: gae.monitoring.db_manager.update(record),
        ):
            with pytest.raises(Boom, match="choked on seq"):
                produce()
        return task_id

    def check_stores_kept_up(self, gae, task_id, head_before):
        core = gae.events
        head = core.journal.head_seq
        assert head == head_before + 3
        assert core.cursors() == {name: head for name in core.consumers}
        assert gae.monalisa.latest("siteA", "load") == 0.625
        assert gae.estimators.estimate_db.lookup(task_id) == 4242.0
        assert gae.monitoring.db_manager.get(task_id).progress == 0.5
        assert gae.monalisa.job_events(task_id=task_id)[-1].progress == 0.5
        for report in core.verify_all():
            assert report["covered"] and report["identical"], report

    def test_a_raising_consumer_registered_first(self):
        gae, job = demo_at(100.0)
        core = gae.events
        head_before = core.journal.head_seq
        poisoned = PoisonedConsumer()
        poisoned.poisoned = True
        # Registration order is dict order: put the poisoned one in front.
        shipped = dict(core.consumers)
        core.consumers.clear()
        core.register(poisoned)
        core.consumers.update(shipped)
        assert list(core.consumers) == ["poisoned", *CONSUMER_NAMES]
        task_id = self.write_through_every_producer(gae, job)
        assert poisoned.events_applied == 3
        self.check_stores_kept_up(gae, task_id, head_before)


class TestBareHost:
    """``observability=False`` takes away the readers of the journal, not
    the journal: the three store consumers are on every GAE host."""

    def test_bare_gae_lists_the_store_consumers_at_the_head(self):
        reset_id_counters()
        grid = GridBuilder(seed=4).site("siteA", nodes=2).site("siteB", nodes=2).build()
        gae = build_gae(grid, observability=False).start()
        gae.scheduler.submit_job(
            bag_of_tasks([TaskSpec(owner="u")] * 3, [60.0, 90.0, 400.0], owner="u")
        )
        gae.sim.run_until(200.0)
        gae.stop()
        client = gae.client()
        snap = client.call("system.consumers")
        head = gae.events.journal.head_seq
        assert snap["enabled"] and snap["journal_head_seq"] == head > 0
        assert [row["name"] for row in snap["consumers"]] == list(CONSUMER_NAMES)
        assert gae.events.cursors() == dict.fromkeys(CONSUMER_NAMES, head)
        assert client.call("system.observability") == {"enabled": False}
        # Nothing retained, so a fold past its baseline is not rebuildable
        # — and says so, instead of passing on an empty window.
        for report in gae.events.verify_all():
            assert not report["covered"], report

    def test_host_without_a_gae_has_no_consumers(self):
        assert ClarensHost().dispatch("system.consumers", [], "") == {"enabled": False}


class TestOnePath:
    """Source-level: nothing under ``src/`` can write a store except by
    journalling, and no producer can be built without its emit target."""

    SRC = Path(__file__).resolve().parents[2] / "src"
    FOLDS = {"apply_record", "_apply_publish", "_apply_job_state"}

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def trees():
        src = TestOnePath.SRC
        return [
            (path.relative_to(src).as_posix(), ast.parse(path.read_text("utf-8")))
            for path in sorted(src.rglob("*.py"))
        ]

    def test_fold_primitives_are_called_only_by_the_consumers(self):
        callers = {
            (path, node.func.attr)
            for path, tree in self.trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in self.FOLDS
            and not path.startswith("repro/events/")
        }
        # publish_job_state is _apply_job_state under its public name.
        assert callers == {("repro/monalisa/repository.py", "_apply_job_state")}

    def test_a_consumer_states_its_fold_once(self):
        """No class under ``repro/events/`` carries the old three-fold /
        two-serialisation protocol, and each consumer's store-mutating
        calls all sit in its one ``fold``."""
        retired = {"apply", "replay", "_fold_fingerprint", "live_fingerprint",
                   "_capture_baseline"}
        mutators = self.FOLDS | {"record", "add"}
        consumers = 0
        for path, tree in self.trees():
            if not path.startswith("repro/events/"):
                continue
            for cls in ast.walk(tree):
                if not isinstance(cls, ast.ClassDef):
                    continue
                methods = [n for n in cls.body if isinstance(n, ast.FunctionDef)]
                assert not retired & {m.name for m in methods}, (path, cls.name)
                if "JournalConsumer" not in {getattr(b, "id", None) for b in cls.bases}:
                    continue
                consumers += 1
                mutating = {
                    method.name
                    for method in methods
                    for node in ast.walk(method)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in mutators
                }
                assert mutating == {"fold"}, (cls.name, mutating)
        assert consumers == len(CONSUMER_NAMES)

    def test_only_the_queue_accounting_reads_its_books(self):
        # (``StateStore._missing()``, a method of the store, is a call.)
        readers = {
            path
            for path, tree in self.trees()
            for called in [{id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}]
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in {"_bands", "_missing"}
            and id(node) not in called
        }
        assert readers == {"repro/core/estimators/queue_time.py"}

    def test_the_checkpoint_names_no_consumer_store(self):
        """``store/checkpoint.py`` reaches consumer state only through
        ``save`` / ``load`` in a loop over ``events.consumers``."""
        [tree] = [t for path, t in self.trees() if path == "repro/store/checkpoint.py"]
        named = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in {"history", "estimate_db", "db_manager", "monalisa"}
        }
        assert named == set()
        loops = [
            (ast.unparse(loop.iter), call.func.attr)
            for loop in ast.walk(tree) if isinstance(loop, ast.For)
            for call in ast.walk(loop)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id == getattr(loop.target, "id", None)
            and call.func.attr in {"save", "load"}
        ]
        assert sorted(loops) == [
            ("gae.events.consumers.values()", "load"),
            ("gae.events.consumers.values()", "save"),
        ]

    def test_no_emit_target_is_ever_compared_with_none(self):
        def name_of(node):
            return getattr(node, "attr", getattr(node, "id", None))

        compared = [
            (path, node.lineno)
            for path, tree in self.trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            and name_of(node.left) in {"emit", "sink", "estimate_sink"}
            and any(isinstance(c, ast.Constant) and c.value is None for c in node.comparators)
        ]
        assert compared == []

    def test_the_journal_has_one_sink_and_the_core_installs_it(self):
        """No reader list on the journal, and the only journal reader any
        module under ``src/`` installs is the core's dispatch."""
        assert not hasattr(EventJournal(clock=lambda: 0.0), "listeners")
        [journal_cls] = [
            node
            for path, tree in self.trees() if path == "repro/events/journal.py"
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == "EventJournal"
        ]
        assert "listeners" not in {
            node.attr for node in ast.walk(journal_cls) if isinstance(node, ast.Attribute)
        }
        touched = set()
        for path, tree in self.trees():
            for node in ast.walk(tree):
                # journal.listeners.<anything>(...) / journal.listeners = ...
                if (isinstance(node, ast.Attribute) and node.attr == "listeners"
                        and "journal" in ast.unparse(node.value)):
                    touched.add((path, ast.unparse(node)))
                # <x>.sink = ..., anywhere but a class's own ``self.sink``
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if (isinstance(target, ast.Attribute) and target.attr == "sink"
                                and ast.unparse(target.value) != "self"):
                            touched.add((path, f"{ast.unparse(target)} = "
                                               f"{ast.unparse(node.value)}"))
        assert touched == {("repro/events/core.py", "journal.sink = self._dispatch")}

    def test_the_write_path_imports_nothing_from_its_instruments(self):
        imported = {
            (path, getattr(node, "module", None) or alias.name)
            for path, tree in self.trees() if path.startswith("repro/events/")
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        assert not {pair for pair in imported if pair[1].startswith("repro.observability")}
        for gone in ("journal.py", "eventbus.py"):
            assert not (self.SRC / "repro" / "observability" / gone).exists()

    @pytest.mark.parametrize(
        "module, cls, target",
        [
            ("core/monitoring/db_manager.py", "DBManager", "emit"),
            ("monalisa/repository.py", "MonALISARepository", "emit"),
            ("core/estimators/service.py", "EstimatorService", "estimate_sink"),
            ("core/estimators/history.py", "HistoryRecorder", "sink"),
            ("core/monitoring/service.py", "JobMonitoringService", "emit"),
        ],
    )
    def test_producers_require_their_emit_target(self, module, cls, target):
        tree = ast.parse((self.SRC / "repro" / module).read_text("utf-8"))
        [init] = [
            fn
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and node.name == cls
            for fn in node.body if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
        ]
        positional = [a.arg for a in init.args.args]
        required = positional[: len(positional) - len(init.args.defaults)]
        assert target in required, f"{cls}.__init__({target}=...) has a default"


class TestOutOfOrderRejection:
    def test_load_from_rejects_non_monotonic_seq(self):
        source = EventJournal(clock=lambda: 0.0)
        source.record(EventType.SUBMITTED, "task-a")
        source.record(EventType.STARTED, "task-a")
        store = MemoryStore()
        source.save_to(store)
        # Splice the rows so seq order reverses.
        from repro.store.registry import OBSERVABILITY_JOURNAL

        rows = [store.get(OBSERVABILITY_JOURNAL, k) for k in ("000000000000", "000000000001")]
        rows[0]["seq"], rows[1]["seq"] = rows[1]["seq"], rows[0]["seq"]
        store.put(OBSERVABILITY_JOURNAL, "000000000000", rows[0])
        store.put(OBSERVABILITY_JOURNAL, "000000000001", rows[1])
        target = EventJournal(clock=lambda: 0.0)
        with pytest.raises(OutOfOrderError):
            target.load_from(store)


class TestIncrementalCheckpointGuards:
    def test_incremental_without_prior_full_is_rejected(self):
        gae, _ = demo_at(100.0)
        with tempfile.TemporaryDirectory() as tmp:
            with pytest.raises(CheckpointError):
                Checkpointer(gae).checkpoint(
                    os.path.join(tmp, "delta.sqlite"),
                    base=os.path.join(tmp, "base.sqlite"),
                )

    def test_restore_gae_rejects_incremental_file(self):
        """A continuation restored without its base is refused."""
        gae, _ = demo_at(100.0)
        with tempfile.TemporaryDirectory() as tmp:
            base = os.path.join(tmp, "base.sqlite")
            delta = os.path.join(tmp, "delta.sqlite")
            ckpt = Checkpointer(gae)
            ckpt.checkpoint(base)
            gae.sim.run_until(150.0)
            ckpt.checkpoint(delta, base=base)
            reset_id_counters()
            with pytest.raises(CheckpointError):
                restore_gae(delta)
