"""Property-based tests: estimator invariants."""

import dataclasses
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimators.history import HistoryRepository, TaskRecord
from repro.core.estimators.runtime import (
    EstimationError,
    RuntimeEstimate,
    RuntimeEstimator,
)
from repro.core.estimators.similarity import most_specific_match
from repro.gae import build_gae
from repro.gridsim import GridBuilder
from repro.gridsim.job import Job, Task, TaskSpec, reset_id_counters
from repro.store.checkpoint import Checkpointer, restore_gae

runtimes = st.floats(min_value=1.0, max_value=1e5, allow_nan=False)
hours = st.floats(min_value=0.01, max_value=100.0, allow_nan=False)


def record(runtime, h=1.0, executable="exe", owner="u"):
    return TaskRecord(
        owner=owner, account="a", partition="p", queue="q", nodes=1,
        task_type="batch", executable=executable, requested_cpu_hours=h,
        runtime_s=runtime,
    )


def spec(h=1.0, executable="exe", owner="u"):
    return TaskSpec(
        owner=owner, account="a", partition="p", queue="q", nodes=1,
        task_type="batch", executable=executable, requested_cpu_hours=h,
    )


class TestRuntimeEstimatorProperties:
    @given(st.lists(runtimes, min_size=1, max_size=30))
    def test_mean_estimate_within_observed_range(self, rts):
        history = HistoryRepository([record(r) for r in rts])
        est = RuntimeEstimator(history, method="mean").estimate(spec())
        assert min(rts) - 1e-9 <= est.value <= max(rts) + 1e-9

    @given(st.lists(st.tuples(runtimes, hours), min_size=3, max_size=30), hours)
    @settings(max_examples=100)
    def test_any_method_estimate_bounded_by_clip(self, pairs, query_hours):
        history = HistoryRepository([record(r, h) for r, h in pairs])
        est = RuntimeEstimator(history, method="auto").estimate(spec(h=query_hours))
        rts = [r for r, _ in pairs]
        # The regression clip guarantees: value in [min/2, 2*max]; the mean
        # is inside the observed range; either way this envelope holds.
        assert min(rts) / 2 - 1e-9 <= est.value <= 2 * max(rts) + 1e-9

    @given(st.lists(runtimes, min_size=1, max_size=20))
    def test_estimate_deterministic(self, rts):
        history = HistoryRepository([record(r) for r in rts])
        e1 = RuntimeEstimator(history).estimate(spec())
        e2 = RuntimeEstimator(history).estimate(spec())
        assert e1 == e2

    @given(st.lists(runtimes, min_size=1, max_size=20), runtimes)
    def test_adding_failed_records_never_changes_estimate(self, rts, junk):
        history = HistoryRepository([record(r) for r in rts])
        before = RuntimeEstimator(history, method="mean").estimate(spec()).value
        history.add(
            TaskRecord(
                owner="u", account="a", partition="p", queue="q", nodes=1,
                task_type="batch", executable="exe", requested_cpu_hours=1.0,
                runtime_s=junk, status="failed",
            )
        )
        after = RuntimeEstimator(history, method="mean").estimate(spec()).value
        assert before == after


# ----------------------------------------------------------------------
# one fit per history version: same estimates as fitting every time
# ----------------------------------------------------------------------
def fit_every_time(history, task_spec, method="auto", min_samples=3):
    """The reference: the estimator as it stood before it kept its fits.

    Walks the ladder, fits and evaluates on every call, over whatever the
    history holds right now — nothing is carried between calls.
    """
    template, matches = most_specific_match(
        history, task_spec.attributes(), min_samples=min_samples
    )
    if not matches:
        raise EstimationError("history holds no successful task records")
    rts = np.asarray([r.runtime_s for r in matches], dtype=float)
    mean = float(rts.mean())
    x = np.asarray([float(r.requested_cpu_hours) for r in matches], dtype=float)
    well_posed = len(matches) >= 3 and not (
        np.ptp(x) <= 1e-12 * max(1.0, float(np.abs(x).max()))
    )
    regression, beats_mean = None, False
    if well_posed:
        slope, intercept = np.polyfit(x, rts, deg=1)
        prediction = float(slope * float(task_spec.requested_cpu_hours) + intercept)
        regression = float(np.clip(prediction, float(rts.min()) / 2.0, float(rts.max()) * 2.0))
        reg_sse = float(np.sum((rts - (slope * x + intercept)) ** 2))
        beats_mean = reg_sse < 0.9 * float(np.sum((rts - rts.mean()) ** 2))
    use_regression = regression is not None and (
        method == "regression" or (method == "auto" and beats_mean)
    )
    return RuntimeEstimate(
        value=regression if use_regression else mean,
        mean=mean,
        regression=regression,
        n_similar=len(matches),
        template=template,
        method="regression" if use_regression else "mean",
        stddev=float(rts.std(ddof=1)) if len(matches) > 1 else 0.0,
    )


def outcome(estimate, task_spec):
    """All seven fields of the estimate, or the error it raised instead."""
    try:
        return dataclasses.astuple(estimate(task_spec))
    except EstimationError as exc:
        return ("EstimationError", str(exc))


owners = st.sampled_from(["alice", "bob"])
apps = st.sampled_from(["a1", "a2"])
#: A spec's queue: the one every record has, another, or an unhashable value.
queues = st.sampled_from(["q", "other", ["q"]])
memo_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"), owners, apps, hours, runtimes,
            st.sampled_from(["successful", "successful", "failed"]),
            st.booleans(),
        ),
        st.tuples(st.just("estimate"), owners, apps, hours, queues),
    ),
    max_size=40,
)


class TestFitMemoProperties:
    @given(memo_ops, st.sampled_from(["auto", "mean", "regression"]), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_kept_fits_answer_as_fitting_every_time(self, ops, method, min_samples):
        history = HistoryRepository()
        estimator = RuntimeEstimator(history, method=method, min_samples=min_samples)
        for op in ops:
            if op[0] == "add":
                _, owner, app, h, runtime, status, notify = op
                rec = dataclasses.replace(
                    record(runtime, h, executable=app, owner=owner), status=status
                )
                history.add(rec, notify=notify)
                continue
            _, owner, app, h, queue = op
            task_spec = dataclasses.replace(
                spec(h, executable=app, owner=owner), queue=queue
            )
            # A never-used estimator over a copy of the same records, and the
            # pre-memo arithmetic over the live history: all three agree.
            fresh = RuntimeEstimator(
                HistoryRepository(history.records()), method=method, min_samples=min_samples
            )
            expected = outcome(
                lambda s: fit_every_time(history, s, method, min_samples), task_spec
            )
            assert outcome(estimator.estimate, task_spec) == expected
            assert outcome(fresh.estimate, task_spec) == expected
        # Bounded by what was asked about since the last record, never by asks.
        assert len(estimator._fits) <= 2 * 2 * 2

    def test_a_restored_host_fits_its_own_history(self):
        reset_id_counters()
        grid = (
            GridBuilder(seed=5).site("siteA", nodes=1).site("siteB", nodes=1)
            .link("siteA", "siteB", capacity_mbps=100.0, latency_s=0.05).build()
        )
        victim = build_gae(grid).start()
        probe = TaskSpec(owner="u", requested_cpu_hours=2.0)
        for i in range(4):
            victim.history.add(TaskRecord.from_spec(probe, runtime_s=100.0 + 10.0 * i))
        task = Task(spec=probe, work_seconds=50.0)
        victim.scheduler.submit_job(Job(tasks=[task], owner="u"))  # victim keeps a fit
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "ckpt.sqlite")
            Checkpointer(victim).checkpoint(path)
            # The victim lives on past the checkpoint: its history — and the
            # fit it keeps for this very spec — moves away from the file's.
            victim.history.add(TaskRecord.from_spec(probe, runtime_s=9_000.0))
            moved_on = victim.estimators.runtime.estimate(probe)
            restored = restore_gae(path)
        assert restored.estimators.runtime is not victim.estimators.runtime
        assert len(restored.history) == len(victim.history) - 1
        answer = restored.estimators.runtime.estimate(probe)
        assert answer == fit_every_time(restored.history, probe)
        assert answer != moved_on and answer.n_similar == 4


class TestTemplateProperties:
    @given(
        st.lists(
            st.tuples(st.sampled_from(["alice", "bob"]), st.sampled_from(["a1", "a2"]), runtimes),
            min_size=1,
            max_size=40,
        )
    )
    def test_matches_agree_on_template_attributes(self, rows):
        history = HistoryRepository(
            [record(r, executable=app, owner=who) for who, app, r in rows]
        )
        target = spec(executable="a1", owner="alice").attributes()
        template, matches = most_specific_match(history, target, min_samples=2)
        for m in matches:
            for attr in template:
                assert m.attribute(attr) == target[attr]

    @given(
        st.lists(
            st.tuples(st.sampled_from(["alice", "bob"]), runtimes),
            min_size=1,
            max_size=30,
        )
    )
    def test_result_never_empty_when_history_nonempty(self, rows):
        history = HistoryRepository([record(r, owner=who) for who, r in rows])
        _, matches = most_specific_match(history, spec(owner="alice").attributes())
        assert len(matches) >= 1
