"""Property-based tests: estimator invariants."""

import dataclasses
import math
import os
import tempfile

import numpy as np
from hypothesis import assume, given, settings
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
    history holds right now — nothing is carried between calls.  The
    arithmetic is the estimator's own closed form, so the answers are
    equal, not close; ``TestNumpyOracle`` checks that arithmetic against
    numpy.
    """
    template, matches = most_specific_match(
        history, task_spec.attributes(), min_samples=min_samples
    )
    if not matches:
        raise EstimationError("history holds no successful task records")
    rts = [r.runtime_s for r in matches]
    n = len(rts)
    mean = math.fsum(rts) / n
    mean_sse = math.fsum((y - mean) ** 2 for y in rts)
    x = [float(r.requested_cpu_hours) for r in matches]
    well_posed = n >= 3 and not (
        max(x) - min(x) <= 1e-12 * max(1.0, max(abs(v) for v in x))
    )
    regression, beats_mean = None, False
    if well_posed:
        x_mean = math.fsum(x) / n
        dx = [v - x_mean for v in x]
        slope = math.fsum(d * (y - mean) for d, y in zip(dx, rts)) / math.fsum(
            d * d for d in dx
        )
        intercept = mean - slope * x_mean
        prediction = slope * float(task_spec.requested_cpu_hours) + intercept
        regression = min(max(prediction, min(rts) / 2.0), max(rts) * 2.0)
        reg_sse = math.fsum((y - (slope * v + intercept)) ** 2 for v, y in zip(x, rts))
        beats_mean = reg_sse < 0.9 * mean_sse
    use_regression = regression is not None and (
        method == "regression" or (method == "auto" and beats_mean)
    )
    return RuntimeEstimate(
        value=regression if use_regression else mean,
        mean=mean,
        regression=regression,
        n_similar=n,
        template=template,
        method="regression" if use_regression else "mean",
        stddev=math.sqrt(mean_sse / (n - 1)) if n > 1 else 0.0,
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


# ----------------------------------------------------------------------
# numpy as the oracle of the closed-form fit
# ----------------------------------------------------------------------
def numpy_fit(pairs, query_hours):
    """mean, stddev, regression (None when ill-posed), reg_sse, mean_sse:
    the fit as ``np.polyfit`` / ``np.clip`` / ``.std(ddof=1)`` compute it."""
    rts = np.asarray([r for r, _ in pairs], dtype=float)
    x = np.asarray([h for _, h in pairs], dtype=float)
    mean = float(rts.mean())
    stddev = float(rts.std(ddof=1)) if len(rts) > 1 else 0.0
    mean_sse = float(np.sum((rts - rts.mean()) ** 2))
    if len(rts) < 3 or np.ptp(x) <= 1e-12 * max(1.0, float(np.abs(x).max())):
        return mean, stddev, None, None, mean_sse
    slope, intercept = np.polyfit(x, rts, deg=1)
    regression = float(
        np.clip(float(slope * query_hours + intercept), rts.min() / 2.0, rts.max() * 2.0)
    )
    reg_sse = float(np.sum((rts - (slope * x + intercept)) ** 2))
    return mean, stddev, regression, reg_sse, mean_sse


#: One similar set: (runtime, hours) rows, and whether every row shares
#: the first row's hours (a set with no spread, so no line).
similar_sets = st.tuples(st.lists(st.tuples(runtimes, hours), min_size=1, max_size=30), st.booleans())


class TestNumpyOracle:
    @staticmethod
    def fit(rows, flat, query_hours, method="auto"):
        pairs = [(r, rows[0][1] if flat else h) for r, h in rows]
        history = HistoryRepository([record(r, h) for r, h in pairs])
        estimate = RuntimeEstimator(history, method=method).estimate(spec(h=query_hours))
        return estimate, numpy_fit(pairs, query_hours), pairs

    @given(similar_sets, hours)
    @settings(max_examples=300)
    def test_mean_and_stddev_agree_with_numpy(self, similar, query_hours):
        estimate, (mean, stddev, _, _, _), _ = self.fit(*similar, query_hours)
        assert math.isclose(estimate.mean, mean, rel_tol=1e-12)
        # Relative to the runtimes' scale: a set of (nearly) equal runtimes
        # has a standard deviation at numpy's rounding error of its mean.
        assert math.isclose(estimate.stddev, stddev, rel_tol=1e-12, abs_tol=1e-12 * mean)

    @given(similar_sets, hours, st.sampled_from(["auto", "regression"]))
    @settings(max_examples=300)
    def test_estimates_agree_with_polyfit(self, similar, query_hours, method):
        estimate, (mean, _, regression, _, _), pairs = self.fit(*similar, query_hours, method)
        x = [h for _, h in pairs]
        spread = max(x) - min(x)
        assume(spread == 0 or spread > 1e-6 * max(x))
        assert (estimate.regression is None) == (regression is None)
        if regression is not None:
            assert math.isclose(estimate.regression, regression, rel_tol=1e-9)
        if estimate.method == "mean":
            assert math.isclose(estimate.value, mean, rel_tol=1e-12)

    @given(similar_sets, hours)
    @settings(max_examples=300)
    def test_mean_or_regression_is_numpys_choice(self, similar, query_hours):
        estimate, (mean, _, regression, reg_sse, mean_sse), pairs = self.fit(*similar, query_hours)
        x = [h for _, h in pairs]
        spread = max(x) - min(x)
        assume(spread == 0 or spread > 1e-6 * max(x))
        if regression is not None:
            # Rounding decides a near tie.  Each residual also carries
            # rounding of the runtimes' scale (the 1e-12 · mean of the
            # stddev check above), so equal runtimes, whose two sums of
            # squares are both that rounding, have no choice to compare.
            rounding = len(pairs) * (1e-12 * mean) ** 2
            assume(abs(reg_sse - 0.9 * mean_sse) > 1e-9 * 0.9 * mean_sse + rounding)
        chose_regression = regression is not None and reg_sse < 0.9 * mean_sse
        assert estimate.method == ("regression" if chose_regression else "mean")


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
