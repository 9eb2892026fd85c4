"""Property-based tests: estimator invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimators.history import HistoryRepository, TaskRecord
from repro.core.estimators.runtime import RuntimeEstimator
from repro.core.estimators.similarity import most_specific_match
from repro.gridsim.job import TaskSpec

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
