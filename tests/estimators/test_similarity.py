"""Unit tests for similarity templates and the greedy search."""

import pytest

from repro.core.estimators.history import HistoryRepository, TaskRecord
from repro.core.estimators.similarity import (
    ALL_TEMPLATE_ATTRIBUTES,
    DEFAULT_LADDER,
    GreedyTemplateSearch,
    most_specific_match,
)


def rec(owner="u", executable="exe", queue="q", nodes=1, runtime=100.0, **kw):
    return TaskRecord(
        owner=owner, account=kw.get("account", "a"), partition=kw.get("partition", "p"),
        queue=queue, nodes=nodes, task_type=kw.get("task_type", "batch"),
        executable=executable, requested_cpu_hours=kw.get("requested_cpu_hours", 1.0),
        runtime_s=runtime, status=kw.get("status", "successful"),
    )


def target(owner="u", executable="exe", queue="q", nodes=1):
    return {
        "owner": owner, "account": "a", "partition": "p", "queue": queue,
        "nodes": nodes, "task_type": "batch", "executable": executable,
    }


class TestLadder:
    def test_ladder_most_specific_first(self):
        assert DEFAULT_LADDER[0] == ALL_TEMPLATE_ATTRIBUTES
        assert DEFAULT_LADDER[-1] == ()

    def test_ladder_prefixes(self):
        for i, template in enumerate(DEFAULT_LADDER[:-1]):
            assert template == ALL_TEMPLATE_ATTRIBUTES[: len(ALL_TEMPLATE_ATTRIBUTES) - i]


class TestMostSpecificMatch:
    def test_full_match_when_enough_samples(self):
        h = HistoryRepository([rec() for _ in range(5)])
        template, matches = most_specific_match(h, target())
        assert template == ALL_TEMPLATE_ATTRIBUTES
        assert len(matches) == 5

    def test_falls_back_when_specific_rung_thin(self):
        # Only 2 exact matches but 5 matching the executable alone.
        h = HistoryRepository(
            [rec(queue="q") for _ in range(2)] + [rec(queue="other") for _ in range(3)]
        )
        template, matches = most_specific_match(h, target(), min_samples=3)
        assert "queue" not in template
        assert len(matches) == 5

    def test_second_pass_prefers_few_specific_over_many_generic(self):
        # 2 records of the right executable, 50 unrelated ones.
        h = HistoryRepository(
            [rec(executable="mine", runtime=100.0) for _ in range(2)]
            + [rec(executable="other", owner="someone", runtime=10000.0) for _ in range(50)]
        )
        template, matches = most_specific_match(
            h, target(executable="mine"), min_samples=3
        )
        assert template != ()
        assert len(matches) == 2
        assert all(m.executable == "mine" for m in matches)

    def test_empty_template_is_last_resort(self):
        h = HistoryRepository([rec(executable="other", owner="x") for _ in range(5)])
        template, matches = most_specific_match(h, target(executable="missing"))
        assert template == ()
        assert len(matches) == 5

    def test_invalid_min_samples(self):
        with pytest.raises(ValueError):
            most_specific_match(HistoryRepository(), target(), min_samples=0)

    def test_empty_history_returns_empty_matches(self):
        template, matches = most_specific_match(HistoryRepository(), target())
        assert template == ()
        assert matches == []


class CountingHistory(HistoryRepository):
    """Counts the similarity queries a ladder walk issues."""

    def __init__(self, records=()):
        super().__init__(records)
        self.queries = 0

    def matching(self, attributes, target):
        self.queries += 1
        return super().matching(attributes, target)


def two_pass_match(history, target, min_samples, ladder=DEFAULT_LADDER):
    """The ladder as first written: one walk per acceptance threshold."""
    for template in ladder:
        if template:
            matches = history.matching(template, target)
            if len(matches) >= min_samples:
                return template, matches
    for template in ladder:
        if template:
            matches = history.matching(template, target)
            if matches:
                return template, matches
    return (), history.successful()


class TestSinglePassLadder:
    MIN_SAMPLES = 3
    RUNGS = len(DEFAULT_LADDER) - 1  # the empty template is never queried

    # Each case: records agreeing with target() on the whole ladder ("full"),
    # on everything but the queue ("mid": rungs of <= 3 attributes) and on
    # the executable alone ("exe").
    CASES = {
        "no history": dict(full=0, mid=0, exe=0),
        "one exact": dict(full=1, mid=0, exe=0),
        "one at the bottom rung": dict(full=0, mid=0, exe=1),
        "threshold - 1 exact": dict(full=2, mid=0, exe=0),
        "threshold exact": dict(full=3, mid=0, exe=0),
        "thin top, threshold - 1 overall": dict(full=1, mid=1, exe=0),
        "thin top, threshold in the middle": dict(full=1, mid=2, exe=0),
        "thin everywhere, threshold at the bottom": dict(full=1, mid=1, exe=1),
        "threshold only at the bottom": dict(full=0, mid=0, exe=3),
    }

    def history(self, full, mid, exe):
        return (
            [rec(runtime=100.0 + i) for i in range(full)]
            + [rec(queue="other", runtime=200.0 + i) for i in range(mid)]
            + [rec(owner="someone", runtime=300.0 + i) for i in range(exe)]
            + [rec(executable="unrelated", owner="x", runtime=9000.0) for _ in range(4)]
        )

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_answer_as_two_pass_reference(self, case):
        records = self.history(**self.CASES[case])
        single, double = CountingHistory(records), CountingHistory(records)
        got = most_specific_match(single, target(), min_samples=self.MIN_SAMPLES)
        want = two_pass_match(double, target(), self.MIN_SAMPLES)
        assert got == want
        assert single.queries <= self.RUNGS
        assert single.queries <= double.queries

    @pytest.mark.parametrize("at_bottom_rung", [0, MIN_SAMPLES - 1])
    def test_half_the_queries_when_no_rung_reaches_the_threshold(self, at_bottom_rung):
        # Nothing matches, or too little and only at the executable rung:
        # the reference walks the whole ladder twice, the single pass once.
        records = self.history(full=0, mid=0, exe=at_bottom_rung)
        single, double = CountingHistory(records), CountingHistory(records)
        most_specific_match(single, target(), min_samples=self.MIN_SAMPLES)
        two_pass_match(double, target(), self.MIN_SAMPLES)
        assert (single.queries, double.queries) == (self.RUNGS, 2 * self.RUNGS)


class TestGreedySearch:
    def make_history(self):
        """Two owners with very different runtimes; queue is pure noise."""
        records = []
        for i in range(20):
            records.append(rec(owner="fastguy", queue=f"q{i % 3}", runtime=100.0 + i))
            records.append(rec(owner="slowguy", queue=f"q{i % 3}", runtime=10000.0 + i))
        return HistoryRepository(records)

    def test_search_finds_discriminating_attribute(self):
        result = GreedyTemplateSearch(candidates=("owner", "queue")).search(self.make_history())
        assert "owner" in result.template

    def test_search_improves_error(self):
        search = GreedyTemplateSearch(candidates=("owner", "queue"))
        result = search.search(self.make_history())
        first_error = result.trace[0][1]
        assert result.error < first_error

    def test_trace_records_progression(self):
        result = GreedyTemplateSearch(candidates=("owner",)).search(self.make_history())
        assert result.trace[0][0] == ()
        assert len(result.trace) >= 2

    def test_ladder_from_result(self):
        search = GreedyTemplateSearch(candidates=("owner", "queue"))
        result = search.search(self.make_history())
        ladder = search.ladder_from(result)
        assert ladder[0] == result.template
        assert ladder[-1] == ()

    def test_min_samples_validation(self):
        with pytest.raises(ValueError):
            GreedyTemplateSearch(min_samples=1)

    def test_empty_history_scores_inf(self):
        search = GreedyTemplateSearch()
        result = search.search(HistoryRepository())
        assert result.error == float("inf")
        assert result.template == ()
