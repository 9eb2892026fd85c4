"""Unit tests for the simulator clock and event loop."""

import pytest

from repro.gridsim.clock import SimClock, Simulator
from repro.gridsim.events import SimulationError


class TestSimClock:
    def test_starts_at_given_time(self):
        assert SimClock(10.0).now == 10.0

    def test_advance_forward(self):
        c = SimClock()
        c._advance_to(5.0)
        assert c.now == 5.0

    def test_advance_backward_raises(self):
        c = SimClock(5.0)
        with pytest.raises(SimulationError):
            c._advance_to(4.0)

    def test_advance_to_same_time_ok(self):
        c = SimClock(5.0)
        c._advance_to(5.0)
        assert c.now == 5.0


class TestScheduling:
    def test_schedule_relative(self, sim):
        fired = []
        sim.schedule(10.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [10.0]

    def test_at_absolute(self, sim):
        fired = []
        sim.at(7.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [7.0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_at_in_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(3.0, lambda: None)

    def test_zero_delay_runs_after_existing_same_instant(self, sim):
        order = []
        sim.schedule(0.0, lambda: order.append("a"))
        sim.schedule(0.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b"]

    def test_events_scheduled_during_run_execute(self, sim):
        fired = []

        def outer():
            sim.schedule(5.0, lambda: fired.append(sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == [6.0]


class TestRunUntil:
    def test_runs_only_due_events(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        n = sim.run_until(5.0)
        assert n == 1
        assert fired == [1]
        assert sim.now == 5.0

    def test_clock_lands_exactly_on_target(self, sim):
        sim.run_until(42.0)
        assert sim.now == 42.0

    def test_event_at_boundary_included(self, sim):
        fired = []
        sim.schedule(5.0, lambda: fired.append(1))
        sim.run_until(5.0)
        assert fired == [1]

    def test_run_until_past_raises(self, sim):
        sim.run_until(10.0)
        with pytest.raises(SimulationError):
            sim.run_until(5.0)

    def test_max_events_cap(self, sim):
        for i in range(10):
            sim.schedule(float(i + 1), lambda: None)
        n = sim.run_until(100.0, max_events=3)
        assert n == 3


class TestRun:
    def test_run_drains_queue(self, sim):
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        assert sim.run() == 5
        assert sim.pending_events == 0

    def test_runaway_guard(self, sim):
        def rearm():
            sim.schedule(1.0, rearm)

        sim.schedule(1.0, rearm)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_executed_events_counter(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.executed_events == 2


class TestPeriodic:
    def test_every_fires_repeatedly(self, sim):
        fired = []
        handle = sim.every(10.0, lambda: fired.append(sim.now))
        sim.run_until(35.0)
        handle.cancel()
        assert fired == [10.0, 20.0, 30.0]

    def test_first_delay_override(self, sim):
        fired = []
        handle = sim.every(10.0, lambda: fired.append(sim.now), first_delay=1.0)
        sim.run_until(25.0)
        handle.cancel()
        assert fired == [1.0, 11.0, 21.0]

    def test_first_at_is_absolute_and_clamped_to_now(self, sim):
        sim.run_until(4.0)
        fired = []
        handles = [
            sim.every(10.0, lambda: fired.append(("ahead", sim.now)), first_at=7.0),
            sim.every(10.0, lambda: fired.append(("passed", sim.now)), first_at=1.0),
        ]
        sim.run_until(20.0)
        for handle in handles:
            handle.cancel()
        assert fired == [
            ("passed", 4.0), ("ahead", 7.0), ("passed", 14.0), ("ahead", 17.0),
        ]

    def test_cancel_stops_future_firings(self, sim):
        fired = []
        handle = sim.every(5.0, lambda: fired.append(sim.now))
        sim.run_until(12.0)
        handle.cancel()
        sim.run_until(50.0)
        assert fired == [5.0, 10.0]

    def test_action_can_cancel_own_handle(self, sim):
        fired = []
        handle = sim.every(5.0, lambda: (fired.append(sim.now), handle.cancel()))
        sim.run_until(100.0)
        assert fired == [5.0]

    def test_nonpositive_interval_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.every(0.0, lambda: None)

    def test_cancelled_flag(self, sim):
        handle = sim.every(5.0, lambda: None)
        assert not handle.cancelled
        handle.cancel()
        assert handle.cancelled


class TestTrace:
    def test_trace_records_executed_events(self):
        sim = Simulator(trace=True)
        sim.schedule(1.0, lambda: None, label="one")
        sim.schedule(2.0, lambda: None, label="two")
        sim.run()
        assert [(t.time, t.label) for t in sim.trace_log] == [(1.0, "one"), (2.0, "two")]

    def test_trace_off_by_default(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.trace_log == []
