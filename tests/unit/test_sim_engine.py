"""Event engine: ordering, cancellation, run bounds."""

import pytest

from repro.sim import Engine, SimulationError


class TestScheduling:
    def test_now_starts_at_start_time(self):
        assert Engine(start_time=100.0).now == 100.0

    def test_events_fire_in_time_order(self):
        eng = Engine()
        fired = []
        eng.schedule(3.0, lambda: fired.append("c"))
        eng.schedule(1.0, lambda: fired.append("a"))
        eng.schedule(2.0, lambda: fired.append("b"))
        eng.run()
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_schedule_order(self):
        eng = Engine()
        fired = []
        for tag in "abc":
            eng.schedule(1.0, fired.append, tag)
        eng.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        eng = Engine()
        seen = []
        eng.schedule(5.5, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [5.5] and eng.now == 5.5

    def test_schedule_in_past_rejected(self):
        eng = Engine(start_time=10.0)
        with pytest.raises(SimulationError):
            eng.schedule_at(5.0, lambda: None)

    def test_nonfinite_times_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.schedule(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            Engine(start_time=float("inf"))

    def test_events_scheduled_during_run_fire(self):
        eng = Engine()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                eng.schedule(1.0, chain, n + 1)

        eng.schedule(1.0, chain, 0)
        eng.run()
        assert fired == [0, 1, 2, 3]
        assert eng.now == 4.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        eng = Engine()
        fired = []
        event = eng.schedule(1.0, fired.append, "x")
        event.cancel()
        eng.run()
        assert fired == []

    def test_pending_excludes_cancelled(self):
        eng = Engine()
        keep = eng.schedule(1.0, lambda: None)
        drop = eng.schedule(2.0, lambda: None)
        drop.cancel()
        assert eng.pending() == 1
        assert not keep.cancelled


class TestRunBounds:
    def test_run_until_stops_before_later_events(self):
        eng = Engine()
        fired = []
        eng.schedule(1.0, fired.append, "early")
        eng.schedule(10.0, fired.append, "late")
        eng.run(until=5.0)
        assert fired == ["early"]
        assert eng.now == 5.0  # clock advanced to the bound
        eng.run()
        assert fired == ["early", "late"]

    def test_step_returns_false_on_empty(self):
        assert Engine().step() is False

    def test_not_reentrant(self):
        eng = Engine()
        errors = []

        def nested():
            try:
                eng.run()
            except SimulationError as exc:
                errors.append(exc)

        eng.schedule(1.0, nested)
        eng.run()
        assert len(errors) == 1
