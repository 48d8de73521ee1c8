"""repro.resilience: retry schedules, deadlines, breaker state machine."""

import pytest

from repro.resilience import (
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExceeded,
    RetryError,
    RetryPolicy,
)


class FakeClock:
    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_delays_are_exponential_capped_and_deterministic(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.1, multiplier=2.0,
                             max_delay=0.3, jitter=0.0)
        assert list(policy.delays()) == [0.1, 0.2, 0.3, 0.3]

    def test_jitter_is_deterministic_under_a_fixed_seed(self):
        policy = RetryPolicy(max_attempts=6, jitter=0.5, seed=42)
        first = list(policy.delays())
        second = list(policy.delays())
        assert first == second  # same (policy, seed) -> same schedule
        assert list(RetryPolicy(max_attempts=6, jitter=0.5, seed=43).delays()) != first

    def test_jitter_stays_within_the_configured_fraction(self):
        policy = RetryPolicy(max_attempts=9, base_delay=1.0, multiplier=1.0,
                             max_delay=1.0, jitter=0.25, seed=7)
        for delay in policy.delays():
            assert 0.75 <= delay <= 1.0

    def test_call_succeeds_after_transient_failures(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise ConnectionRefusedError("not yet")
            return "ok"

        slept = []
        policy = RetryPolicy(max_attempts=5, base_delay=0.01, jitter=0.0)
        result = policy.call(flaky, retry_on=(ConnectionRefusedError,),
                             sleep=slept.append)
        assert result == "ok"
        assert len(attempts) == 3
        assert slept == [0.01, 0.02]

    def test_exhaustion_raises_retry_error_with_cause(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
        with pytest.raises(RetryError) as excinfo:
            policy.call(lambda: (_ for _ in ()).throw(OSError("down")),
                        retry_on=(OSError,), sleep=lambda s: None)
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.__cause__, OSError)

    def test_non_retryable_errors_propagate_immediately(self):
        attempts = []

        def bad_request():
            attempts.append(1)
            raise ValueError("malformed")

        policy = RetryPolicy(max_attempts=5, base_delay=0.0)
        with pytest.raises(ValueError):
            policy.call(bad_request, retry_on=(OSError,))
        assert len(attempts) == 1

    def test_max_elapsed_stops_the_loop_early(self):
        clock = FakeClock()

        def failing():
            clock.advance(1.0)
            raise OSError("slow failure")

        policy = RetryPolicy(max_attempts=10, base_delay=0.5, jitter=0.0,
                             max_elapsed=2.0)
        with pytest.raises(RetryError) as excinfo:
            policy.call(failing, retry_on=(OSError,),
                        sleep=lambda s: clock.advance(s), clock=clock)
        assert excinfo.value.attempts < 10

    def test_deadline_bounds_the_whole_loop(self):
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock=clock)

        def failing():
            clock.advance(0.6)
            raise OSError("down")

        policy = RetryPolicy(max_attempts=50, base_delay=0.5, jitter=0.0)
        with pytest.raises(DeadlineExceeded):
            policy.call(failing, retry_on=(OSError,), deadline=deadline,
                        sleep=lambda s: clock.advance(s), clock=clock)
        assert clock.now < 3.0  # nowhere near 50 attempts

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


# ----------------------------------------------------------------------
# Deadline
# ----------------------------------------------------------------------
class TestDeadline:
    def test_remaining_counts_down_and_clamps_at_zero(self):
        clock = FakeClock()
        deadline = Deadline.after(2.0, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        clock.advance(1.5)
        assert deadline.remaining() == pytest.approx(0.5)
        clock.advance(1.0)
        assert deadline.remaining() == 0.0
        assert deadline.expired()

    def test_check_raises_a_timeout_error_subclass(self):
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock=clock)
        deadline.check("step")  # fine
        clock.advance(1.0)
        with pytest.raises(TimeoutError):
            deadline.check("step")

    def test_unbounded_never_expires(self):
        deadline = Deadline.unbounded()
        assert deadline.remaining() is None
        assert not deadline.expired()
        assert deadline.clamp(5.0) == 5.0

    def test_clamp_returns_the_tighter_bound(self):
        clock = FakeClock()
        deadline = Deadline.after(2.0, clock=clock)
        assert deadline.clamp(10.0) == pytest.approx(2.0)
        assert deadline.clamp(1.0) == pytest.approx(1.0)
        assert deadline.clamp(None) == pytest.approx(2.0)


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def make(self, clock, **kw):
        kw.setdefault("failure_threshold", 3)
        kw.setdefault("reset_timeout", 10.0)
        return CircuitBreaker("test", clock=clock, **kw)

    def trip(self, breaker, clock):
        for _ in range(breaker.failure_threshold):
            assert breaker.allow()
            breaker.record_failure()

    def test_closed_to_open_on_consecutive_failures(self):
        clock = FakeClock()
        breaker = self.make(clock)
        assert breaker.state() == "closed"
        self.trip(breaker, clock)
        assert breaker.state() == "open"
        assert not breaker.allow()
        assert breaker.trips == 1 and breaker.rejections >= 1

    def test_success_resets_the_failure_count(self):
        clock = FakeClock()
        breaker = self.make(clock)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state() == "closed"  # streak broken: never reached 3

    def test_open_to_half_open_to_closed(self):
        clock = FakeClock()
        breaker = self.make(clock)
        self.trip(breaker, clock)
        clock.advance(9.9)
        assert not breaker.allow()
        clock.advance(0.2)  # reset_timeout elapsed
        assert breaker.state() == "half_open"
        assert breaker.allow()          # the probe
        breaker.record_success()
        assert breaker.state() == "closed"
        assert breaker.resets == 1

    def test_half_open_probe_failure_reopens_and_restarts_the_timer(self):
        clock = FakeClock()
        breaker = self.make(clock)
        self.trip(breaker, clock)
        clock.advance(10.1)
        assert breaker.allow()          # probe admitted
        breaker.record_failure()        # probe failed
        assert breaker.state() == "open"
        assert breaker.trips == 2
        clock.advance(9.0)
        assert not breaker.allow()      # timer restarted at the re-trip
        clock.advance(1.5)
        assert breaker.allow()

    def test_half_open_admits_a_bounded_number_of_probes(self):
        clock = FakeClock()
        breaker = self.make(clock, half_open_probes=2)
        self.trip(breaker, clock)
        clock.advance(10.1)
        assert breaker.allow() and breaker.allow()
        assert not breaker.allow()      # third concurrent probe rejected

    def test_half_open_probe_race_admits_exactly_one_and_counts_losers(self):
        # N threads hit allow() simultaneously on a breaker whose reset
        # timer just expired: exactly one probe may win, every loser is
        # rejected AND counted — the fleet front reads `rejections` to
        # tell "shed by the breaker" from "never asked".
        import threading

        clock = FakeClock()
        breaker = self.make(clock, half_open_probes=1)
        self.trip(breaker, clock)
        rejected_before = breaker.rejections
        clock.advance(10.1)             # open -> half-open on next touch
        callers = 8
        barrier = threading.Barrier(callers)
        outcomes = [None] * callers

        def contend(i):
            barrier.wait()
            outcomes[i] = breaker.allow()

        threads = [threading.Thread(target=contend, args=(i,))
                   for i in range(callers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(outcomes) == 1, f"want exactly one probe, got {outcomes}"
        assert breaker.rejections == rejected_before + (callers - 1)
        assert breaker.state() == "half_open"
        # The winner reports back: a success closes the breaker for all.
        breaker.record_success()
        assert breaker.state() == "closed"
        assert all(breaker.allow() for _ in range(callers))

    def test_half_open_losers_increment_the_rejection_metric(self):
        from repro.obs import get_registry
        from repro.obs.config import enabled as obs_enabled

        clock = FakeClock()
        breaker = self.make(clock, half_open_probes=1)
        self.trip(breaker, clock)
        clock.advance(10.1)
        metric = get_registry().counter("resilience_breaker_rejections")
        before = metric.value
        assert breaker.allow()          # the probe: not a rejection
        assert not breaker.allow()      # the loser
        assert breaker.rejections >= 1
        if obs_enabled():
            assert metric.value == before + 1

    def test_explicit_now_drives_transitions(self):
        # The GIIS drives breakers on simulation time, not wall clock.
        breaker = CircuitBreaker("sim", failure_threshold=1, reset_timeout=60.0,
                                 clock=lambda: 0.0)
        breaker.record_failure(now=1000.0)
        assert breaker.state(now=1030.0) == "open"
        assert breaker.state(now=1060.0) == "half_open"
        assert breaker.allow(now=1060.0)
        breaker.record_success(now=1060.0)
        assert breaker.state(now=1060.0) == "closed"

    def test_call_raises_circuit_open_error_when_rejecting(self):
        clock = FakeClock()
        breaker = self.make(clock, failure_threshold=1)
        with pytest.raises(RuntimeError):
            breaker.call(lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.call(lambda: "never runs")
        assert excinfo.value.retry_after == pytest.approx(10.0)
        assert isinstance(excinfo.value, ConnectionError)

    def test_status_snapshot(self):
        clock = FakeClock()
        breaker = self.make(clock)
        breaker.record_failure()
        status = breaker.status()
        assert status["state"] == "closed"
        assert status["consecutive_failures"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker("x", failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker("x", reset_timeout=0.0)


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
def test_retry_and_breaker_activity_is_counted_and_emitted():
    from repro.obs import get_event_bus, get_registry

    retries_before = get_registry().counter("resilience_retries", "").value
    trips_before = get_registry().counter("resilience_breaker_trips", "").value

    attempts = []

    def flaky():
        attempts.append(1)
        if len(attempts) < 2:
            raise OSError("transient")
        return "ok"

    RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0).call(
        flaky, retry_on=(OSError,), label="obs-test", sleep=lambda s: None)
    assert get_registry().counter("resilience_retries", "").value == retries_before + 1
    retry_events = get_event_bus().events(kind="resilience.retry")
    assert any(e.fields.get("label") == "obs-test" for e in retry_events)

    clock = FakeClock()
    breaker = CircuitBreaker("obs-test", failure_threshold=1, clock=clock)
    breaker.record_failure()
    assert (
        get_registry().counter("resilience_breaker_trips", "").value
        == trips_before + 1
    )
    open_events = get_event_bus().events(kind="resilience.breaker_open")
    assert any(e.fields.get("breaker") == "obs-test" for e in open_events)
