"""Virtual-clock event loop tests: ordering, determinism, deadlock."""

import pytest

from repro.serve.clock import VirtualClock


def sleeper(clock, log, name, *delays):
    """An actor that waits out ``delays`` and logs each wake-up."""
    for delay in delays:
        yield delay
        log.append((name, clock.now))


class TestTimerOrdering:
    def test_actors_wake_in_due_order(self):
        clock = VirtualClock()
        log = []
        clock.run(sleeper(clock, log, "c", 0.3),
                  sleeper(clock, log, "a", 0.1),
                  sleeper(clock, log, "b", 0.2))
        assert log == [("a", 0.1), ("b", 0.2), ("c", 0.3)]
        assert clock.now == 0.3

    def test_equal_due_times_wake_in_submission_order(self):
        clock = VirtualClock()
        log = []
        clock.run(*(sleeper(clock, log, name, 0.5)
                    for name in ("first", "second", "third")))
        assert [name for name, _ in log] == ["first", "second", "third"]

    def test_non_positive_delay_requeues_without_advancing(self):
        clock = VirtualClock()
        log = []
        # A zero delay goes behind the other ready actors (FIFO), not
        # onto the heap.
        clock.run(sleeper(clock, log, "a", 0.0, -1.0),
                  sleeper(clock, log, "b", 0.0))
        assert log == [("a", 0.0), ("b", 0.0), ("a", 0.0)]
        assert clock.now == 0.0
        assert clock.pending_timers == 0

    @pytest.mark.parametrize("delay", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_delay_rejected(self, delay):
        clock = VirtualClock()
        with pytest.raises(ValueError, match="finite"):
            clock.run(sleeper(clock, [], "bad", delay))
        assert clock.now == 0.0
        assert clock.pending_timers == 0

    def test_sequential_delays_accumulate(self):
        clock = VirtualClock()
        clock.run(sleeper(clock, [], "steps", *[0.25] * 5))
        assert clock.now == pytest.approx(1.25)


class TestRun:
    def test_propagates_actor_exception(self):
        clock = VirtualClock()

        def failing():
            yield 0.1
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            clock.run(failing())
        assert clock.now == 0.1

    def test_no_actors_is_an_empty_run(self):
        clock = VirtualClock()
        clock.run()
        assert clock.now == 0.0
        assert clock.pending_timers == 0

    def test_actor_that_never_yields_finishes_at_once(self):
        clock = VirtualClock()
        log = []

        def returns_at_once():
            return
            yield  # makes this a generator

        clock.run(returns_at_once(), sleeper(clock, log, "after", 0.2))
        assert log == [("after", 0.2)]
        assert clock.pending_timers == 0

    def test_waking_a_finished_actor_is_a_no_op(self):
        clock = VirtualClock()
        log = []
        done = sleeper(clock, log, "done", 0.1)

        def waker():
            yield 0.5
            clock.wake(done)
            log.append(("waker", clock.now))

        clock.run(done, waker())
        assert log == [("done", 0.1), ("waker", 0.5)]
        assert clock.now == 0.5

    def test_deadlock_raises_instead_of_hanging(self):
        clock = VirtualClock()

        def waits_forever():
            yield None  # nobody ever wakes it

        with pytest.raises(RuntimeError, match="deadlock"):
            clock.run(waits_forever())
        # The failed run leaves nothing behind: the clock runs again.
        log = []
        clock.run(sleeper(clock, log, "after", 0.5))
        assert log == [("after", 0.5)]

    def test_wake_readies_a_parked_actor_only(self):
        clock = VirtualClock()
        items, seen = [], []

        def consumer():
            while True:
                while not items:
                    yield None
                item = items.pop(0)
                if item is None:
                    return
                seen.append((item, clock.now))

        worker = consumer()

        def producer():
            for item in (0, 1, 2, None):
                yield 0.1
                items.append(item)
                clock.wake(worker)
                clock.wake(worker)  # no-op: already readied

        clock.run(worker, producer())
        assert seen == [(0, pytest.approx(0.1)), (1, pytest.approx(0.2)),
                        (2, pytest.approx(0.3))]

    def test_woken_actor_runs_behind_the_running_one(self):
        clock = VirtualClock()
        log = []

        def parked():
            yield None
            log.append("woken")

        waiter = parked()

        def waker():
            clock.wake(waiter)
            log.append("waker continues")
            yield 0.1
            log.append("waker again")

        clock.run(waiter, waker())
        assert log == ["waker continues", "woken", "waker again"]


class TestDeterminism:
    def test_identical_programs_produce_identical_logs(self):
        def once():
            clock = VirtualClock()
            log = []
            clock.run(sleeper(clock, log, "fast", *[0.1] * 7),
                      sleeper(clock, log, "slow", *[0.3] * 3))
            return log

        assert once() == once()
