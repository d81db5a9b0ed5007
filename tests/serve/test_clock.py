"""Virtual-clock driver tests: ordering, determinism, deadlock."""

import asyncio

import pytest

from repro.serve.clock import VirtualClock, run


class TestSleepOrdering:
    def test_sleepers_wake_in_due_order(self):
        clock = VirtualClock()
        log = []

        async def sleeper(name, delay):
            await clock.sleep(delay)
            log.append((name, clock.now))

        async def main():
            tasks = [asyncio.ensure_future(sleeper("c", 0.3)),
                     asyncio.ensure_future(sleeper("a", 0.1)),
                     asyncio.ensure_future(sleeper("b", 0.2))]
            await asyncio.gather(*tasks)

        run(main, clock)
        assert log == [("a", 0.1), ("b", 0.2), ("c", 0.3)]
        assert clock.now == 0.3

    def test_equal_due_times_wake_in_submission_order(self):
        clock = VirtualClock()
        log = []

        async def sleeper(name):
            await clock.sleep(0.5)
            log.append(name)

        async def main():
            tasks = [asyncio.ensure_future(sleeper(name))
                     for name in ("first", "second", "third")]
            await asyncio.gather(*tasks)

        run(main, clock)
        assert log == ["first", "second", "third"]

    def test_zero_or_negative_delay_yields_without_advancing(self):
        clock = VirtualClock()

        async def main():
            await clock.sleep(0.0)
            await clock.sleep(-1.0)
            return clock.now

        assert run(main, clock) == 0.0
        assert clock.pending_timers == 0

    @pytest.mark.parametrize("delay", [float("nan"), float("inf")])
    def test_non_finite_delay_rejected(self, delay):
        clock = VirtualClock()

        async def main():
            await clock.sleep(delay)

        with pytest.raises(ValueError, match="finite"):
            run(main, clock)
        assert clock.now == 0.0
        assert clock.pending_timers == 0

    def test_sequential_sleeps_accumulate(self):
        clock = VirtualClock()

        async def main():
            for _ in range(5):
                await clock.sleep(0.25)
            return clock.now

        assert run(main, clock) == pytest.approx(1.25)


class TestRunDriver:
    def test_returns_main_result(self):
        clock = VirtualClock()

        async def main():
            await clock.sleep(1.0)
            return "done"

        assert run(main, clock) == "done"

    def test_propagates_main_exception(self):
        clock = VirtualClock()

        async def main():
            await clock.sleep(0.1)
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            run(main, clock)

    def test_deadlock_raises_instead_of_hanging(self):
        clock = VirtualClock()

        async def main():
            # A future nobody ever resolves: no timer can unblock this.
            await asyncio.get_running_loop().create_future()

        with pytest.raises(RuntimeError, match="deadlock"):
            run(main, clock)

    def test_producer_consumer_over_a_queue(self):
        clock = VirtualClock()
        seen = []

        async def main():
            queue = asyncio.Queue()

            async def producer():
                for item in range(3):
                    await clock.sleep(0.1)
                    await queue.put(item)
                await queue.put(None)

            async def consumer():
                while True:
                    item = await queue.get()
                    if item is None:
                        return
                    seen.append((item, clock.now))

            await asyncio.gather(producer(), consumer())

        run(main, clock)
        assert seen == [(0, pytest.approx(0.1)), (1, pytest.approx(0.2)),
                        (2, pytest.approx(0.3))]


class TestDeterminism:
    def test_identical_programs_produce_identical_logs(self):
        def once():
            clock = VirtualClock()
            log = []

            async def worker(name, period, count):
                for tick in range(count):
                    await clock.sleep(period)
                    log.append((name, tick, round(clock.now, 9)))

            async def main():
                await asyncio.gather(worker("fast", 0.1, 7),
                                     worker("slow", 0.3, 3))

            run(main, clock)
            return log

        assert once() == once()
