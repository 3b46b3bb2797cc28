"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.simulator.engine import SimulationError, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fire_fifo(self, sim):
        order = []
        for name in "abcde":
            sim.schedule(1.0, order.append, name)
        sim.run()
        assert order == list("abcde")

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_schedule_at_absolute_time(self, sim):
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    @pytest.mark.parametrize("method", ["schedule", "schedule_at"])
    def test_nan_time_rejected(self, sim, method):
        # NaN compares False both ways, so ``delay < 0`` / ``time < now``
        # let it through and the NaN key breaks heap order for every
        # later event.
        with pytest.raises(SimulationError):
            getattr(sim, method)(float("nan"), lambda: None)
        fired = []
        sim.schedule(2.0, fired.append, "b")
        sim.schedule(1.0, fired.append, "a")
        sim.run()
        assert fired == ["a", "b"]

    @pytest.mark.parametrize("method", ["schedule", "schedule_at"])
    def test_infinite_time_accepted_and_never_fired_before_until(self, sim, method):
        fired = []
        getattr(sim, method)(float("inf"), fired.append, "never")
        sim.schedule(1.0, fired.append, "a")
        sim.run(until=1e9)
        assert fired == ["a"]
        assert sim.now == 1e9

    def test_handle_is_the_heap_entry(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        assert len(sim._queue) == 1 and sim._queue[0] is handle
        assert not handle.cancelled
        handle.cancel()
        assert handle.cancelled and sim.peek_time() is None

    def test_events_scheduled_during_run_fire(self, sim):
        order = []

        def first():
            order.append("first")
            sim.schedule(1.0, lambda: order.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "second"]
        assert sim.now == 2.0

    def test_zero_delay_event_fires_after_current(self, sim):
        order = []

        def first():
            order.append("a")
            sim.schedule(0.0, lambda: order.append("b"))

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["a", "b"]

    def test_callback_args_passed(self, sim):
        seen = []
        sim.schedule(1.0, lambda a, b: seen.append((a, b)), 1, "x")
        sim.run()
        assert seen == [(1, "x")]


class TestCancel:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        handle = sim.schedule(1.0, fired.append, 1)
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_cancel_one_of_many(self, sim):
        fired = []
        keep = sim.schedule(1.0, fired.append, "keep")
        drop = sim.schedule(1.0, fired.append, "drop")
        drop.cancel()
        sim.run()
        assert fired == ["keep"]
        assert not keep.cancelled

    def test_cancelled_events_release_references(self, sim):
        big = object()
        handle = sim.schedule(1.0, lambda x: None, big)
        handle.cancel()
        assert handle.args == ()


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(5.0, fired.append, "late")
        sim.run(until=2.0)
        assert fired == ["early"]
        assert sim.now == 2.0

    def test_run_until_resumable(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        sim.run(until=10.0)
        assert fired == ["a", "b"]

    def test_run_until_advances_clock_when_queue_drains(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_stop_aborts_run(self, sim):
        fired = []

        def first():
            fired.append("a")
            sim.stop()

        sim.schedule(1.0, first)
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a"]

    def test_step_processes_single_event(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        assert sim.step() is True
        assert fired == ["a"]
        assert sim.step() is True
        assert sim.step() is False

    def test_reset_clears_queue_and_clock(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.reset()
        assert sim.now == 0.0
        assert sim.peek_time() is None
        assert sim.events_processed == 0

    def test_peek_time_skips_cancelled(self, sim):
        h = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        h.cancel()
        assert sim.peek_time() == 2.0

    def test_not_reentrant(self, sim):
        def recurse():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(1.0, recurse)
        sim.run()

    def test_run_until_nan_rejected(self, sim):
        # ``t > nan`` is false for every event time: the bound would be
        # ignored and the queue drained to the end.
        fired = []
        sim.schedule(1.0, fired.append, "a")
        with pytest.raises(SimulationError):
            sim.run(until=float("nan"))
        assert fired == [] and sim.now == 0.0
        sim.run(until=2.0)  # the rejected call left the engine usable
        assert fired == ["a"]

    def test_run_until_infinity_drains_the_queue(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=float("inf"))
        assert fired == ["a", "b"]

    def test_events_processed_counter(self, sim):
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestPeriodic:
    def test_periodic_fires_repeatedly(self, sim):
        fired = []
        sim.schedule_periodic(1.0, lambda: fired.append(sim.now))
        sim.run(until=5.5)
        assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_periodic_start_delay(self, sim):
        fired = []
        sim.schedule_periodic(1.0, lambda: fired.append(sim.now), start_delay=0.5)
        sim.run(until=3.0)
        assert fired == [0.5, 1.5, 2.5]

    def test_periodic_cancel_stops_chain(self, sim):
        fired = []
        handle = sim.schedule_periodic(1.0, lambda: fired.append(sim.now))
        sim.schedule(2.5, handle.cancel)
        sim.run(until=10.0)
        assert fired == [1.0, 2.0]

    def test_periodic_rejects_nonpositive_interval(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_periodic(0.0, lambda: None)

    def test_periodic_cancel_from_its_own_callback(self, sim):
        fired = []

        def tick():
            fired.append(sim.now)
            if len(fired) == 3:
                handle.cancel()  # while firing: the chain must not re-arm

        handle = sim.schedule_periodic(1.0, tick)
        sim.run(until=10.0)
        assert fired == [1.0, 2.0, 3.0]
        assert handle.cancelled and sim.peek_time() is None

    def test_periodic_proxy_tracks_and_cancels_the_live_occurrence(self, sim):
        handle = sim.schedule_periodic(1.0, lambda: None)
        assert not handle.cancelled and handle[0] == 1.0
        sim.run(until=3.5)
        assert handle[0] == 4.0  # the proxy follows the chain
        handle.cancel()
        handle.cancel()  # idempotent
        assert handle.cancelled and sim.peek_time() is None

    def test_periodic_handles_share_one_type(self, sim):
        # One class object per call was ~15 us each and only a gen-2
        # collection ever reclaimed it.
        a = sim.schedule_periodic(1.0, lambda: None)
        b = Simulator().schedule_periodic(2.0, lambda: None)
        assert type(a) is type(b)
        a.cancel()
        assert a.cancelled and not b.cancelled


class TestPropertyBased:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=50))
    def test_events_always_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        times = []
        for d in delays:
            sim.schedule(d, lambda: times.append(sim.now))
        sim.run()
        assert times == sorted(times)
        assert len(times) == len(delays)

    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=100,
                                        allow_nan=False),
                              st.booleans()),
                    min_size=1, max_size=40))
    def test_cancelled_subset_never_fires(self, items):
        sim = Simulator()
        fired = []
        handles = []
        for i, (delay, cancel) in enumerate(items):
            handles.append((sim.schedule(delay, fired.append, i), cancel))
        for handle, cancel in handles:
            if cancel:
                handle.cancel()
        sim.run()
        expected = {i for i, (_, cancel) in enumerate(items) if not cancel}
        assert set(fired) == expected
