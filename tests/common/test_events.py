"""Event-queue determinism and clock tests.

Events are ``(cycle, seq, fn, a, b)`` heap entries that fire as
``fn(a, b)``, so every callback here takes exactly two operands.
"""

import pytest

from repro.common.errors import TimingError
from repro.common.events import EventQueue


def _note(log, item):
    log.append(item)


def _nothing(_a, _b):
    pass


class TestScheduling:
    def test_fires_in_time_order(self):
        q = EventQueue()
        log = []
        q.schedule(5, _note, log, "b")
        q.schedule(2, _note, log, "a")
        q.schedule(9, _note, log, "c")
        q.advance_to(10)
        assert log == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        q = EventQueue()
        log = []
        for name in "abcd":
            # dict operands: the heap must never compare past ``seq``
            q.schedule(3, _note, log, {"name": name})
        q.advance_to(3)
        assert [item["name"] for item in log] == ["a", "b", "c", "d"]

    def test_now_tracks_fired_event(self):
        q = EventQueue()
        seen = []
        q.schedule(4, lambda log, queue: log.append(queue.now), seen, q)
        q.advance_to(10)
        assert seen == [4]
        assert q.now == 10

    def test_events_scheduled_during_processing_fire(self):
        q = EventQueue()
        log = []
        q.schedule(1, lambda queue, _b: queue.schedule(1, _note, log, "nested"),
                   q)
        q.advance_to(5)
        assert log == ["nested"]

    def test_negative_delay_rejected(self):
        q = EventQueue()
        with pytest.raises(TimingError):
            q.schedule(-1, _nothing)

    def test_schedule_at_past_rejected(self):
        q = EventQueue()
        q.advance_to(10)
        with pytest.raises(TimingError):
            q.schedule_at(5, _nothing)

    def test_clock_cannot_go_backwards(self):
        q = EventQueue()
        q.advance_to(10)
        with pytest.raises(TimingError):
            q.advance_to(9)


class TestFastForward:
    def test_next_event_cycle(self):
        q = EventQueue()
        assert q.next_event_cycle() is None
        q.schedule(7, _nothing)
        assert q.next_event_cycle() == 7


    def test_len_counts_pending(self):
        q = EventQueue()
        q.schedule(1, _nothing)
        q.schedule(2, _nothing)
        assert len(q) == 2
        q.advance_to(1)
        assert len(q) == 1


class TestAdvance:
    # One dispatcher step: to the limit or to the first pending event,
    # whichever is earlier.

    def test_stops_at_the_first_event(self):
        q = EventQueue()
        log = []
        q.schedule(5, _note, log, "a")
        q.schedule(7, _note, log, "b")
        q.advance(100)
        assert (q.now, log) == (5, ["a"])
        q.advance(100)
        assert (q.now, log) == (7, ["a", "b"])

    def test_goes_to_the_limit_before_any_event(self):
        q = EventQueue()
        log = []
        q.schedule(50, _note, log, "late")
        q.advance(10)
        assert (q.now, log) == (10, [])

    def test_fires_events_due_at_the_limit(self):
        q = EventQueue()
        log = []
        q.schedule(10, _note, log, "due")
        q.advance(10)
        assert (q.now, log) == (10, ["due"])

    def test_fires_same_cycle_events_scheduled_while_firing(self):
        q = EventQueue()
        log = []
        q.schedule(3, lambda queue, _b: queue.schedule(0, _note, log, "same"),
                   q)
        q.schedule(4, _note, log, "next")
        q.advance(100)
        assert (q.now, log) == (3, ["same"])

    def test_rejects_the_past(self):
        q = EventQueue()
        q.advance(10)
        with pytest.raises(TimingError):
            q.advance(9)
