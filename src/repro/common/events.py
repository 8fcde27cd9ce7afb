"""Deterministic discrete-event queue used by the timing model.

The CU pipelines are cycle-driven, but long-latency structures (caches,
DRAM, barriers) schedule completion events here.  When every wavefront on
the machine is provably blocked, the top-level clock fast-forwards to the
next scheduled event instead of burning empty cycles — this is what makes a
cycle-level model tractable in Python.

An event is a heap entry ``(cycle, seq, fn, a, b)`` that fires as
``fn(a, b)``: the timing model's completions are bound methods plus their
two operands (a wavefront and its fetch epoch or released slots), so
scheduling one allocates no closure.

Determinism: ties are broken by insertion order (``seq``), never by
callback identity, so two runs of the same workload produce identical
cycle counts.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from .errors import TimingError

EventCallback = Callable[[object, object], None]


class EventQueue:
    """A monotonic, deterministic event queue keyed by cycle.

    ``now`` is a plain attribute (read-mostly, on every hot path of the
    timing model); only this class's methods may write it.
    """

    __slots__ = ("_heap", "_seq", "now")

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, EventCallback, object, object]] = []
        self._seq = 0
        #: current simulated cycle
        self.now = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, delay: int, fn: EventCallback, a: object = None,
                 b: object = None) -> None:
        """Schedule ``fn(a, b)`` to fire ``delay`` cycles from now."""
        if delay < 0:
            raise TimingError(f"cannot schedule into the past (delay={delay})")
        self.schedule_at(self.now + delay, fn, a, b)

    def schedule_at(self, cycle: int, fn: EventCallback, a: object = None,
                    b: object = None) -> None:
        """Schedule ``fn(a, b)`` at an absolute cycle."""
        if cycle < self.now:
            raise TimingError(f"cannot schedule at {cycle}, now is {self.now}")
        heapq.heappush(self._heap, (cycle, self._seq, fn, a, b))
        self._seq += 1

    def next_event_cycle(self) -> Optional[int]:
        """Cycle of the earliest pending event, or None when empty."""
        return self._heap[0][0] if self._heap else None

    def advance(self, limit: int) -> None:
        """Move the clock to ``limit`` or, when earlier, to the next
        pending event's cycle, firing every event due then: one step of
        the dispatcher.  Events scheduled *during* processing at that
        cycle also fire, in deterministic order."""
        heap = self._heap
        if heap and heap[0][0] <= limit:
            limit = heap[0][0]
            self.now = limit
            pop = heapq.heappop
            while heap and heap[0][0] == limit:
                _cycle, _seq, fn, a, b = pop(heap)
                fn(a, b)
        elif limit < self.now:
            raise TimingError(
                f"clock cannot run backwards ({limit} < {self.now})")
        self.now = limit

    def advance_to(self, cycle: int) -> None:
        """Move the clock to ``cycle``, firing every event due on the way.

        Events scheduled *during* processing at or before ``cycle`` also
        fire, in deterministic order.
        """
        if cycle < self.now:
            raise TimingError(f"clock cannot run backwards ({cycle} < {self.now})")
        self.advance(cycle)
        while self.now < cycle:
            self.advance(cycle)
