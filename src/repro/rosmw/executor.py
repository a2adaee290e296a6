"""Deterministic, simulated-time executor for node timers.

The executor owns the set of periodic timers registered by nodes and fires
them in timestamp order as simulated time advances.  Ties are broken by
registration order so that campaigns are bit-for-bit reproducible across runs
with the same seed.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

from repro.rosmw.clock import SimClock
from repro.rosmw.node import Timer


class Executor:
    """Fires node timers in simulated-time order."""

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self._heap: List[Tuple[float, int, Timer]] = []
        # Tie-break counter: a plain int, because checkpoint forks deep-copy
        # the executor and ``itertools.count`` cannot be copied on Python 3.14.
        self._counter = 0

    def _next_count(self) -> int:
        count = self._counter
        self._counter = count + 1
        return count

    def register_timer(self, timer: Timer) -> None:
        """Add a timer to the schedule."""
        heapq.heappush(self._heap, (timer.next_fire, self._next_count(), timer))

    def reschedule_timer(
        self, timer: Timer, fire_time: float, front: bool = False
    ) -> None:
        """Move an already-registered timer to fire at absolute ``fire_time``.

        With ``front=True`` the timer wins ties against every currently
        scheduled entry (its tie-break counter is set below the heap minimum).
        Golden-prefix checkpoint forks use this to insert the fault injector's
        one-shot timer at its absolute injection time: in a from-scratch run
        the injector registered at launch and never re-registered, so at the
        injection instant its counter is older than every periodic timer's --
        ``front=True`` reproduces that ordering on a resumed graph.
        """
        self._heap = [entry for entry in self._heap if entry[2] is not timer]
        timer.next_fire = float(fire_time)
        counter = self._next_count()
        if front:
            counter = min(
                (entry[1] for entry in self._heap), default=counter
            ) - 1
        self._heap.append((timer.next_fire, counter, timer))
        heapq.heapify(self._heap)

    def spin_until(self, t: float) -> int:
        """Fire every due timer up to and including simulated time ``t``.

        The clock is advanced to each timer's fire time before its callback
        runs, and finally to ``t``.  Returns the number of callbacks fired.
        """
        fired = 0
        while self._heap and self._heap[0][0] <= t:
            fire_time, _, timer = heapq.heappop(self._heap)
            if timer.cancelled or not timer.node.alive:
                continue
            if fire_time > self.clock.now:
                self.clock.set(fire_time)
            timer.fired_count += 1
            fired += 1
            timer.node._run_guarded(timer.callback)
            if not timer.cancelled:
                timer.next_fire = fire_time + timer.period
                heapq.heappush(self._heap, (timer.next_fire, self._next_count(), timer))
        if t > self.clock.now:
            self.clock.set(t)
        return fired

    def clear(self) -> None:
        """Drop all scheduled timers (between missions)."""
        self._heap.clear()
