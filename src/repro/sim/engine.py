"""Discrete-event simulation engine over a binary-heap calendar.

A minimal but complete event scheduler in the style of ns-2's
``Scheduler``: a calendar of timestamped callbacks, a monotonically
advancing clock, and cancellable event handles.

The engine is deliberately unaware of networking; links, queues, and TCP
agents schedule plain callables.  This keeps the core loop tight (the
simulator executes a few million events for a one-minute dumbbell
scenario) and trivially testable.

Hot-path design
---------------
The calendar is a binary heap (``heapq``) of small lists
``[time, seq, fn, args]`` (plus an owner slot on cancellable entries --
see :class:`Event`), ordered with C-level sequence comparison --
``time`` first, then the unique ``seq`` tiebreaker, never reaching the
callable.  The paper's scenarios keep at most a few hundred entries
pending, where C ``heapq`` constants are hard to beat.

Callers that never cancel (per-packet delivery, attack emission chains)
schedule *transient* entries via ``Simulator._push_transient``; they
skip the past-time check and the :class:`Event` handle.  Cancellable
events (RTO / delayed-ACK timers) are :class:`Event` handles;
cancellation clears the callable slot in place (``fn = None``) and
counts the entry as cancelled-but-pending, keeping ``pending_events``
and the ``engine.peak_calendar_depth`` gauge honest.  Cancelled entries
drain lazily when their timestamp comes up.
"""

from __future__ import annotations

import copy as _copy
import itertools
from heapq import heappop, heappush
from math import inf
from time import perf_counter
from typing import Any, Callable, List, Optional

from repro.obs import metrics as _obs
from repro.util.errors import SimulationError

__all__ = ["Event", "Simulator", "total_events_dispatched"]

#: Process-wide count of events dispatched across every Simulator; the
#: profiling instrumentation (:mod:`repro.sim.profile`) reads this to
#: compute events/sec for experiments that build simulators internally.
_TOTAL_DISPATCHED = 0


def total_events_dispatched() -> int:
    """Events dispatched by all simulators in this process so far."""
    return _TOTAL_DISPATCHED


class Event(list):
    """A cancellable scheduled callback: ``[time, seq, fn, args, owner]``.

    Returned by :meth:`Simulator.schedule`; hold on to it only if you may
    need to :meth:`cancel` it (e.g. a retransmission timer).  The entry
    itself is the cancellation handle -- a list subclass, so the
    calendar compares entries with C-level lexicographic comparison on
    ``(time, seq)``.  ``seq`` is unique per simulator, which keeps
    simultaneous events in FIFO scheduling order (deterministic runs)
    and guarantees the comparison never reaches the callable.

    ``owner`` is the :class:`Simulator` holding the entry; cancellation
    reports into its pending-entry accounting.  A handle kept after its
    event fired stays inert forever.

    Construct with the ready-made entry sequence, e.g.
    ``Event((time, seq, fn, args, owner))``.
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        """Scheduled firing time, seconds."""
        return self[0]

    @property
    def seq(self) -> int:
        """FIFO tiebreaker, unique per simulator."""
        return self[1]

    @property
    def cancelled(self) -> bool:
        """True once the event can no longer fire (cancelled or fired)."""
        return self[2] is None

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; safe after firing."""
        # Clearing in place (rather than removing from the calendar)
        # keeps cancellation O(1); dropping the callback and args also
        # ensures a cancelled timer does not pin packets/agents in
        # memory until the calendar drains past it.
        if self[2] is None:
            return
        self[2] = None
        self[3] = ()
        self[4]._cancelled_pending += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self[2] is None else "pending"
        return f"<Event t={self[0]:.6f} seq={self[1]} {state}>"


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()
        sim.schedule(1.0, print, "hello at t=1")
        sim.run(until=10.0)

    The clock starts at 0.0 and only moves forward.  Scheduling into the
    past -- or at a time that is not ordered at all (NaN) -- raises
    :class:`SimulationError` (a zero delay is allowed and fires after
    all previously scheduled events at the same timestamp).
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._counter = itertools.count()
        #: the calendar, a binary heap; the dispatch loop reaches in
        #: directly.
        self._heap: List[Any] = []
        #: calendar entries cancelled but not yet drained.
        self._cancelled_pending = 0
        self._events_executed = 0
        self._events_cancelled_skipped = 0
        self._running = False
        self._stopped = False
        #: Observers called as ``hook(sim, executed)`` after each
        #: :meth:`run` segment (the flight recorder's engine tap).
        #: Purely passive -- hooks must not schedule events -- and
        #: excluded from :meth:`state_digest`, so an attached hook
        #: cannot change any simulation result.  Costs one truthiness
        #: test per run() call when empty.
        self.post_run_hooks: List[Callable[["Simulator", int], None]] = []

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events dispatched so far (cancelled events excluded)."""
        return self._events_executed

    @property
    def events_cancelled_skipped(self) -> int:
        """Cancelled calendar entries the dispatch loop has drained."""
        return self._events_cancelled_skipped

    @property
    def pending_events(self) -> int:
        """Events still pending that can fire (cancelled ones excluded)."""
        return len(self._heap) - self._cancelled_pending

    @property
    def next_event_seq(self) -> int:
        """The seq the next scheduled event will receive (non-consuming).

        Two simulators whose clocks, calendars, and seq counters agree
        dispatch identically; warm-start checkpointing uses this to
        assert a forked engine resumes exactly where the original left
        off.
        """
        # itertools.count cannot be inspected in place; advance a copy.
        return next(_copy.copy(self._counter))

    def state_digest(self) -> tuple:
        """A comparable fingerprint of the full scheduling state.

        Covers the clock, the seq counter position, and every *live*
        calendar entry's ``(time, seq)`` pair in sorted order.  Sorted
        -- not raw heap order -- so digests compare equal across heaps
        built by different push sequences; cancelled entries are
        excluded because they never influence dispatch.  Two digests
        are equal iff the engines will dispatch identically.  The
        callables themselves are deliberately excluded -- bound methods
        never compare equal across deep copies.
        """
        return (
            self._now,
            self.next_event_seq,
            tuple(sorted((e[0], e[1]) for e in self._heap
                         if e[2] is not None)),
        )

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run *delay* seconds from now."""
        # ``not >=`` (rather than ``<``) also rejects NaN, which compares
        # False both ways and would otherwise fire out of order.
        if not delay >= 0:
            raise SimulationError(
                f"cannot schedule into the past (delay={delay})")
        return self._push_handle(self._now + delay, fn, args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run at absolute time *time*."""
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        return self._push_handle(time, fn, args)

    def _push_handle(self, time: float, fn, args) -> Event:
        """Push a cancellable entry (no time check); returns its handle."""
        event = Event((time, next(self._counter), fn, args, self))
        heappush(self._heap, event)
        return event

    def _push_transient(self, time: float, fn, args) -> None:
        """Push a fire-and-forget entry (no time check, no handle).

        The hot path for callers whose time can never precede the clock
        (``Link.send`` deliveries, attack emission chains).
        """
        heappush(self._heap, [time, next(self._counter), fn, args])

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Dispatch events in timestamp order.

        Args:
            until: stop once the clock would pass this time.  Events at
                exactly ``until`` still fire.  ``None`` drains the calendar.
            max_events: safety valve; raise :class:`SimulationError` rather
                than dispatch more than this many events (an unbounded event
                cascade is always a bug in a finite scenario).  The budget is
                checked before dispatch, so exactly ``max_events`` events
                have executed when the error is raised.

        Returns:
            The number of events executed by this call.
        """
        global _TOTAL_DISPATCHED
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        self._stopped = False
        # Bind the loop state to locals; infinities stand in for "no
        # horizon" / "no budget" so the loop body stays branch-light.
        horizon = inf if until is None else until
        budget = inf if max_events is None else max_events
        # Observability adds per-event depth tracking behind a local
        # bool; with no registry active the extra cost is one branch on
        # a local per event.  The instrumented path dispatches the
        # exact same events in the same order -- it only adds
        # bookkeeping (peak live calendar depth, wall-clock time),
        # never randomness or scheduling.
        registry = _obs.active()
        track = registry is not None
        if track:
            wall_started = perf_counter()
            sim_started = self._now
        heap = self._heap
        pop = heappop
        executed = 0
        cancelled = 0
        peak_depth = self.pending_events if track else 0
        try:
            while heap and not self._stopped:
                if track:
                    depth = len(heap) - self._cancelled_pending
                    if depth > peak_depth:
                        peak_depth = depth
                entry = heap[0]
                time = entry[0]
                if time > horizon:
                    break
                fn = entry[2]
                if fn is None:  # cancelled: drop without counting
                    pop(heap)
                    self._cancelled_pending -= 1
                    cancelled += 1
                    continue
                # Check the budget *before* dispatch so the cascade stops
                # at exactly max_events executed; the offending event stays
                # in the calendar rather than firing past the budget.
                if executed >= budget:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; "
                        "runaway event cascade?"
                    )
                pop(heap)
                self._now = time
                args = entry[3]
                # Consume the entry before dispatch: a handle cancelled
                # after firing must stay a no-op (and stop pinning args).
                entry[2] = None
                entry[3] = ()
                fn(*args)
                executed += 1
                self._events_executed += 1
        finally:
            self._running = False
            self._events_cancelled_skipped += cancelled
            _TOTAL_DISPATCHED += executed
        if until is not None and not self._stopped and self._now < until:
            # Advance the clock to the horizon even if the calendar drained
            # early, so rate monitors see the full observation window.
            self._now = until
        if track:
            registry.counter("engine.runs").inc()
            registry.counter("engine.events_dispatched").inc(executed)
            registry.counter("engine.events_cancelled_skipped").inc(cancelled)
            registry.counter("engine.wall_seconds").inc(
                perf_counter() - wall_started)
            registry.counter("engine.sim_seconds").inc(
                self._now - sim_started)
            registry.gauge("engine.peak_calendar_depth").track_max(peak_depth)
        hooks = self.post_run_hooks
        if hooks:
            for hook in hooks:
                hook(self, executed)
        return executed

    def stop(self) -> None:
        """Stop :meth:`run` after the currently executing event returns."""
        self._stopped = True
