"""The simulation environment: clock, event heap, and run loop.

The :class:`Environment` is the single shared object threaded through
every model in this repository. Time is a ``float`` whose unit is by
convention **nanoseconds** in the architectural simulator
(:mod:`repro.arch`) and **multiples of the mean service time** in the
theoretical queueing models (:mod:`repro.queueing`); the kernel itself
is unit-agnostic.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, Generator, List, Optional, Tuple

from .events import Callback, Event, Process, Timeout

__all__ = ["Environment", "EmptySchedule"]


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


#: Priority used for normal events; urgent events (interrupts) use 0.
_NORMAL = 1


class Environment:
    """A discrete-event simulation environment.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_eid",
        "_next_eid",
        "_active_process",
        "_sampler",
        "_call_pool",
    )

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = count()
        #: Bound ``__next__`` of the id counter — every event scheduled
        #: pays this call, so skip the iterator-protocol dispatch.
        self._next_eid = self._eid.__next__
        self._active_process: Optional[Process] = None
        self._sampler = None
        #: Recycled Callback events for :meth:`schedule_call`.
        self._call_pool: List[Callback] = []

    # -- clock ----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- telemetry ------------------------------------------------------------

    @property
    def sampler(self):
        """The attached periodic telemetry sampler, if any."""
        return self._sampler

    def attach_sampler(self, sampler) -> None:
        """Attach a periodic telemetry sampler (or ``None`` to detach).

        ``sampler`` follows the :class:`repro.telemetry.PeriodicSampler`
        protocol: a ``next_at`` attribute and an ``advance(now)`` method
        that samples every due tick ``<= now``. The run loop consults it
        before processing each event, so sampling happens at simulated
        times and stops naturally when the schedule drains. With no
        sampler attached, :meth:`run` takes its original hot loop — the
        disabled path costs nothing per event.
        """
        self._sampler = sampler

    # -- event creation ---------------------------------------------------------

    def event(self) -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(
        self,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator, name=name)

    def schedule_call(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> None:
        """Invoke ``fn(*args)`` after ``delay`` time units.

        The allocation-free fast path for fire-and-forget latency
        modeling (mesh hops, wire delays): where
        ``timeout(d).add_callback(lambda e: fn(*args))`` allocates a
        Timeout, a closure, and a callbacks list per call, this recycles
        one pooled :class:`Callback` event. The call cannot be observed
        or cancelled — use :meth:`timeout` when something must wait on
        the occurrence.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        pool = self._call_pool
        event = pool.pop() if pool else Callback(self)
        event.fn = fn
        event.args = args
        heappush(
            self._queue, (self._now + delay, _NORMAL, self._next_eid(), event)
        )

    # -- scheduling ----------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0, priority: int = _NORMAL) -> None:
        """Queue ``event`` to be processed ``delay`` units from now."""
        heappush(
            self._queue, (self._now + delay, priority, self._next_eid(), event)
        )

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next scheduled event.

        The body is duplicated inside :meth:`run`'s hot loop; keep the
        two in sync.

        Raises
        ------
        EmptySchedule
            If no events are scheduled.
        """
        try:
            when, _prio, _eid, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None
        self._now = when

        callbacks = event.callbacks
        event.callbacks = None  # marks the event as processed
        event._processed = True
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # A failure nobody handled: surface it instead of dropping it.
            raise event._value

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the schedule is exhausted;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until that event is processed, and
          return its value (or raise its exception).
        """
        if until is None:
            stop_at = float("inf")
            stop_event: Optional[Event] = None
        elif isinstance(until, Event):
            stop_event = until
            stop_at = float("inf")
            if stop_event.callbacks is None:  # already processed
                if stop_event.ok:
                    return stop_event.value
                raise stop_event.value
            done = []
            stop_event.add_callback(done.append)
        else:
            stop_at = float(until)
            stop_event = None
            if stop_at < self._now:
                raise ValueError(
                    f"until ({stop_at}) must not be before now ({self._now})"
                )
            done = []

        # Hot loops: the body of :meth:`step` is inlined with the heap
        # and heappop bound to locals — the per-event call/lookup
        # overhead is measurable at ~10 kernel events per simulated RPC.
        queue = self._queue
        pop = heappop
        sampler = self._sampler
        if stop_event is None and stop_at == float("inf"):
            # run() with no ``until`` — the arch simulator's only mode:
            # drain the schedule with no stop checks per event.
            if sampler is None:
                while queue:
                    when, _prio, _eid, event = pop(queue)
                    self._now = when
                    callbacks = event.callbacks
                    event.callbacks = None  # marks the event as processed
                    event._processed = True
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        # A failure nobody handled: surface it, don't drop it.
                        raise event._value
                return None
            # Telemetry variant of the same loop: poll the periodic
            # sampler before each event whose time passes its next tick.
            while queue:
                when, _prio, _eid, event = pop(queue)
                if when >= sampler.next_at:
                    sampler.advance(when)
                self._now = when
                callbacks = event.callbacks
                event.callbacks = None  # marks the event as processed
                event._processed = True
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    # A failure nobody handled: surface it, don't drop it.
                    raise event._value
            return None
        while True:
            if stop_event is not None and stop_event.processed:
                if stop_event.ok:
                    return stop_event.value
                raise stop_event.value
            if not queue:
                if stop_event is not None:
                    raise RuntimeError(
                        "simulation ended before the awaited event fired"
                    )
                return None
            if queue[0][0] > stop_at:
                self._now = stop_at
                return None
            when, _prio, _eid, event = pop(queue)
            if sampler is not None and when >= sampler.next_at:
                sampler.advance(when)
            self._now = when
            callbacks = event.callbacks
            event.callbacks = None  # marks the event as processed
            event._processed = True
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                # A failure nobody handled: surface it, don't drop it.
                raise event._value
