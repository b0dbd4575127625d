"""Event primitives for the discrete-event simulation kernel.

The kernel follows the familiar process-interaction style (as popularized
by SimPy): *events* are one-shot triggerable objects carrying a value or
an exception, and *processes* are Python generators that ``yield`` events
to suspend themselves until those events fire.

Everything in the RPCValet reproduction — NI pipelines, cores, traffic
generators, lock models — is expressed on top of these primitives, so
their semantics are deliberately small and rigorously tested:

* an event may be triggered exactly once (``succeed`` or ``fail``);
* callbacks added before the trigger run when the event is processed by
  the environment's event loop; callbacks added after it was processed
  run immediately;
* a failed event that is yielded by a process re-raises its exception
  inside that process.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

__all__ = [
    "Event",
    "Callback",
    "Timeout",
    "Process",
    "Interrupt",
    "PENDING",
]


class _Pending:
    """Sentinel for an event value that has not been set yet."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<PENDING>"


#: Singleton marker stored in :attr:`Event._value` before the trigger.
PENDING = _Pending()


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` (an arbitrary object supplied to
    :meth:`Process.interrupt`) is available as ``exc.cause``.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Event:
    """A one-shot occurrence at a point in simulated time.

    Events start *untriggered*. Calling :meth:`succeed` or :meth:`fail`
    triggers them, which schedules them on the environment's event heap
    at the current simulation time; the environment then *processes*
    the event, running its callbacks.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_processed", "_defused")

    def __init__(self, env: "Environment") -> None:  # noqa: F821
        self.env = env
        #: Callbacks invoked with the event when it is processed. ``None``
        #: after processing (used as the "already processed" flag).
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._processed = False
        self._defused = False

    # -- state inspection -------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is not yet triggered."""
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has not been triggered")
        return self._value

    # -- triggering --------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception propagates into every process waiting on the
        event. If nothing ever waits on a failed event the environment
        re-raises the exception at the end of the run, so failures are
        never silently dropped (set :meth:`defused` to opt out).
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled outside a process."""
        self._defused = True

    # -- callback management ------------------------------------------------

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event was already processed, the callback runs
        immediately.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:
        state = (
            "processed"
            if self._processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Callback(Event):
    """A pooled fire-and-forget callback event.

    Backs :meth:`Environment.schedule_call`, the allocation-free
    replacement for ``timeout + lambda``: the event keeps a permanent
    single-entry callbacks list (``[self._fire]``), and firing re-arms
    the instance and returns it to the environment's pool before
    invoking the target — so one instance serves an unbounded stream of
    delayed calls instead of a fresh ``Timeout`` + closure + list per
    call. Not for external use: it violates the one-shot contract of
    :class:`Event` by design.
    """

    __slots__ = ("fn", "args", "_arm", "_pool_append")

    def __init__(self, env: "Environment") -> None:  # noqa: F821
        super().__init__(env)
        #: The permanent callbacks list; re-installed on every re-arm.
        self._arm = [self._fire]
        self.callbacks = self._arm
        self._ok = True
        self._value = None
        self.fn: Optional[Callable[..., Any]] = None
        self.args: tuple = ()
        #: Bound pool append — one firing per delayed call makes the
        #: env/attribute chain lookup measurable.
        self._pool_append = env._call_pool.append

    def _fire(self, _event: Event) -> None:
        fn = self.fn
        args = self.args
        # Re-arm and pool *before* invoking: the target may itself
        # schedule_call and is welcome to reuse this very instance.
        self.fn = None
        self.args = ()
        self.callbacks = self._arm
        self._processed = False
        self._pool_append(self)
        fn(*args)


class Timeout(Event):
    """An event that fires ``delay`` time units after its creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:  # noqa: F821
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, delay)

    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover
        raise RuntimeError("Timeout events trigger themselves")

    def fail(self, exception: BaseException) -> "Event":  # pragma: no cover
        raise RuntimeError("Timeout events trigger themselves")


class Initialize(Event):
    """Internal event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:  # noqa: F821
        super().__init__(env)
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        env._schedule(self)


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is itself an event that triggers when the generator
    returns (with the generator's return value) or raises (with the
    exception). Other processes can therefore wait for it:

    ``result = yield env.process(worker(env))``
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self,
        env: "Environment",  # noqa: F821
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting on.
        self._target: Optional[Event] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process is an error; interrupting a process
        that is waiting on an event detaches it from that event.
        """
        if not self.is_alive:
            raise RuntimeError(f"{self!r} has already terminated")
        if self._target is self:  # pragma: no cover - defensive
            raise RuntimeError("a process cannot interrupt itself this way")
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks = [self._resume]
        self.env._schedule(interrupt_event, priority=0)

    # -- generator driving ---------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        env = self.env
        env._active_process = self
        # Detach from the event we were waiting on (relevant for
        # interrupts, where the original target may fire later).
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
            else:
                # We abandoned a still-pending claim (a Store get/put):
                # let its owner withdraw it so it cannot consume an
                # item nobody will receive.
                abandon = getattr(self._target, "_abandon", None)
                if abandon is not None:
                    abandon()
        self._target = None

        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event._defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                env._schedule(self)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                env._schedule(self)
                break

            if not isinstance(next_event, Event):
                self._generator.throw(
                    RuntimeError(f"process yielded a non-event: {next_event!r}")
                )
                continue

            if next_event.callbacks is not None:
                # Event not yet processed: subscribe and suspend.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break
            # Event already processed: continue immediately with its value.
            event = next_event

        env._active_process = None

