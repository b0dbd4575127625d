"""Shared-resource primitive built on the event kernel.

:class:`Store` — an (optionally bounded) FIFO buffer of items. Queue
pairs (WQs/CQs), the shared completion queue, and per-core receive
queues are all Stores.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generic, List, Optional, TypeVar

from .engine import Environment
from .events import Event

__all__ = ["Store"]

T = TypeVar("T")


class StorePut(Event):
    """Event representing a pending ``put``; fires when the item is stored."""

    __slots__ = ("item", "_store")

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item
        self._store = store

    def _abandon(self) -> None:
        """Withdraw this pending put (the waiter was interrupted)."""
        try:
            self._store._putters.remove(self)
        except ValueError:
            pass


class StoreGet(Event):
    """Event representing a pending ``get``; fires with the item."""

    __slots__ = ("_store",)

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        self._store = store

    def _abandon(self) -> None:
        """Withdraw this pending get (the waiter was interrupted).

        Without this, a later put would match the orphaned get and the
        item would vanish — no live process would ever receive it.
        """
        try:
            self._store._getters.remove(self)
        except ValueError:
            pass


class Store(Generic[T]):
    """A FIFO buffer of items with blocking ``put``/``get`` events.

    Parameters
    ----------
    env:
        The simulation environment.
    capacity:
        Maximum number of stored items; ``None`` means unbounded.
    """

    def __init__(self, env: Environment, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        self.env = env
        self.capacity = capacity
        self._items: Deque[T] = deque()
        self._putters: Deque[StorePut] = deque()
        self._getters: Deque[StoreGet] = deque()

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> List[T]:
        """Snapshot of currently stored items (FIFO order)."""
        return list(self._items)

    @property
    def waiting_getters(self) -> int:
        """Number of pending ``get`` requests."""
        return len(self._getters)

    @property
    def waiting_putters(self) -> int:
        """Number of pending ``put`` requests."""
        return len(self._putters)

    # -- storage policy (overridden by PriorityStore) ----------------------

    def _do_put(self, item: T) -> None:
        self._items.append(item)

    def _do_get(self) -> T:
        return self._items.popleft()

    # -- operations --------------------------------------------------------

    def put(self, item: T) -> StorePut:
        """Store ``item``; the returned event fires once it is stored."""
        event = StorePut(self, item)
        self._putters.append(event)
        self._trigger()
        return event

    def get(self) -> StoreGet:
        """Retrieve an item; the returned event fires with the item."""
        event = StoreGet(self)
        self._getters.append(event)
        self._trigger()
        return event

    def try_get(self) -> Optional[T]:
        """Non-blocking get: pop an item if available, else ``None``.

        Only valid when no getters are waiting (the waiters would have
        priority); models that mix blocking and polling styles should
        pick one per store.
        """
        if self._getters:
            raise RuntimeError("try_get with blocked getters would reorder items")
        if not self._items:
            return None
        item = self._do_get()
        self._trigger()
        return item

    def _trigger(self) -> None:
        """Match pending putters to free capacity and getters to items."""
        progress = True
        while progress:
            progress = False
            if self._putters and (
                self.capacity is None or len(self._items) < self.capacity
            ):
                put_event = self._putters.popleft()
                self._do_put(put_event.item)
                put_event.succeed()
                progress = True
            if self._getters and self._items:
                get_event = self._getters.popleft()
                get_event.succeed(self._do_get())
                progress = True

