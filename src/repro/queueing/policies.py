"""Load-aware routing policies from the related work (§7).

The paper contrasts its NI dispatch with cluster-level algorithms —
Join-Shortest-Queue, Power-of-d, Join-Idle-Queue. This module provides
an exact event-driven simulator for *routed* multi-queue systems where
an arrival is steered by a policy that inspects queue state, so those
algorithms can be compared against the paper's uniform-spray Q×U models
and against RPCValet's single-queue behaviour.
"""

from __future__ import annotations

import abc
import heapq
from collections import deque
from typing import Deque, List, Optional, Tuple

import numpy as np

from ..rack.choice import draw_distinct, pick_min

__all__ = [
    "Router",
    "RandomRouter",
    "RoundRobinRouter",
    "JSQRouter",
    "PowerOfDRouter",
    "JIQRouter",
    "simulate_routed_queues",
]


class Router(abc.ABC):
    """Chooses the destination queue for each arrival."""

    name = "router"

    @abc.abstractmethod
    def choose(
        self,
        queue_lengths: List[int],
        idle_servers: List[int],
        rng: np.random.Generator,
    ) -> int:
        """Return the destination queue index.

        ``queue_lengths[q]`` counts waiting + in-service requests at
        queue q; ``idle_servers[q]`` counts its free serving units.
        """


class RandomRouter(Router):
    """Uniformly random spray — the paper's Q×U baseline behaviour."""

    name = "random"

    def choose(self, queue_lengths, idle_servers, rng):
        return int(rng.integers(0, len(queue_lengths)))


class RoundRobinRouter(Router):
    """Cyclic assignment, oblivious to load."""

    name = "round_robin"

    def __init__(self) -> None:
        self._next = 0

    def choose(self, queue_lengths, idle_servers, rng):
        choice = self._next
        self._next = (self._next + 1) % len(queue_lengths)
        return choice


class JSQRouter(Router):
    """Join-Shortest-Queue [Gupta et al.]: full state, shortest queue."""

    name = "jsq"

    def choose(self, queue_lengths, idle_servers, rng):
        return pick_min(range(len(queue_lengths)), queue_lengths, rng.integers)


class PowerOfDRouter(Router):
    """Power-of-d choices [Bramson et al.]: the shortest of d distinct
    uniformly drawn queues, ties at random."""

    name = "power_of_d"

    def __init__(self, d: int = 2) -> None:
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d!r}")
        self.d = d
        self.name = f"power_of_{d}"

    def choose(self, queue_lengths, idle_servers, rng):
        queues = range(len(queue_lengths))
        candidates = draw_distinct(
            lambda: int(rng.integers(0, len(queues))), self.d, queues
        )
        return pick_min(candidates, queue_lengths, rng.integers)


class JIQRouter(Router):
    """Join-Idle-Queue [Lu et al.]: idle queue if any, else random."""

    name = "jiq"

    def choose(self, queue_lengths, idle_servers, rng):
        idle = [index for index, count in enumerate(idle_servers) if count > 0]
        if idle:
            return int(idle[rng.integers(0, len(idle))])
        return int(rng.integers(0, len(queue_lengths)))


def simulate_routed_queues(
    arrival_times: np.ndarray,
    service_times: np.ndarray,
    num_queues: int,
    servers_per_queue: int,
    router: Router,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Exact simulation of ``num_queues`` FIFO queues with routed arrivals.

    Returns sojourn times in arrival order. The router sees queue state
    *at the arrival instant* (departures at exactly the arrival time are
    processed first, matching the convention that the NI observes
    completed work before dispatching).
    """
    arrivals = np.asarray(arrival_times, dtype=float)
    services = np.asarray(service_times, dtype=float)
    if arrivals.shape != services.shape:
        raise ValueError("arrivals and services must have identical shapes")
    if arrivals.size and np.any(np.diff(arrivals) < 0):
        raise ValueError("arrival_times must be non-decreasing")
    if num_queues <= 0 or servers_per_queue <= 0:
        raise ValueError("num_queues and servers_per_queue must be positive")
    if rng is None:
        rng = np.random.default_rng(0)

    queue_lengths = [0] * num_queues
    idle_servers = [servers_per_queue] * num_queues
    waiting: List[Deque[Tuple[int, float]]] = [deque() for _ in range(num_queues)]
    # Heap entries: (departure_time, seq, queue_id, request_index).
    departures_heap: List[Tuple[float, int, int, int]] = []
    sojourns = np.empty(arrivals.size, dtype=float)
    seq = 0

    def start_service(queue_id: int, now: float, index: int, arrived: float) -> None:
        nonlocal seq
        idle_servers[queue_id] -= 1
        depart = now + services[index]
        sojourns[index] = depart - arrived
        heapq.heappush(departures_heap, (depart, seq, queue_id, index))
        seq += 1

    def process_departure() -> None:
        depart_time, _seq, queue_id, _index = heapq.heappop(departures_heap)
        queue_lengths[queue_id] -= 1
        idle_servers[queue_id] += 1
        if waiting[queue_id]:
            next_index, next_arrived = waiting[queue_id].popleft()
            start_service(queue_id, depart_time, next_index, next_arrived)

    for index in range(arrivals.size):
        now = arrivals[index]
        while departures_heap and departures_heap[0][0] <= now:
            process_departure()
        queue_id = router.choose(queue_lengths, idle_servers, rng)
        if not 0 <= queue_id < num_queues:
            raise ValueError(
                f"{router.name} chose invalid queue {queue_id!r} of {num_queues}"
            )
        queue_lengths[queue_id] += 1
        if idle_servers[queue_id] > 0:
            start_service(queue_id, now, index, now)
        else:
            waiting[queue_id].append((index, now))

    while departures_heap:
        process_departure()
    return sojourns
