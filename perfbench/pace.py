"""Host-speed probe: a fixed pure-Python event loop timed between points.

On a shared host the CPU's speed for this process drifts by ±20% over
seconds to minutes (co-tenants on the sibling hyperthread, frequency
changes); process CPU time drifts with it, so it is no remedy. The probe
is timed before every point and after each pass. A point's host time
is then scaled to the nominal probe speed:

    host_s = wall_s * NOMINAL_PROBE_S / probe_s

where ``probe_s`` is the mean of the probe medians just before and just
after the point (:func:`speed`). The probe runs no ``repro`` code, so a change to the program
moves the scaled time exactly as it moves the wall time; only the
host's drift divides out. The raw wall times are kept in the run record.

The loop mimics the simulator's host profile (generator resumption,
heap pushes and pops, small objects, dict updates, float arithmetic).
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

#: Median probe time between points on the reference machine (x86_64
#: container with 2 vCPUs, Python 3.11): the speed every scaled time is
#: expressed at.
NOMINAL_PROBE_S = 0.0095

#: Probe time spent next to a point, as a share of the point's wall time.
PROBE_SHARE = 0.03
MAX_PROBES = 8

_STEPS = 12_000
_PROCESSES = 16


class _Job:
    __slots__ = ("ident", "served", "total")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.served = 0
        self.total = 0.0


def _worker(job: _Job, state: list):
    while True:
        state[0] = (state[0] * 1103515245 + 12345) & 0x7FFFFFFF
        delay = 1.0 + (state[0] & 0xFFFF) / 65536.0
        job.served += 1
        job.total += delay
        yield delay


def probe() -> float:
    """Wall seconds of one run of the fixed event loop.

    The garbage collector is off while it runs, so the program's heap
    (whose collections the program's own times rightly include) cannot
    slow the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        state = [12345]
        heap = []
        counts = {}
        workers = []
        for ident in range(_PROCESSES):
            job = _Job(ident)
            workers.append((job, _worker(job, state)))
            heap.append((0.0, ident))
        heapq.heapify(heap)
        push, pop = heapq.heappush, heapq.heappop
        for _ in range(_STEPS):
            now, ident = pop(heap)
            _job, worker = workers[ident]
            push(heap, (now + next(worker), ident))
            counts[ident] = counts.get(ident, 0) + 1
        elapsed = time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
    if sum(counts.values()) != _STEPS:
        raise RuntimeError("probe loop lost steps")
    return elapsed


def speed(expected_s: float) -> float:
    """Median probe time over enough probes to fill ``PROBE_SHARE`` of
    ``expected_s`` (the wall time of the point it brackets), 1 to
    ``MAX_PROBES`` probes: long points get a steadier speed estimate."""
    count = min(MAX_PROBES, max(1, round(PROBE_SHARE * expected_s / NOMINAL_PROBE_S)))
    return statistics.median(probe() for _ in range(count))
