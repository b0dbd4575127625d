"""Vectorized rack/cluster fast path: per-RPC fidelity, no DES kernel.

The DES cluster prices every NI pipeline stage of every RPC. At rack
scale the questions are about *routing* — which server each RPC hits
and how long it queues there — so this engine collapses each chip to a
FIFO service process whose fixed per-RPC overhead is **calibrated
against the DES tier itself** (a light-load two-node probe), then
simulates the whole rack with the ``fastsim`` struct-of-arrays
approach:

* batched arrival sampling: one exponential draw per client stream,
  merged with a single stable argsort;
* batched service sampling through the workload's vectorized
  ``sample_batch``;
* state-independent policies (random/RR) route entirely vectorized and
  run each node as one :func:`repro.queueing.fastsim.simulate_fifo_queue`
  call (per-node server-free-time heaps in flat arrays);
* load-aware policies (JSQ(d)/SED) keep a sequential decision loop —
  the decisions are inherently state-dependent — that drains departures
  through one ``heapq`` of ``(time, seq, ...)`` entries and reuses the
  *exact* policy/signal classes from :mod:`repro.rack` so routing
  semantics cannot drift. The loop (:func:`run_sequential`) is shared
  with the datacenter engine (:mod:`repro.datacenter.fastdc`): each
  engine supplies only its route, admit and release rules.

Shaped arrivals (any :class:`repro.popload.ArrivalProcess`) replace
the per-client exponential batch with per-client ``sample_gaps`` calls
— same one-deterministic-sweep RNG contract, so runs stay bit-identical
at any worker count. :class:`repro.faults.FaultPlan` timelines run as
window lookups against the materialized plan (the same
``materialize(num_nodes, horizon, seed)`` the DES injector schedules
from): crashes drop requests routed to a down node and floor the
node's server-free times at recovery (the outage freezes its servers),
slowdowns scale the effective speed of requests launched inside the
window, and fabric degradation rolls batched drop/dup/delay-spike
fates per request. Faulted runs always take the sequential loop.

Approximations versus DES (documented in EXPERIMENTS.md): the chip is
a FIFO with calibrated fixed overhead (no NI pipelining or mesh
contention), fabric latency is a uniform shift (it cancels out of
server-side sojourns), send-slot exhaustion is *counted* as stalls but
does not delay the message, and broadcast load signals refresh at the
first event past each tick rather than mid-gap. Under faults: requests
in flight when their server crashes keep their departure times (only
new work is dropped/frozen), blocked sends re-issued by a replenish
skip the liveness check, duplicated deliveries are counted but not
re-executed, and signal blackouts are a no-op (signals here are
synchronous state reads). Tolerance bands are enforced by
``tests/test_fastpath.py``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import defaultdict, deque
from functools import lru_cache
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..cluster.cluster import ClusterResult
from ..metrics import LatencySummary
from ..queueing.fastsim import simulate_fifo_queue
from ..rack.choice import pick_min
from ..rack.policies import PowerOfD, ZipfDestinations, make_policy
from ..rack.router import RouterStats
from ..rack.signals import BroadcastSignal, PiggybackSignal, make_signal

__all__ = [
    "FaultTimeline",
    "calibrated_scheme_profile",
    "calibrated_service_overhead_ns",
    "cluster_result",
    "fault_timeline",
    "light_load_overhead_ns",
    "run_sequential",
    "sample_streams",
    "simulate_rack_fast",
]

#: Matches ``repro.arch.ChipConfig.send_slots_per_node``.
DEFAULT_SEND_SLOTS = 32

#: Mid-load calibration probe for the 16x1 occupancy split (per-core
#: utilization ~0.85 with the HERD workload — the regime the rack
#: sweeps actually run in).
_PROBE_MRPS = 24.0
_PROBE_NODES = 4
_PROBE_REQUESTS = 1500


def light_load_overhead_ns(
    scheme: str, cores: int, probe_seed: int, config=None, costs=None
) -> float:
    """Total per-RPC latency overhead from a light-load DES probe.

    Runs a tiny two-node DES cluster at ~5% utilization, where queueing
    is negligible, and subtracts the workload's mean processing time:
    what remains is the NI/dispatch/messaging latency every RPC pays —
    the same "measured mean minus processing mean" recipe Fig. 9's
    analytic model uses. ``config``/``costs`` install a node profile's
    chip config and cost objects (the datacenter's ``nanopu`` profile);
    ``None`` keeps the :class:`~repro.cluster.Cluster` defaults.
    """
    from ..balancing import Partitioned, SingleQueue
    from ..cluster import Cluster
    from ..workloads import HerdWorkload

    factory = {"1x16": SingleQueue, "16x1": Partitioned}[scheme]
    workload = HerdWorkload()
    cluster = Cluster(
        num_nodes=2,
        scheme_factory=factory,
        workload=workload,
        config=config,
        costs=costs,
        seed=probe_seed,
        core_counts=[cores, cores],
    )
    result = cluster.run(per_node_mrps=2.0, requests_per_node=600)
    return max(result.aggregate.mean - workload.mean_processing_ns, 0.0)


@lru_cache(maxsize=None)
def calibrated_scheme_profile(
    scheme: str, cores: int, probe_seed: int = 0
) -> tuple:
    """DES-anchored ``(occupancy_overhead_ns, latency_shift_ns)``.

    The light-load probe measures the *total* per-RPC latency overhead
    L, but only the part of L that occupies a core contributes to
    queueing; the rest (NI pipeline stages overlapped with other
    requests) is a pure latency shift. For ``1x16`` the two coincide —
    the shared 16-server queue's waits are insensitive to the split and
    the DES cross-checks confirm occupancy ≈ L. For ``16x1`` the
    per-core M/G/1 queues are *very* sensitive to occupancy, and the
    DES chip demonstrably overlaps part of L (a node at per-core
    utilization ~0.86 queues far less than an M/G/1 spray with service
    D̄+L would): a second DES probe at mid load anchors the split by
    bisecting the occupancy until this engine reproduces the probe's
    mean sojourn on the identical scenario. Cached per (scheme, cores):
    rack sweeps reuse a handful of probes across dozens of points.
    """
    overhead = light_load_overhead_ns(scheme, cores, probe_seed)
    if scheme != "16x1":
        return overhead, 0.0

    from ..balancing import Partitioned
    from ..cluster import Cluster
    from ..rack import RackRouter
    from ..workloads import HerdWorkload

    cluster = Cluster(
        num_nodes=_PROBE_NODES,
        scheme_factory=Partitioned,
        workload=HerdWorkload(),
        seed=probe_seed,
        router=RackRouter("random", "fresh"),
        core_counts=[cores] * _PROBE_NODES,
    )
    target = cluster.run(
        per_node_mrps=_PROBE_MRPS, requests_per_node=_PROBE_REQUESTS
    ).aggregate.mean

    def engine_mean(occupancy: float) -> float:
        result = simulate_rack_fast(
            _PROBE_NODES,
            policy="random",
            scheme=scheme,
            core_counts=[cores] * _PROBE_NODES,
            per_node_mrps=_PROBE_MRPS,
            requests_per_node=_PROBE_REQUESTS,
            seed=probe_seed,
            _profile=(occupancy, overhead - occupancy),
        )
        return result.aggregate.mean

    low, high = 0.0, overhead
    for _ in range(10):
        mid = (low + high) / 2.0
        if engine_mean(mid) > target:
            high = mid
        else:
            low = mid
    occupancy = (low + high) / 2.0
    return occupancy, overhead - occupancy


def calibrated_service_overhead_ns(
    scheme: str, cores: int, probe_seed: int = 0
) -> float:
    """Total fixed per-RPC overhead (occupancy + pipelined latency)."""
    occupancy, shift = calibrated_scheme_profile(scheme, cores, probe_seed)
    return occupancy + shift


def _route_static(
    label: str,
    destinations: ZipfDestinations,
    clients: np.ndarray,
    rng: np.random.Generator,
    num_nodes: int,
) -> np.ndarray:
    """Vectorized destinations for state-independent policies."""
    dsts = np.empty(clients.size, dtype=np.int64)
    for client in range(num_nodes):
        mask = clients == client
        count = int(np.count_nonzero(mask))
        if count == 0:
            continue
        peers = np.asarray(destinations.peers_of(client))
        if label == "rr":
            start = client % peers.size
            dsts[mask] = peers[(start + np.arange(count)) % peers.size]
        else:  # popularity-weighted random spray
            cumulative = destinations.cumulative_of(client)
            index = np.searchsorted(cumulative, rng.random(count), side="right")
            dsts[mask] = peers[np.minimum(index, cumulative.size - 1)]
    return dsts


def _node_departures(
    scheme: str,
    arrivals: np.ndarray,
    services: np.ndarray,
    cores: int,
    spray_rng: np.random.Generator,
) -> np.ndarray:
    """Departure times of one node's arrivals under its scheme."""
    if scheme == "1x16":
        return simulate_fifo_queue(arrivals, services, cores, validate=False)
    # 16x1: uniform spray to per-core FIFOs, each a Lindley recurrence.
    picks = spray_rng.integers(0, cores, size=arrivals.size)
    departures = np.empty_like(arrivals)
    for core in range(cores):
        mask = picks == core
        departures[mask] = simulate_fifo_queue(
            arrivals[mask], services[mask], 1, validate=False
        )
    return departures


def _count_stalls(
    clients: np.ndarray,
    dsts: np.ndarray,
    times: np.ndarray,
    departures: np.ndarray,
    num_nodes: int,
    slots: int,
) -> np.ndarray:
    """Per-client count of sends that found no free send slot.

    Exact per-(client, dst) in-flight bookkeeping for rack-sized
    fan-outs; above 32 nodes the per-pair slot pools are effectively
    never exhausted and a node-level aggregate threshold suffices.
    """
    stalled = np.zeros(num_nodes, dtype=np.int64)
    if num_nodes <= 32:
        for client in range(num_nodes):
            cmask = clients == client
            for dst in range(num_nodes):
                if dst == client:
                    continue
                mask = cmask & (dsts == dst)
                count = int(np.count_nonzero(mask))
                if count <= slots:
                    continue
                arr = times[mask]
                done = np.searchsorted(np.sort(departures[mask]), arr, side="right")
                inflight = np.arange(count) - done
                stalled[client] += int(np.count_nonzero(inflight >= slots))
        return stalled
    for dst in range(num_nodes):
        mask = dsts == dst
        count = int(np.count_nonzero(mask))
        if count <= slots:
            continue
        arr = times[mask]
        done = np.searchsorted(np.sort(departures[mask]), arr, side="right")
        inflight = np.arange(count) - done
        over = inflight >= slots * (num_nodes - 1)
        np.add.at(stalled, clients[mask][over], 1)
    return stalled


class FaultTimeline:
    """One materialized :class:`~repro.faults.FaultPlan`, as flat windows.

    The DES injector executes the plan as scheduled callbacks; the fast
    tier has no event kernel, so the same materialized events become
    per-node window lists the sequential loop probes by containment
    (plans hold a handful of events — linear scans beat any index).
    The fabric stream reuses the DES's ``"faults.fabric"`` name from a
    :class:`~repro.sim.RngRegistry`, so fault-free runs draw nothing.
    """

    def __init__(self, plan, num_nodes: int, horizon_ns: float, seed: int) -> None:
        from ..faults import FaultStats
        from ..faults.plan import (
            FabricDegradation,
            NodeCrash,
            NodeSlowdown,
        )

        self.plan = plan
        self.stats = FaultStats()
        self.crash_windows: List[List[tuple]] = [[] for _ in range(num_nodes)]
        self.slow_windows: List[List[tuple]] = [[] for _ in range(num_nodes)]
        self.fabric_windows: List[tuple] = []
        for event in plan.materialize(num_nodes, horizon_ns, seed):
            if isinstance(event, NodeCrash):
                end = (
                    event.at_ns + event.outage_ns
                    if event.outage_ns is not None
                    else math.inf
                )
                self.crash_windows[event.node].append((event.at_ns, end))
            elif isinstance(event, NodeSlowdown):
                self.slow_windows[event.node].append(
                    (event.at_ns, event.at_ns + event.duration_ns, event.factor)
                )
            elif isinstance(event, FabricDegradation):
                self.fabric_windows.append(
                    (event.at_ns, event.at_ns + event.duration_ns, event)
                )
            # SignalBlackout: this engine's load signals are synchronous
            # state reads with nothing to go dark; a blackout is a no-op.
        for windows in self.crash_windows:
            windows.sort()
        self.fabric_windows.sort(key=lambda window: window[0])
        #: (recovery_time, node) boundaries for server-free-time surgery.
        self.recoveries = sorted(
            (end, node)
            for node, windows in enumerate(self.crash_windows)
            for (_start, end) in windows
            if end != math.inf
        )
        self.has_fabric = plan.has_fabric_noise or bool(self.fabric_windows)
        if self.has_fabric:
            from ..sim import RngRegistry

            self.fabric_rng = RngRegistry(seed).stream("faults.fabric")
        else:
            self.fabric_rng = None

    def node_down(self, node: int, t_ns: float) -> bool:
        return any(
            start <= t_ns < end for start, end in self.crash_windows[node]
        )

    def speed_factor(self, node: int, t_ns: float) -> float:
        factor = 1.0
        # Overlapping windows compound, like the DES injector.
        for start, end, window_factor in self.slow_windows[node]:
            if start <= t_ns < end:
                factor *= window_factor
        return factor

    def fabric_fate(self, t_ns: float) -> tuple:
        """(dropped, extra_delay_ns) for one request's fabric traversal.

        Mirrors ``FaultInjector.transmit``'s draw order — drop, then
        spike, then dup — with window probabilities stacked on the
        plan's steady-state noise. Draws only while fabric faults are
        live, so the stream stays aligned with configured windows.
        """
        plan = self.plan
        drop, dup, spike, spike_ns = (
            plan.drop_prob,
            plan.dup_prob,
            plan.spike_prob,
            plan.spike_ns,
        )
        active = False
        for start, end, window in self.fabric_windows:
            if start <= t_ns < end:
                active = True
                drop = min(drop + window.drop_prob, 1.0)
                dup = min(dup + window.dup_prob, 1.0)
                spike = min(spike + window.spike_prob, 1.0)
                spike_ns = max(spike_ns, window.spike_ns)
        if self.fabric_rng is None or not (active or plan.has_fabric_noise):
            return False, 0.0
        rng = self.fabric_rng
        if rng.random() < drop:
            self.stats.msg_drops += 1
            return True, 0.0
        delay = 0.0
        if spike > 0 and rng.random() < spike:
            self.stats.delay_spikes += 1
            delay = spike_ns
        if dup > 0 and rng.random() < dup:
            # Counted only: the receiver dedups, so the duplicate costs
            # fabric accounting but no second service.
            self.stats.msg_dups += 1
        return False, delay

    def finalize(self, elapsed_ns: float, total: int, lost: int) -> list:
        """Fill timeline stats and return per-node availability."""
        stats = self.stats
        stats.offered = total
        stats.completed = total - lost
        stats.lost = lost
        availability = []
        for node, windows in enumerate(self.crash_windows):
            down_ns = 0.0
            for start, end in windows:
                if start <= elapsed_ns:
                    stats.crashes += 1
                    down_ns += min(end, elapsed_ns) - start
                    if end <= elapsed_ns:
                        stats.recoveries += 1
            availability.append(
                max(0.0, 1.0 - down_ns / elapsed_ns)
                if elapsed_ns > 0
                else 1.0
            )
        for windows in self.slow_windows:
            stats.slowdowns += sum(
                1 for start, _end, _factor in windows if start <= elapsed_ns
            )
        return availability


def fault_timeline(faults, num_nodes: int, times: np.ndarray, seed: int):
    """The run's :class:`FaultTimeline`, or None for no/trivial plans.

    Same ``(plan, node-count, horizon, seed)`` materialization the DES
    injector schedules from, so fast and DES runs see the same fault
    timeline for a given scenario.
    """
    if faults is None or getattr(faults, "is_trivial", False):
        return None
    return FaultTimeline(faults, num_nodes, float(times[-1]), seed)


def sample_streams(
    num_clients: int,
    requests_per_client: int,
    per_client_mrps: float,
    arrival_process,
    seed: int,
) -> tuple:
    """Batched per-client arrival and service streams, merged in time.

    Returns ``(times, clients, processing, route_rng)``. Each client
    draws its gaps in one vectorized sweep — exponential, or the
    ``arrival_process``'s own ``sample_gaps``, mirroring how each DES
    node draws its own gap batch — and one stable argsort merges the
    streams. Service times are one ``sample_batch`` per client, reordered
    with the arrivals. ``route_rng``, the third child of ``seed``, is
    left for routing and 16x1 lane picks.
    """
    from ..workloads import HerdWorkload

    arrival_rng, service_rng, route_rng = (
        np.random.default_rng(child)
        for child in np.random.SeedSequence(seed).spawn(3)
    )
    n = requests_per_client
    if arrival_process is not None:
        gaps = np.stack(
            [arrival_process.sample_gaps(arrival_rng, n) for _ in range(num_clients)]
        )
    else:
        gaps = arrival_rng.exponential(1e3 / per_client_mrps, size=(num_clients, n))
    flat_times = np.cumsum(gaps, axis=1).ravel()
    flat_clients = np.repeat(np.arange(num_clients), n)
    order = np.argsort(flat_times, kind="stable")

    workload = HerdWorkload()
    processing = np.empty(num_clients * n)
    for client in range(num_clients):
        samples, _labels = workload.sample_batch(service_rng, n)
        processing[client * n : (client + 1) * n] = samples
    return flat_times[order], flat_clients[order], processing[order], route_rng


def run_sequential(
    times: np.ndarray,
    clients: np.ndarray,
    processing: np.ndarray,
    route_rng: np.random.Generator,
    scheme: str,
    cores: Sequence[int],
    speeds: Sequence[float],
    occupancy: Sequence[float],
    shift: Sequence[float],
    timeline: Optional[FaultTimeline],
    route: Callable[[int, int, float], int],
    admit: Callable[[int, int, int, float], bool],
    release: Callable[[int, int, float], Optional[tuple]],
) -> tuple:
    """The fast tier's sequential event loop, shared by every engine.

    Walks the merged arrivals in time order. Before each arrival it
    applies due recovery boundaries and drains departures up to "now";
    then ``route(index, client, now)`` picks the destination. With a
    fault ``timeline`` the request first rolls its fabric fate (drop /
    delay spike / counted dup), then is dropped if its destination is
    inside a crash window at delivery — the DES injector's order.
    Dropped requests never reach ``admit`` and are excluded from the
    latency summaries. ``admit(index, client, dst, entered_at)`` returns
    True to dispatch now, or False after queueing the RPC itself
    (blocked). On every departure, ``release(node, client, when)`` may
    return ``(index, clock_start)``: a blocked RPC to dispatch to
    ``node`` at ``when``, its sojourn clock running from
    ``clock_start``. An RPC still blocked after the final drain raises
    :class:`RuntimeError`.

    Each node is a ``1x16`` server-free-time heap or ``16x1`` per-core
    lanes picked uniformly from ``route_rng``; service is processing
    time over the node's speed (scaled by any slowdown window open at
    launch) plus its fixed ``occupancy``, and ``shift`` adds pipelined
    latency to the sojourn only. A recovery boundary floors the node's
    server-free times: the outage froze its servers. Departures drain
    through one ``heapq`` keyed on ``(time, seq)``, so ties fire in
    insertion order.

    Returns ``(dsts, sojourns, departures, dropped)``; ``dsts`` is where
    each RPC was served (or headed, if dropped) and ``dropped`` is None
    without a timeline.
    """
    total = times.size
    dsts = np.empty(total, dtype=np.int64)
    sojourns = np.empty(total)
    departures = np.empty(total)
    dropped = np.zeros(total, dtype=bool) if timeline is not None else None

    arrival_at = times.item
    client_of = clients.tolist()
    work = processing.item
    speeds = [float(speed) for speed in speeds]
    occupancy = [float(value) for value in occupancy]
    shift = [float(value) for value in shift]

    one_queue = scheme == "1x16"
    # All-zero lists are valid heaps as they stand.
    free_times = [[0.0] * int(count) for count in cores]
    events: List[tuple] = []
    seq = itertools.count()
    heappush = heapq.heappush
    heappop = heapq.heappop
    integers = route_rng.integers
    recoveries = timeline.recoveries if timeline is not None else []
    recovery_cursor = 0
    blocked = 0

    def submit(index: int, start_at: float, dst: int, clock_start: float) -> None:
        speed = speeds[dst]
        if timeline is not None:
            speed *= timeline.speed_factor(dst, start_at)
        service = work(index) / speed + occupancy[dst]
        servers = free_times[dst]
        if one_queue:
            free = heappop(servers)
            depart = (start_at if start_at > free else free) + service
            heappush(servers, depart)
        else:
            lane = int(integers(0, len(servers)))
            free = servers[lane]
            depart = (start_at if start_at > free else free) + service
            servers[lane] = depart
        dsts[index] = dst
        departures[index] = depart
        sojourns[index] = depart - clock_start + shift[dst]
        heappush(events, (depart, next(seq), dst, client_of[index]))

    def drain(upto: float) -> None:
        nonlocal blocked
        while events and events[0][0] <= upto:
            when, _seq, node, client = heappop(events)
            released = release(node, client, when)
            if released is not None:
                blocked -= 1
                index, clock_start = released
                submit(index, when, node, clock_start)

    for index in range(total):
        now = arrival_at(index)
        client = client_of[index]
        while (
            recovery_cursor < len(recoveries)
            and recoveries[recovery_cursor][0] <= now
        ):
            rec_time, rec_node = recoveries[recovery_cursor]
            recovery_cursor += 1
            servers = free_times[rec_node]
            for lane, free in enumerate(servers):
                if free < rec_time:
                    servers[lane] = rec_time
            if one_queue:
                heapq.heapify(servers)
        drain(now)

        dst = route(index, client, now)
        entered_at = now
        if timeline is not None:
            fabric_drop, spike_delay = timeline.fabric_fate(now)
            entered_at = now + spike_delay
            if fabric_drop or timeline.node_down(dst, entered_at):
                if not fabric_drop:
                    timeline.stats.crash_drops += 1
                dropped[index] = True
                dsts[index] = dst
                departures[index] = now
                sojourns[index] = math.nan
                continue
        if admit(index, client, dst, entered_at):
            submit(index, entered_at, dst, entered_at)
        else:
            blocked += 1

    drain(math.inf)
    if blocked:
        raise RuntimeError(
            f"{blocked} RPC(s) still blocked after the final drain: the "
            f"release rule never dispatched them"
        )
    return dsts, sojourns, departures, dropped


def cluster_result(
    dsts: np.ndarray,
    sojourns: np.ndarray,
    departures: np.ndarray,
    dropped: Optional[np.ndarray],
    timeline: Optional[FaultTimeline],
    stalled: Sequence[int],
    errors: Optional[np.ndarray],
    requests_per_client: int,
    warmup_fraction: float,
    policy_label: str,
    signal_label: str,
    skew: float,
    telemetry: bool,
) -> ClusterResult:
    """Summarize one fast-tier run in the DES's result shape.

    The first ``warmup_fraction`` of requests and every dropped request
    are excluded from the latency summaries; ``stalled`` is per-client
    send-slot stalls, ``errors`` the per-decision signal error of
    load-aware routing (None when routing read no signal).
    """
    num_nodes = len(stalled)
    total = dsts.size
    skip = int(total * warmup_fraction)
    kept_sojourns = sojourns[skip:]
    kept_dsts = dsts[skip:]
    if dropped is not None:
        kept_ok = ~dropped[skip:]
        kept_sojourns = kept_sojourns[kept_ok]
        kept_dsts = kept_dsts[kept_ok]
    aggregate = LatencySummary.from_values(kept_sojourns)
    per_node = [
        LatencySummary.from_values(kept_sojourns[kept_dsts == node])
        if np.any(kept_dsts == node)
        else LatencySummary.empty()
        for node in range(num_nodes)
    ]

    elapsed_ns = float(departures.max())
    routed_counts = np.bincount(dsts, minlength=num_nodes)
    stats = RouterStats(
        policy=policy_label,
        signal=signal_label,
        skew=skew,
        routed=[int(count) for count in routed_counts],
        decisions=total,
    )
    if errors is not None:
        stats.signal_error_sum = float(errors.sum())
        stats.signal_error_count = int(errors.size)

    snapshot = _build_snapshot(routed_counts, errors) if telemetry else None

    lost = int(np.count_nonzero(dropped)) if dropped is not None else 0
    completed = total - lost
    throughput = completed / elapsed_ns * 1e3 if elapsed_ns > 0 else 0.0
    availability = None
    fault_stats = None
    if timeline is not None:
        availability = timeline.finalize(elapsed_ns, total, lost)
        fault_stats = timeline.stats
        completed_counts = np.bincount(dsts[~dropped], minlength=num_nodes)
    else:
        completed_counts = routed_counts

    return ClusterResult(
        num_nodes=num_nodes,
        aggregate=aggregate,
        per_node=per_node,
        total_throughput_mrps=throughput,
        stall_fractions=[int(count) / requests_per_client for count in stalled],
        completed=completed,
        per_node_completed=[int(count) for count in completed_counts],
        router_stats=stats,
        telemetry=snapshot,
        offered=total if timeline is not None else 0,
        lost=lost,
        goodput_mrps=throughput if timeline is not None else 0.0,
        availability=availability,
        fault_stats=fault_stats,
    )


def simulate_rack_fast(
    num_nodes: int,
    policy: str = "random",
    signal: str = "fresh",
    skew: float = 0.0,
    scheme: str = "1x16",
    core_counts: Optional[Sequence[int]] = None,
    speed_factors: Optional[Sequence[float]] = None,
    per_node_mrps: float = 24.0,
    requests_per_node: int = 1000,
    seed: int = 0,
    warmup_fraction: float = 0.1,
    telemetry: bool = False,
    send_slots_per_node: int = DEFAULT_SEND_SLOTS,
    arrival_process=None,
    faults=None,
    _profile: Optional[tuple] = None,
) -> ClusterResult:
    """Run one rack scenario on the vectorized fast path.

    Accepts the same scenario knobs as the DES :class:`repro.cluster.Cluster`
    + :class:`repro.rack.RackRouter` combination and returns the same
    :class:`~repro.cluster.cluster.ClusterResult` shape, so drivers can
    switch engines without touching their downstream analysis.

    ``arrival_process`` (any :class:`repro.popload.ArrivalProcess`)
    replaces each client's Poisson stream with the process's own
    ``sample_gaps`` — diurnal/flash thinning, MMPP redraws, population
    windows — one deterministic sweep per client. ``faults`` (a
    :class:`repro.faults.FaultPlan`) runs the materialized timeline
    inside the sequential loop and populates the fault-run result
    fields (``offered``/``lost``/``goodput_mrps``/``availability``/
    ``fault_stats``); both default to the legacy behaviour and leave
    the legacy RNG consumption untouched.
    """
    if num_nodes < 2:
        raise ValueError(f"need at least 2 nodes, got {num_nodes!r}")
    if per_node_mrps <= 0 or requests_per_node <= 0:
        raise ValueError("per_node_mrps and requests_per_node must be positive")

    cores = (
        [int(count) for count in core_counts]
        if core_counts is not None
        else [16] * num_nodes
    )
    speeds = np.asarray(
        speed_factors if speed_factors is not None else [1.0] * num_nodes,
        dtype=float,
    )
    # Per-node (core occupancy, pipelined latency shift) split; the
    # ``_profile`` hook lets the calibration bisection drive this
    # engine with candidate splits without recursing into the probes.
    profiles = (
        [_profile] * num_nodes
        if _profile is not None
        else [calibrated_scheme_profile(scheme, count) for count in cores]
    )
    occupancy = np.array([profile[0] for profile in profiles])
    shift = np.array([profile[1] for profile in profiles])

    policy_obj = make_policy(policy)
    signal_obj = make_signal(signal)
    destinations = ZipfDestinations(num_nodes, skew)

    times, clients, processing, route_rng = sample_streams(
        num_nodes, requests_per_node, per_node_mrps, arrival_process, seed
    )
    timeline = fault_timeline(faults, num_nodes, times, seed)

    static_dsts: Optional[np.ndarray] = None
    if not policy_obj.uses_load_signal:
        static_dsts = _route_static(
            policy_obj.label, destinations, clients, route_rng, num_nodes
        )

    errors: Optional[np.ndarray] = None
    if timeline is None and static_dsts is not None and not _slots_may_bind(
        static_dsts, processing, speeds, occupancy, cores, times,
        send_slots_per_node, num_nodes,
    ):
        # Fully vectorized: state-independent routing, no send-slot
        # pressure — each node is one struct-of-arrays FIFO call.
        dsts = static_dsts
        departures = np.empty(times.size)
        services = processing / speeds[dsts] + occupancy[dsts]
        for node in range(num_nodes):
            mask = dsts == node
            departures[mask] = _node_departures(
                scheme, times[mask], services[mask], cores[node], route_rng
            )
        stalled = _count_stalls(
            clients, dsts, times, departures, num_nodes, send_slots_per_node
        )
        sojourns = departures - times + shift[dsts]
        dropped = None
    else:
        route, admit, release, errors, stalled = _rack_rules(
            policy_obj, signal_obj, destinations, cores, speeds, route_rng,
            send_slots_per_node, static_dsts, times.size,
        )
        dsts, sojourns, departures, dropped = run_sequential(
            times, clients, processing, route_rng, scheme, cores, speeds,
            occupancy, shift, timeline, route, admit, release,
        )

    return cluster_result(
        dsts, sojourns, departures, dropped, timeline, stalled, errors,
        requests_per_node, warmup_fraction, policy_obj.label,
        signal_obj.label, skew, telemetry,
    )


def _slots_may_bind(
    dsts: np.ndarray,
    processing: np.ndarray,
    speeds: np.ndarray,
    occupancy: np.ndarray,
    cores: List[int],
    times: np.ndarray,
    slots: int,
    num_nodes: int,
) -> bool:
    """Predict whether send-slot backpressure can shape the run.

    The vectorized open-loop path is exact while no destination nears
    saturation (in-flight per client-destination pair stays far below
    the slot pool). A hot shard past ~85% utilization builds queues
    deep enough for the DES's slot blocking to throttle senders, so
    those runs take the sequential closed-loop path instead.
    """
    horizon = float(times[-1]) if times.size else 0.0
    if horizon <= 0:
        return False
    counts = np.bincount(dsts, minlength=num_nodes)
    mean_service = processing.mean() / speeds + occupancy
    offered = counts / horizon  # per-ns arrival rate per destination
    utilization = offered * mean_service / np.asarray(cores, dtype=float)
    return bool(utilization.max() > 0.85)


def _rack_rules(
    policy_obj,
    signal_obj,
    destinations: ZipfDestinations,
    cores: List[int],
    speeds: np.ndarray,
    route_rng: np.random.Generator,
    slots: int,
    static_dsts: Optional[np.ndarray],
    total: int,
) -> tuple:
    """The rack's route/admit/release rules for :func:`run_sequential`.

    Returns ``(route, admit, release, errors, stalled)``. Load-aware
    policies (JSQ(d)/SED) are inherently state-dependent, so their
    decisions run through the rack package's policy objects verbatim;
    only the signal models are re-expressed on flat state (live
    counters, broadcast snapshots, per-client piggyback views) because
    the DES versions are event-driven. State-independent policies pass
    their precomputed destinations via ``static_dsts`` and only pay for
    the closed-loop send-slot bookkeeping.

    Like the DES, a send finding its per-(client, destination) slot
    pool exhausted waits client-side (counted as a stall) for a
    replenish; the departure that frees the slot re-issues the oldest
    blocked send at that instant, and its server-side sojourn clock
    starts then, not at generation.
    """
    num_nodes = len(cores)
    outstanding = [0] * num_nodes
    inflight = [[0] * num_nodes for _ in range(num_nodes)]
    pending = defaultdict(deque)
    stalled = [0] * num_nodes
    is_broadcast = isinstance(signal_obj, BroadcastSignal)
    is_piggyback = isinstance(signal_obj, PiggybackSignal)
    views = (
        [[0.0] * num_nodes for _ in range(num_nodes)] if is_piggyback else None
    )

    def admit(index: int, client: int, dst: int, _entered_at: float) -> bool:
        outstanding[dst] += 1
        if inflight[client][dst] >= slots:
            stalled[client] += 1
            pending[(client, dst)].append(index)
            return False
        inflight[client][dst] += 1
        return True

    def release(node: int, client: int, when: float) -> Optional[tuple]:
        outstanding[node] -= 1
        if views is not None:
            views[client][node] = float(outstanding[node])
        queue = pending.get((client, node))
        if queue:
            # The freed slot's credit passes straight to the oldest
            # blocked send, so the pair's in-flight count is unchanged.
            return queue.popleft(), when
        inflight[client][node] -= 1
        return None

    if static_dsts is not None:
        static = static_dsts.tolist()

        def route_static(index: int, _client: int, _now: float) -> int:
            return static[index]

        return route_static, admit, release, None, stalled

    errors = np.empty(total)
    capacities = {
        node: cores[node] * float(speeds[node]) for node in range(num_nodes)
    }
    period = signal_obj.period_ns if is_broadcast else 0.0
    next_tick = period
    snap = [0] * num_nodes
    integers = route_rng.integers
    choose = policy_obj.choose

    # JSQ(d) dominates the sequential traffic (ext-rack, ext-scale): the
    # same kernel calls PowerOfD.choose makes (same variate sequence),
    # straight on ``believe`` with no per-event estimates dict. Pinned by
    # tests/test_fastpath.py against the policy-object path.
    jsq_d = policy_obj.d if isinstance(policy_obj, PowerOfD) else None

    def route(index: int, client: int, now: float) -> int:
        nonlocal snap, next_tick
        if is_broadcast:
            while now >= next_tick:
                snap = list(outstanding)
                next_tick += period
            believe = snap
        elif is_piggyback:
            believe = views[client]
        else:
            believe = outstanding
        if jsq_d is not None:
            chosen = destinations.sample_distinct(client, jsq_d, route_rng)
            dst = pick_min(chosen, believe, integers)
        else:
            peers = destinations.peers_of(client)
            estimates = {node: float(believe[node]) for node in peers}
            dst = choose(client, destinations, estimates, capacities, route_rng)
        errors[index] = abs(float(believe[dst]) - outstanding[dst])
        return dst

    return route, admit, release, errors, stalled


def _build_snapshot(routed_counts: np.ndarray, errors: Optional[np.ndarray]):
    """A minimal telemetry snapshot matching the DES router's metrics."""
    from ..telemetry import TelemetrySnapshot
    from ..telemetry.primitives import Counter, Histogram

    counters = {}
    for node, count in enumerate(routed_counts):
        name = f"rack.routed[node{node}]"
        counter = Counter(name)
        counter.inc(int(count))
        counters[name] = counter
    histograms = {}
    if errors is not None and errors.size:
        histogram = Histogram("rack.signal_error")
        histogram.record_many(errors[errors > 0])
        histograms["rack.signal_error"] = histogram
    return TelemetrySnapshot(counters=counters, histograms=histograms)
