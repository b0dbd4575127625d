"""Fast-tier datacenter engine: two-level routing on the shared loop.

The vectorized rack engine (:mod:`repro.fastpath.fastcluster`) knows one
rack; this module is its rack-of-racks sibling. Routing is inherently
state-dependent here — every hierarchy model reads live per-node and
per-rack outstanding counts — so the whole run goes through the fast
tier's one sequential event loop,
:func:`~repro.fastpath.fastcluster.run_sequential` (batched
arrival/service sampling, a ``heapq`` of departures, materialized fault
timelines, per-node server-free-time heaps; every node runs the paper's
1x16 single-queue scheme, the RPCValet configuration). This module
supplies only calibration, the scheduler, and the datacenter's route,
admit and release rules.

Fidelity notes, matching the DES cross-check in ``ext-datacenter``:

* **Calibration** — per-RPC fixed overhead comes from the rack
  engine's DES probe (:mod:`repro.fastpath.calibrate`), run with the
  topology's :class:`~repro.datacenter.topology.NodeProfile` costs and
  chip config, so the ``nanopu`` profile is anchored against a DES
  that actually runs the reduced NI-bypass latencies (not an ad-hoc
  scale on the baseline calibration).
* **JBSQ(k)** — the ToR hold queue is modeled exactly: a rack whose
  least-loaded member sits at the bound holds the RPC at the ToR
  (counted in the rack's aggregate signal) and late-binds it to the
  member that next frees a slot; held time stays on the RPC's sojourn
  clock. The DES counterpart cannot hold (a destination is needed at
  issue time), so the paired cross-check runs sub-critical where the
  bound rarely binds.
* **Send slots** — not modeled: a datacenter client sprays across
  hundreds of destinations, so the per-(client, dst) 32-slot pools of
  the soNUMA messaging domain cannot bind at sub-critical load
  (``stall_fractions`` reports zeros).
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Dict, Optional

from ..cluster.cluster import ClusterResult
from ..fastpath.calibrate import calibrated_profile
from ..fastpath.fastcluster import (
    cluster_result,
    fault_timeline,
    run_sequential,
    sample_streams,
)
from ..rack.choice import Variates
from .schedulers import DEFAULT_JBSQ_K, make_scheduler
from .topology import DatacenterTopology, node_profile

__all__ = [
    "calibrated_profile_overhead_ns",
    "simulate_datacenter_fast",
]


@lru_cache(maxsize=None)
def calibrated_profile_overhead_ns(
    profile_name: str, cores: int = 16, probe_seed: int = 0
) -> float:
    """Total 1x16 overhead of a node profile (:mod:`repro.fastpath.calibrate`)."""
    return sum(calibrated_profile("cluster", "1x16", cores, profile_name, probe_seed))


def simulate_datacenter_fast(
    topology: DatacenterTopology,
    hierarchy: str = "racksched",
    policy: str = "jsq2",
    skew: float = 0.0,
    jbsq_k: int = DEFAULT_JBSQ_K,
    per_node_mrps: float = 20.0,
    requests_per_node: int = 1000,
    cores: int = 16,
    seed: int = 0,
    warmup_fraction: float = 0.1,
    faults=None,
    arrival_process=None,
    telemetry: bool = False,
    _audit: Optional[Dict[str, object]] = None,
) -> ClusterResult:
    """Run one datacenter scenario on the fast tier.

    Returns the same :class:`~repro.cluster.cluster.ClusterResult`
    shape as the rack engines, so the ``ext-datacenter`` driver can
    switch tiers without touching its analysis. ``_audit``, when a
    dict, receives engine internals the result shape has no field for
    (JBSQ ``holds``/``max_outstanding``; used by the bound-invariant
    tests and the driver's hold column).
    """
    if per_node_mrps <= 0 or requests_per_node <= 0:
        raise ValueError("per_node_mrps and requests_per_node must be positive")

    num_nodes = topology.num_nodes
    num_racks = topology.num_racks
    rack_of = [topology.rack_of(node) for node in range(num_nodes)]
    speeds = [float(factor) for factor in topology.speed_factors]

    profile = (
        node_profile("nanopu") if hierarchy == "nanopu" else topology.profile
    )
    occupancy, shift = calibrated_profile("cluster", "1x16", cores, profile.name)

    scheduler = make_scheduler(
        hierarchy, topology, policy=policy, skew=skew, jbsq_k=jbsq_k
    )
    scheduler.set_capacities([cores * speed for speed in speeds])
    bound = scheduler.bound_k
    # Fetched after construction so a wrapped instance method is seen.
    choose = scheduler.choose

    times, clients, processing, route_rng = sample_streams(
        num_nodes, requests_per_node, per_node_mrps, arrival_process, seed
    )
    route_rng = Variates(route_rng)
    timeline = fault_timeline(faults, num_nodes, times, seed)

    outstanding = [0] * num_nodes
    #: Per-rack aggregate the spine reads: dispatched + ToR-held.
    rack_load = [0] * num_racks
    hold = [deque() for _ in range(num_racks)]
    holds = 0
    max_outstanding = 0

    def route(_index: int, client: int, _now: float) -> int:
        return choose(client, outstanding, rack_load, route_rng)

    def admit(index: int, _client: int, dst: int, entered_at: float) -> bool:
        nonlocal holds, max_outstanding
        rack = rack_of[dst]
        rack_load[rack] += 1
        if bound is not None and outstanding[dst] >= bound:
            # The rack's least-loaded member is at the bound: every
            # member is full, so the ToR holds the RPC (still counted
            # in the rack aggregate the spine reads).
            holds += 1
            hold[rack].append((index, entered_at))
            return False
        outstanding[dst] += 1
        if outstanding[dst] > max_outstanding:
            max_outstanding = outstanding[dst]
        return True

    def release(node: int, _client: int, _when: float) -> Optional[tuple]:
        nonlocal max_outstanding
        outstanding[node] -= 1
        rack = rack_of[node]
        rack_load[rack] -= 1
        queue = hold[rack]
        if queue and outstanding[node] < bound:
            # Late binding: the freed member is by construction the
            # rack's first slot below the bound, so the oldest held RPC
            # binds to it at the free instant; the RPC's sojourn clock
            # keeps running from its entry, so held time is paid.
            outstanding[node] += 1
            if outstanding[node] > max_outstanding:
                max_outstanding = outstanding[node]
            return queue.popleft()
        return None

    dsts, sojourns, departures, dropped = run_sequential(
        times, clients, processing, route_rng, "1x16", [cores] * num_nodes,
        speeds, [occupancy] * num_nodes, [shift] * num_nodes, timeline,
        route, admit, release,
    )

    if _audit is not None:
        _audit["holds"] = holds
        _audit["max_outstanding"] = max_outstanding
        _audit["bound_k"] = bound

    return cluster_result(
        dsts, sojourns, departures, dropped, timeline, [0] * num_nodes, None,
        requests_per_node, warmup_fraction, scheduler.label, "fresh", skew,
        telemetry,
    )
