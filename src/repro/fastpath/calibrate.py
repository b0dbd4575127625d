"""DES calibration of the fast tier: one probe recipe for every constant.

The fast tier collapses a chip to a FIFO whose fixed per-RPC overhead
is anchored against the DES itself, as an ``(occupancy_ns, shift_ns)``
split. A light-load DES probe, where queueing is negligible, measures
the total overhead L = mean sojourn minus mean processing. ``1x16``
books all of L as occupancy of the shared queue, whose waits are
insensitive to the split: ``(L, 0)``. For ``16x1`` the per-core FIFOs
are very sensitive to occupancy and the DES overlaps part of L with
other requests, so the occupancy is bisected until the fast engine
reproduces a mid-load DES probe's mean sojourn on the identical
scenario; the rest of L is a pure latency shift.

:data:`PROBES` holds each tier's light and mid scenario: ``cluster``
anchors the rack and datacenter engines against a DES
:class:`~repro.cluster.Cluster`, ``chip`` anchors
:func:`~repro.fastpath.fastchip.fast_chip_point` against one
:class:`~repro.core.RpcValetSystem`. Every probe runs with the node
profile's chip config and costs (``baseline`` is the DES default).
Each split is one :func:`repro.runner.map_points` task, so the result
cache (``REPRO_CACHE``, :func:`repro.cache.set_cache`) persists it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, NamedTuple, Optional, Tuple

__all__ = ["PROBES", "Probe", "calibrated_profile", "run_calibration"]

#: The chip tier models one chip of the paper's 16 cores.
CHIP_CORES = 16


class Probe(NamedTuple):
    """One DES probe scenario (rates and counts are per node)."""

    mrps: float
    requests: int
    nodes: int = 1
    #: ``(policy, signal)`` of the rack router; None sprays uniformly.
    router: Optional[Tuple[str, str]] = None
    #: Seed with ``task_seed(seed_label, scheme, 0, probe_seed)``.
    seed_label: Optional[str] = None


#: ``tier -> (light probe, mid probe)``: light at ~5% utilization, mid
#: where the tier's sweeps run (~0.85 per-core utilization for a HERD
#: rack, ~0.8x one chip's capacity).
PROBES = {
    "cluster": (Probe(2.0, 600, nodes=2),
                Probe(24.0, 1500, nodes=4, router=("random", "fresh"))),
    "chip": (Probe(1.0, 1500), Probe(23.0, 1500, seed_label="fastchip-probe")),
}


def run_calibration(fn: Callable[[Any], Any], task: Any, label: str) -> Any:
    """Run one calibration task serially and cached via ``map_points``."""
    from ..runner import map_points

    outcome = map_points(fn, [task], workers=1, labels=[label], progress=False)
    if outcome.results[0] is None:
        raise RuntimeError(f"calibration run failed: {'; '.join(outcome.findings())}")
    return outcome.results[0]


def calibrated_profile(
    tier: str, scheme: str, cores: int = CHIP_CORES,
    node_profile: str = "baseline", probe_seed: int = 0,
) -> Tuple[float, float]:
    """DES-anchored ``(occupancy_ns, shift_ns)`` of one fast-tier node.

    However it is called, the key is ``(tier, scheme, cores,
    node_profile, probe_seed)``, so equal scenarios share one probe.
    """
    from ..datacenter.topology import node_profile as lookup

    if tier not in PROBES or (tier == "chip" and cores != CHIP_CORES):
        raise ValueError(
            f"cannot calibrate tier {tier!r} at {cores!r} cores "
            f"(tiers: {', '.join(PROBES)}; a chip has {CHIP_CORES})"
        )
    lookup(node_profile)  # unknown names fail here, not inside the task
    return _cached_profile(tier, scheme, int(cores), node_profile, int(probe_seed))


@lru_cache(maxsize=None)
def _cached_profile(tier, scheme, cores, node_profile, probe_seed) -> Tuple[float, float]:
    task = (tier, scheme, cores, node_profile, probe_seed)
    label = "calibrate {} {}/{} cores/{} (seed {})".format(*task)
    return run_calibration(_profile_task, task, label)


def _profile_task(task: tuple) -> Tuple[float, float]:
    """One split; module-level so ``map_points`` can cache it."""
    from ..datacenter.topology import node_profile
    from ..runner import task_seed
    from ..workloads import HerdWorkload

    tier, scheme, cores, profile_name, probe_seed = task
    profile = node_profile(profile_name)
    light, mid = PROBES[tier]
    light_mean = _des_mean(tier, light, scheme, cores, profile, probe_seed)
    overhead = max(light_mean - HerdWorkload().mean_processing_ns, 0.0)
    if scheme == "1x16":
        return overhead, 0.0

    seed = probe_seed if mid.seed_label is None else task_seed(
        mid.seed_label, scheme, 0, probe_seed
    )
    target = _des_mean(tier, mid, scheme, cores, profile, seed)
    low, high = 0.0, overhead
    for _ in range(10):
        occupancy = (low + high) / 2.0
        split = (occupancy, overhead - occupancy)
        if _engine_mean(tier, mid, scheme, cores, seed, split) > target:
            high = occupancy
        else:
            low = occupancy
    occupancy = (low + high) / 2.0
    return occupancy, overhead - occupancy


def _des_mean(tier, probe: Probe, scheme, cores, profile, seed) -> float:
    """Mean sojourn of one probe on the DES."""
    from ..workloads import HerdWorkload

    config, costs = profile.chip_config(), profile.costs()
    if tier == "chip":
        from ..core import RpcValetSystem, make_scheme

        system = RpcValetSystem(make_scheme(scheme), HerdWorkload(), config, costs, seed)
        point = system.run_point(probe.mrps, probe.requests, warmup_fraction=0.1).point
        return point.summary.mean
    from ..balancing import Partitioned, SingleQueue
    from ..cluster import Cluster
    from ..rack import RackRouter

    cluster = Cluster(
        probe.nodes, {"1x16": SingleQueue, "16x1": Partitioned}[scheme],
        HerdWorkload(), config, costs, seed=seed,
        router=RackRouter(*probe.router) if probe.router is not None else None,
        core_counts=[cores] * probe.nodes,
    )
    return cluster.run(probe.mrps, probe.requests).aggregate.mean


def _engine_mean(tier, probe: Probe, scheme, cores, seed, split) -> float:
    """Mean sojourn of one probe on the fast engine with ``split``."""
    if tier == "chip":
        from ..workloads import HerdWorkload
        from .fastchip import fast_chip_point

        return fast_chip_point(
            scheme, HerdWorkload(), probe.mrps, probe.requests, seed, split
        ).summary.mean
    from .fastcluster import simulate_rack_fast

    policy, signal = probe.router
    return simulate_rack_fast(
        probe.nodes, policy=policy, signal=signal, scheme=scheme,
        core_counts=[cores] * probe.nodes, per_node_mrps=probe.mrps,
        requests_per_node=probe.requests, seed=seed, _profile=split,
    ).aggregate.mean
