"""The benchmark's three workloads: which simulation points each runs.

Every workload is a list of :class:`Point` configs generated from the
workload seed alone, plus a :class:`Workload` object that performs the
set-up (imports, system construction, calibration probes) and executes
one point through the library's public entry points:

* ``chip-des`` — ``repro.core.system.run_point_task`` (the sweep task
  every paper figure runs) on the single-chip DES;
* ``cluster-faults`` — ``repro.cluster.Cluster.run`` on an 8-node DES
  rack under ``RackRouter("jsq2", "piggyback")``, with and without
  injected faults;
* ``dc-fast`` — ``repro.datacenter.simulate_datacenter_fast`` and
  ``repro.fastpath.fastcluster.simulate_rack_fast`` on the fast tier.

Inside each point the simulated traffic is open-loop Poisson at the
point's per-node MRPS; on the host the points form a closed loop (the
next starts when the previous returns). Each workload spans load from
light to at or past its knee, so queue depth varies with the input.

``repro`` is imported inside functions only: the set-up timer starts
before the first import.
"""

from __future__ import annotations

import time
import zlib
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

WORKLOADS = ("chip-des", "cluster-faults", "dc-fast")

# -- chip-des ----------------------------------------------------------

CHIP_SCHEMES = ("1x16", "4x4", "16x1", "sw-1x16")
CHIP_SERVICES = ("herd", "masstree")
#: Achieved-throughput knee (MRPS) per service: hardware schemes
#: saturate near 16 cores / S̄, the software single queue at its
#: MCS-lock serialization ceiling. Measured on the DES at 4k requests.
CHIP_KNEE_MRPS = {
    ("herd", "hw"): 28.0,
    ("herd", "sw"): 5.0,
    ("masstree", "hw"): 5.7,
    ("masstree", "sw"): 4.4,
}
#: Load ladder as fractions of the knee: light, mid, near, past.
CHIP_LOAD_FRACTIONS = (0.3, 0.7, 0.95, 1.1)
CHIP_REQUESTS = 2500
CHIP_WARMUP = 0.1
#: One long saturated point, 4x the others: RPCValet (1x16, HERD) past
#: its knee, where the queue keeps growing. Being clearly the slowest,
#: it is the point ``slowest_point_s`` follows.
CHIP_LONG = ("1x16", "herd", 1.1, 10_000)
#: Executions per pass of a workload's long point, spread through the
#: pass, so the median behind ``slowest_point_s`` rests on more samples.
LONG_COPIES = 3

# -- cluster-faults ----------------------------------------------------

CLUSTER_NODES = 8
#: Per-node MRPS below and near the rack's knee (~28 MRPS/node, HERD).
CLUSTER_MRPS = (16.0, 25.0)
CLUSTER_REQUESTS = 600
#: The long point (setup, MRPS, requests/node): the timeout-heavy crash
#: set-up near the knee at 2x the requests, the slowest point.
CLUSTER_LONG = ("crash", 25.0, 1200)
#: The crash set-up's timeline: node i fails at fraction f of the
#: injection window and is back after CRASH_OUTAGE of the window. The
#: outage outlasts the detector's suspicion window, so crash drops,
#: timeouts, retries, suspicion and readmission all run. A fixed
#: timeline (not Poisson crash rates) keeps the work per point steady
#: across seeds; the traffic is what the seed varies.
CRASHES = ((1, 0.2), (4, 0.45), (6, 0.7))
CRASH_OUTAGE = 0.3
#: setup name -> (FaultPlan kwargs, RetryConfig kwargs, suspect_after_ns).
#: ``no-faults`` passes neither, so the cluster runs its legacy client
#: path; the other two run the robust (timeout/retry/hedge) path.
CLUSTER_SETUPS: Dict[str, Tuple[Optional[dict], Optional[dict], Optional[float]]] = {
    "no-faults": (None, None, None),
    "crash": (
        {},
        {"timeout_ns": 10_000.0, "max_retries": 2, "backoff_ns": 2_000.0},
        5_000.0,
    ),
    "fabric": (
        {"drop_prob": 0.02, "dup_prob": 0.02},
        {"timeout_ns": 15_000.0, "max_retries": 3, "backoff_ns": 2_000.0,
         "hedge_ns": 1_500.0},
        None,
    ),
}


def crash_events(mrps: float, requests: int) -> tuple:
    """The crash set-up's ``NodeCrash`` timeline for one point."""
    from repro.faults import NodeCrash

    window_ns = requests / mrps * 1e3
    return tuple(
        NodeCrash(node, fraction * window_ns, CRASH_OUTAGE * window_ns)
        for node, fraction in CRASHES
    )


# -- dc-fast -----------------------------------------------------------

DC_FLEET = (16, 16)
DC_HIERARCHIES = (
    ("flat", "random"),
    ("flat", "jsq2"),
    ("racksched", "jsq2"),
    ("jbsq", "jsq2"),
    ("nanopu", "jsq2"),
)
DC_SKEWS = (0.0, 0.6)
#: Light load and the knee (node capacity is ~29 MRPS under HERD).
DC_MRPS = (8.0, 29.0)
DC_REQUESTS = 32
#: Deep points at the knee with Zipf skew 0.6. The long one (flat
#: random, the slowest point, run LONG_COPIES times per pass) lets the
#: hot racks' queues grow to hundreds of RPCs; jbsq fills the ToR hold
#: queues (tens of thousands of holds).
DC_DEEP_MRPS = 29.0
DC_DEEP_SKEW = 0.6
DC_LONG_REQUESTS = 400
DC_JBSQ_DEEP_REQUESTS = 160
#: The larger rung: 1024 nodes at the ext-datacenter operating point.
DC_LARGE_FLEET = (64, 16)
DC_LARGE_MRPS = 24.0
DC_LARGE_REQUESTS = 16
#: 64-node single-rack points on the rack engine's sequential loop.
RACK_NODES = 64
RACK_POLICIES = ("random", "jsq2")
RACK_MRPS = (8.0, 28.0)
RACK_REQUESTS = 200

#: Paired DES-vs-fast scenarios behind ``fast_p99_err``: the sub-critical
#: 16-node fleet of the ext-datacenter cross-check.
CHECK_FLEET = (4, 4)
CHECK_MRPS = 20.0
CHECK_SKEW = 0.3
CHECK_REQUESTS = 600
CHECK_HIERARCHIES = ("flat", "racksched", "jbsq", "nanopu")


@dataclass(frozen=True)
class Point:
    """One simulation point: what to run, at which load, under which seed."""

    kind: str
    label: str
    params: Tuple[Tuple[str, Any], ...]
    seed: int
    #: Logical RPCs the point offers (the conservation checks' base).
    requested: int

    def param(self, name: str) -> Any:
        return dict(self.params)[name]


def make_points(workload: str, seed: int) -> List[Point]:
    """The workload's points in pass order, with per-point seeds drawn
    from ``seed`` (copies of a point share its label and seed)."""
    specs = _SPECS[workload]()
    import numpy as np

    labels = list(dict.fromkeys(label for _kind, label, _params, _requested in specs))
    key = zlib.crc32(workload.encode())
    seeds = dict(zip(labels, np.random.SeedSequence([seed, key]).generate_state(len(labels))))
    return [
        Point(kind, label, tuple(sorted(params.items())), int(seeds[label]), requested)
        for kind, label, params, requested in specs
    ]


def _spread_copies(grid: list, long_spec: tuple) -> list:
    """``grid`` with LONG_COPIES executions of ``long_spec`` spread through it."""
    specs = list(grid)
    for copy in reversed(range(LONG_COPIES)):
        specs.insert(round(copy * len(grid) / LONG_COPIES), long_spec)
    return specs


def _chip_specs() -> list:
    specs = []
    for service in CHIP_SERVICES:
        for scheme in CHIP_SCHEMES:
            knee = CHIP_KNEE_MRPS[(service, "sw" if scheme.startswith("sw") else "hw")]
            for fraction in CHIP_LOAD_FRACTIONS:
                load = round(knee * fraction, 3)
                params = {"scheme": scheme, "service": service, "mrps": load}
                specs.append(
                    ("chip", f"chip/{service}/{scheme}@{load:g}", params, CHIP_REQUESTS)
                )
    scheme, service, fraction, requests = CHIP_LONG
    load = round(CHIP_KNEE_MRPS[(service, "hw")] * fraction, 3)
    params = {"scheme": scheme, "service": service, "mrps": load}
    long_spec = ("chip", f"chip-long/{service}/{scheme}@{load:g}", params, requests)
    return _spread_copies(specs, long_spec)


def _cluster_spec(tag: str, setup: str, mrps: float, requests: int) -> tuple:
    params = {"setup": setup, "mrps": mrps, "requests": requests}
    return ("cluster", f"{tag}/{setup}@{mrps:g}", params, CLUSTER_NODES * requests)


def _cluster_specs() -> list:
    grid = [_cluster_spec("cluster", setup, mrps, CLUSTER_REQUESTS)
            for setup in CLUSTER_SETUPS for mrps in CLUSTER_MRPS]
    return _spread_copies(grid, _cluster_spec("cluster-long", *CLUSTER_LONG))


def _dc_spec(tag, hierarchy, policy, skew, mrps, requests, fleet) -> tuple:
    params = {"hierarchy": hierarchy, "policy": policy, "skew": skew, "mrps": mrps,
              "requests": requests, "racks": fleet[0], "rack_size": fleet[1]}
    label = f"{tag}/{hierarchy}-{policy}/s{skew:g}@{mrps:g}"
    return ("dc", label, params, fleet[0] * fleet[1] * requests)


def _dc_specs() -> list:
    tag = f"dc{DC_FLEET[0] * DC_FLEET[1]}"
    grid = [_dc_spec(tag, hierarchy, policy, skew, mrps, DC_REQUESTS, DC_FLEET)
            for hierarchy, policy in DC_HIERARCHIES for skew in DC_SKEWS for mrps in DC_MRPS]
    grid.append(_dc_spec("dc-deep", "jbsq", "jsq2", DC_DEEP_SKEW, DC_DEEP_MRPS,
                         DC_JBSQ_DEEP_REQUESTS, DC_FLEET))
    grid.append(_dc_spec(f"dc{DC_LARGE_FLEET[0] * DC_LARGE_FLEET[1]}", "racksched", "jsq2",
                         DC_DEEP_SKEW, DC_LARGE_MRPS, DC_LARGE_REQUESTS, DC_LARGE_FLEET))
    for policy in RACK_POLICIES:
        for mrps in RACK_MRPS:
            params = {"policy": policy, "mrps": mrps}
            grid.append(("rack", f"rack{RACK_NODES}/{policy}@{mrps:g}", params,
                         RACK_NODES * RACK_REQUESTS))
    long_spec = _dc_spec("dc-long", "flat", "random", DC_DEEP_SKEW, DC_DEEP_MRPS,
                         DC_LONG_REQUESTS, DC_FLEET)
    return _spread_copies(grid, long_spec)


_SPECS: Dict[str, Callable[[], list]] = {
    "chip-des": _chip_specs,
    "cluster-faults": _cluster_specs,
    "dc-fast": _dc_specs,
}


def _span(tracer, name: str, point: Point):
    """A tracer span around one layer call, or nothing when untraced."""
    return nullcontext() if tracer is None else tracer.span(name, request=point.label)


def _summary(summary) -> Dict[str, float]:
    return {
        "count": int(summary.count), "mean": float(summary.mean),
        "p50": float(summary.p50), "p90": float(summary.p90),
        "p95": float(summary.p95), "p99": float(summary.p99),
        "p999": float(summary.p999), "max": float(summary.max),
    }


class Workload:
    """Set-up state of one workload and the executor of its points.

    ``setup()`` is what ``setup_s`` times: the imports, the systems the
    points reuse and the first call of each calibration probe the
    workload depends on. ``execute(point, tracer)`` runs one point and
    returns its simulated statistics as a flat dict (the digest input).
    With a tracer, the call into the layer is a span and routing calls
    are counted and timed (see ``layers.Tracer``).
    """

    def __init__(self, name: str) -> None:
        if name not in _SPECS:
            raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
        self.name = name
        self.systems: Dict[Tuple[str, str], Any] = {}
        self.topologies: Dict[Tuple[int, int], Any] = {}
        #: probe name -> seconds of its first call (set-up only).
        self.probe_s: Dict[str, float] = {}

    # -- set-up --------------------------------------------------------

    def setup(self) -> float:
        """Run the set-up; returns its wall seconds (imports included)."""
        started = time.perf_counter()
        import numpy  # noqa: F401
        import repro.runner  # noqa: F401

        getattr(self, "_setup_" + self.name.replace("-", "_"))()
        return time.perf_counter() - started

    def _setup_chip_des(self) -> None:
        from repro.core import make_system
        from repro.core.system import run_point_task  # noqa: F401

        for service in CHIP_SERVICES:
            for scheme in CHIP_SCHEMES:
                self.systems[(scheme, service)] = make_system(scheme, service, seed=0)

    def _setup_cluster_faults(self) -> None:
        from repro.cluster import Cluster  # noqa: F401
        from repro.faults import FaultPlan, RetryConfig
        from repro.rack import RackRouter  # noqa: F401

        for plan, retry, _suspect in CLUSTER_SETUPS.values():
            if plan is not None:
                FaultPlan(**plan)
                RetryConfig(**retry)
        for mrps in CLUSTER_MRPS:
            FaultPlan(events=crash_events(mrps, CLUSTER_REQUESTS))

    def _setup_dc_fast(self) -> None:
        from repro.datacenter import DatacenterTopology, calibrated_profile_overhead_ns
        from repro.fastpath.fastchip import calibrated_chip_profile
        from repro.fastpath.fastcluster import calibrated_scheme_profile

        for fleet in (DC_FLEET, DC_LARGE_FLEET):
            self.topologies[fleet] = DatacenterTopology(*fleet)
        # The keys match the engines' own calls, so the run phase hits
        # the lru caches: simulate_datacenter_fast asks for (profile,
        # cores), simulate_rack_fast for (scheme, cores). The chip probe
        # is the third probe family (the fast chip tier's) and is
        # timed here so work moved between the three shows in setup_s.
        probes = (
            ("calibrated_profile_overhead_ns:baseline",
             lambda: calibrated_profile_overhead_ns("baseline", 16)),
            ("calibrated_profile_overhead_ns:nanopu",
             lambda: calibrated_profile_overhead_ns("nanopu", 16)),
            ("calibrated_scheme_profile:1x16",
             lambda: calibrated_scheme_profile("1x16", 16)),
            ("calibrated_chip_profile:1x16", lambda: calibrated_chip_profile("1x16")),
        )
        for name, probe in probes:
            started = time.perf_counter()
            probe()
            self.probe_s[name] = time.perf_counter() - started

    # -- points --------------------------------------------------------

    def execute(self, point: Point, tracer=None) -> Dict[str, Any]:
        with _span(tracer, "point", point):
            return getattr(self, "_run_" + point.kind)(point, tracer)

    def _run_chip(self, point: Point, tracer) -> Dict[str, Any]:
        from repro.core.system import run_point_task

        system = self.systems[(point.param("scheme"), point.param("service"))]
        task = (system, point.param("mrps"), point.requested, CHIP_WARMUP, point.seed)
        with _span(tracer, "core.run_point", point):
            result = run_point_task(task)
        return {
            "requested": point.requested,
            "offered": point.requested,
            "completed": int(result.completed),
            "lost": 0,
            "fault_free": True,
            "rpcs": int(result.completed),
            "achieved_mrps": float(result.point.achieved_throughput),
            "latency": _summary(result.point.summary),
            "mean_service_ns": float(result.mean_service_ns),
            "stall_fraction": float(result.stall_fraction),
            "max_private_cq_depth": int(result.max_private_cq_depth),
            "max_shared_cq_depth": int(result.max_shared_cq_depth),
        }

    def _run_cluster(self, point: Point, tracer) -> Dict[str, Any]:
        from repro.cluster import Cluster
        from repro.faults import FaultPlan, RetryConfig
        from repro.rack import RackRouter

        setup = point.param("setup")
        plan, retry, suspect = CLUSTER_SETUPS[setup]
        requests = point.param("requests")
        if setup == "crash":
            plan = {"events": crash_events(point.param("mrps"), requests)}
        router = RackRouter("jsq2", "piggyback", suspect_after_ns=suspect)
        if tracer is not None:
            tracer.wrap_calls(router, "choose", "rack.route")
        cluster = Cluster(
            num_nodes=CLUSTER_NODES,
            seed=point.seed,
            router=router,
            faults=FaultPlan(**plan) if plan is not None else None,
            retry=RetryConfig(**retry) if retry is not None else None,
        )
        with _span(tracer, "cluster.run", point):
            result = cluster.run(point.param("mrps"), requests)
        stats = result.fault_stats
        robust = stats is not None
        completed = int(stats.completed) if robust else int(result.completed)
        out = {
            "requested": point.requested,
            "offered": int(result.offered) if robust else point.requested,
            "completed": completed,
            "lost": int(result.lost),
            "fault_free": not robust,
            "rpcs": completed,
            "server_completions": int(result.completed),
            "attempts": (
                int(stats.offered + stats.retries + stats.hedges) if robust
                else point.requested
            ),
            "latency": _summary(result.aggregate),
            "throughput_mrps": float(result.total_throughput_mrps),
            "goodput_mrps": float(result.goodput_mrps),
            "per_node_completed": [int(count) for count in result.per_node_completed],
            "route_decisions": int(result.router_stats.decisions),
            "routed": [int(count) for count in result.router_stats.routed],
        }
        if robust:
            out["e2e_latency"] = _summary(result.e2e)
            out["fault_stats"] = {
                name: value for name, value in vars(stats).items()
                if isinstance(value, (int, float))
            }
        return out

    def _run_dc(self, point: Point, tracer) -> Dict[str, Any]:
        from repro.datacenter import simulate_datacenter_fast

        topology = self.topologies[(point.param("racks"), point.param("rack_size"))]
        audit: Dict[str, Any] = {}
        kwargs = dict(
            hierarchy=point.param("hierarchy"), policy=point.param("policy"),
            skew=point.param("skew"), per_node_mrps=point.param("mrps"),
            requests_per_node=point.param("requests"), seed=point.seed, _audit=audit,
        )
        routing = nullcontext() if tracer is None else tracer.routing("datacenter.route")
        with _span(tracer, "fastpath.simulate_datacenter_fast", point), routing:
            result = simulate_datacenter_fast(topology, **kwargs)
        return self._fast_stats(point, result, audit)

    def _run_rack(self, point: Point, tracer) -> Dict[str, Any]:
        from repro.fastpath.fastcluster import simulate_rack_fast

        kwargs = dict(
            policy=point.param("policy"), per_node_mrps=point.param("mrps"),
            requests_per_node=RACK_REQUESTS, seed=point.seed,
        )
        with _span(tracer, "fastpath.simulate_rack_fast", point):
            result = simulate_rack_fast(RACK_NODES, **kwargs)
        return self._fast_stats(point, result, {})

    @staticmethod
    def _fast_stats(point: Point, result, audit: Dict[str, Any]) -> Dict[str, Any]:
        out = {
            "requested": point.requested,
            "offered": point.requested,
            "completed": int(result.completed),
            "lost": int(result.lost),
            "fault_free": True,
            "rpcs": int(result.completed),
            "fast_rpcs": int(result.completed),
            "latency": _summary(result.aggregate),
            "throughput_mrps": float(result.total_throughput_mrps),
            "per_node_completed": [int(count) for count in result.per_node_completed],
            "route_decisions": int(result.router_stats.decisions),
        }
        if audit:
            out["jbsq_holds"] = int(audit["holds"])
            out["max_outstanding"] = int(audit["max_outstanding"])
            out["bound_k"] = audit["bound_k"]
        return out


def fast_p99_err(seed: int) -> Dict[str, float]:
    """|fast - DES| / DES p99 per paired sub-critical datacenter scenario.

    Both tiers run the same fleet, load and seed (common random
    numbers); the DES side is ``Cluster`` + ``DatacenterRouter`` on the
    hierarchy's node profile, as in the ext-datacenter cross-check.
    """
    import numpy as np
    from repro.balancing import SingleQueue
    from repro.cluster import Cluster
    from repro.datacenter import (
        DatacenterRouter,
        DatacenterTopology,
        node_profile,
        simulate_datacenter_fast,
    )

    topology = DatacenterTopology(*CHECK_FLEET)
    seeds = np.random.SeedSequence([seed, zlib.crc32(b"fast_p99_err")]).generate_state(
        len(CHECK_HIERARCHIES)
    )
    errors = {}
    for hierarchy, point_seed in zip(CHECK_HIERARCHIES, seeds):
        point_seed = int(point_seed)
        profile = node_profile("nanopu" if hierarchy == "nanopu" else topology.profile.name)
        cluster = Cluster(
            num_nodes=topology.num_nodes,
            scheme_factory=SingleQueue,
            config=profile.chip_config(),
            costs=profile.costs(),
            seed=point_seed,
            router=DatacenterRouter(topology, hierarchy=hierarchy, policy="jsq2",
                                    skew=CHECK_SKEW),
            fabric=topology.fabric(),
            speed_factors=list(topology.speed_factors),
        )
        des = cluster.run(per_node_mrps=CHECK_MRPS, requests_per_node=CHECK_REQUESTS)
        fast = simulate_datacenter_fast(
            topology, hierarchy=hierarchy, policy="jsq2", skew=CHECK_SKEW,
            per_node_mrps=CHECK_MRPS, requests_per_node=CHECK_REQUESTS, seed=point_seed,
        )
        errors[hierarchy] = abs(fast.p99_ns - des.p99_ns) / des.p99_ns
    return errors

