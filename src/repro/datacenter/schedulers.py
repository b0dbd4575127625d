"""In-network scheduler models for the rack-of-racks hierarchy.

Three hierarchy models from the related work, plus the flat baseline:

* ``flat`` — no in-network help: each client samples ``d`` candidate
  *nodes* (rack drawn from the Zipf popularity, member uniform) and
  applies its policy over them — power-of-d-choices, because a flat
  client cannot scan the whole datacenter per RPC.
* ``racksched`` — RackSched-style two-layer scheduling: the spine
  picks a *rack* by aggregate load signal (the policy knob selects the
  spine discipline), then the ToR — which sees all of its servers —
  runs JSQ over the rack's members.
* ``jbsq`` — RAIN-style JBSQ(k): same two-layer routing, but the ToR
  bounds every member's queue at ``k`` outstanding RPCs and holds
  overflow in its own queue, late-binding each held RPC to the next
  member that frees a slot. The bound is engine-enforced (the fast
  tier models the hold queue; the DES approximates with immediate
  binding — see :mod:`repro.datacenter.fastdc`).
* ``nanopu`` — routing identical to ``racksched``; what changes is the
  node hardware (:data:`~repro.datacenter.topology.NODE_PROFILES`
  ``nanopu``: NI-core bypass latencies).

One scheduler object serves both engines: the DES
:class:`~repro.datacenter.router.DatacenterRouter` and the fast tier's
sequential loop call the same :meth:`DatacenterScheduler.choose` on
their live per-node / per-rack outstanding state, so routing semantics
cannot drift between tiers.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence as SequenceABC
from typing import List, Optional, Sequence

import numpy as np

from ..rack.choice import draw_distinct, draw_index, pick_min
from .topology import DatacenterTopology

__all__ = [
    "HIERARCHIES",
    "SPINE_POLICIES",
    "DEFAULT_JBSQ_K",
    "DatacenterScheduler",
    "FlatScheduler",
    "TwoLevelScheduler",
    "make_scheduler",
]

HIERARCHIES = ("flat", "racksched", "jbsq", "nanopu")

#: Spine (rack-selection) disciplines; ``flat`` applies them per node.
SPINE_POLICIES = ("random", "jsq2", "sed")

#: Default JBSQ bound: 16 cores of on-server concurrency plus a small
#: on-NI buffer, the shallowest bound that does not idle a healthy
#: server (RAIN sizes k the same way relative to server parallelism).
DEFAULT_JBSQ_K = 20

_JSQ_PATTERN = re.compile(r"^jsq(\d+)$")


def _parse_policy(policy: str) -> tuple:
    """``("random", 0) | ("jsq", d) | ("sed", d)`` from the spec string."""
    if policy == "random":
        return "random", 0
    if policy == "sed":
        return "sed", 2
    match = _JSQ_PATTERN.match(policy)
    if match:
        d = int(match.group(1))
        if d < 1:
            raise ValueError(f"jsq fan-out must be >= 1, got {policy!r}")
        return "jsq", d
    raise ValueError(
        f"unknown spine policy {policy!r}; known: random, jsq<d>, sed"
    )


class DatacenterScheduler:
    """Base: Zipf rack popularity; every decision composes the
    :mod:`repro.rack.choice` kernel (draw, distinct draws, argmin).

    ``believe`` is the per-node outstanding view (a list, so a rack's
    members are one slice) and ``rack_believe`` the per-rack aggregate
    (dispatched + ToR-held); both engines own the ground truth and keep
    the aggregates in sync incrementally, so a decision never pays an
    O(num_nodes) scan.
    """

    #: JBSQ bound (None for unbounded hierarchies).
    bound_k: Optional[int] = None

    def __init__(
        self, topology: DatacenterTopology, policy: str = "jsq2",
        skew: float = 0.0,
    ) -> None:
        if skew < 0:
            raise ValueError(f"skew must be non-negative, got {skew!r}")
        self.topology = topology
        self.rack_size = topology.rack_size
        self.policy = policy
        self.mode, self.d = _parse_policy(policy)
        self.skew = skew
        weights = np.array(
            [1.0 / (rank + 1.0) ** skew for rank in range(topology.num_racks)]
        )
        cumulative = np.cumsum(weights / weights.sum())
        cumulative[-1] = 1.0
        #: Plain-float cumulative rack popularity, ``bisect``-friendly.
        self.rack_cumulative: List[float] = [float(v) for v in cumulative]
        self.racks = range(topology.num_racks)
        self.capacities: Optional[List[float]] = None
        self.rack_capacities: Optional[List[float]] = None

    @property
    def label(self) -> str:
        return f"{self.hierarchy}+{self.policy}"

    def set_capacities(self, capacities: Sequence[float]) -> None:
        """Install per-node service capacities (cores x speed), once."""
        topo = self.topology
        if len(capacities) != topo.num_nodes:
            raise ValueError(
                f"capacities has {len(capacities)} entries for "
                f"{topo.num_nodes} nodes"
            )
        self.capacities = [float(value) for value in capacities]
        self.rack_capacities = [
            sum(self.capacities[node] for node in topo.members(rack))
            for rack in range(topo.num_racks)
        ]

    def choose(
        self,
        client: int,
        believe: List[float],
        rack_believe: Sequence[float],
        rng: np.random.Generator,
    ) -> int:
        raise NotImplementedError


class _OtherNodes(SequenceABC):
    """Node ids ``0 .. num_nodes - 1`` except ``client``, without a copy."""

    def __init__(self, num_nodes: int, client: int) -> None:
        self.size = num_nodes - 1
        self.client = client

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, index: int) -> int:
        if not 0 <= index < self.size:
            raise IndexError(index)
        return index if index < self.client else index + 1


class FlatScheduler(DatacenterScheduler):
    """No in-network scheduler: d-sampled client-side balancing."""

    hierarchy = "flat"

    def _sample_node(self, client: int, rng) -> int:
        """One candidate: popularity-weighted rack, uniform member != client."""
        size = self.rack_size
        first = draw_index(self.rack_cumulative, rng.random) * size
        if first <= client < first + size:
            node = first + int(rng.integers(0, size - 1))
            return node if node < client else node + 1
        return first + int(rng.integers(0, size))

    def choose(self, client, believe, rack_believe, rng) -> int:
        if self.mode == "random":
            return self._sample_node(client, rng)
        # The pool (every other node) is only read once d reaches it.
        pool = _OtherNodes(self.topology.num_nodes, client)
        candidates = draw_distinct(
            lambda: self._sample_node(client, rng), self.d, pool
        )
        score = believe
        if self.mode == "sed":
            capacities = self.capacities
            score = {
                node: (believe[node] + 1.0) / capacities[node]
                for node in candidates
            }
        return pick_min(candidates, score, rng.integers)


class TwoLevelScheduler(DatacenterScheduler):
    """Spine picks the rack by aggregate signal; ToR runs JSQ inside."""

    def __init__(
        self,
        topology: DatacenterTopology,
        policy: str = "jsq2",
        skew: float = 0.0,
        hierarchy: str = "racksched",
        bound_k: Optional[int] = None,
    ) -> None:
        super().__init__(topology, policy, skew)
        self.hierarchy = hierarchy
        if bound_k is not None and bound_k < 1:
            raise ValueError(f"JBSQ bound must be >= 1, got {bound_k!r}")
        self.bound_k = bound_k

    def choose_rack(self, client, rack_believe, rng) -> int:
        cumulative = self.rack_cumulative
        random = rng.random
        if self.mode == "random":
            return draw_index(cumulative, random)
        if self.mode == "jsq":
            candidates = draw_distinct(
                lambda: draw_index(cumulative, random), self.d, self.racks
            )
            return pick_min(candidates, rack_believe, rng.integers)
        # SED over *all* racks: the spine sees every ToR's aggregate, so
        # unlike a flat client it can afford the full capacity-aware scan.
        score = [
            (load + 1.0) / capacity
            for load, capacity in zip(rack_believe, self.rack_capacities)
        ]
        return pick_min(self.racks, score, rng.integers)

    def choose_member(self, rack, client, believe, rng) -> int:
        """ToR-local JSQ over the rack's members (client excluded).

        :func:`~repro.rack.choice.pick_min` over the members, computed
        with C-level list scans of the rack's slice of ``believe``: the
        same argmin, the same ties in member order, the same single
        ``integers(0, k)`` draw among ``k > 1`` ties.
        """
        size = self.rack_size
        first = rack * size
        loads = believe[first : first + size]
        if first <= client < first + size:
            loads[client - first] = math.inf
        best = min(loads)
        ties = loads.count(best)
        index = loads.index(best)
        if ties > 1:
            for _ in range(int(rng.integers(0, ties))):
                index = loads.index(best, index + 1)
        return first + index

    def choose(self, client, believe, rack_believe, rng) -> int:
        rack = self.choose_rack(client, rack_believe, rng)
        return self.choose_member(rack, client, believe, rng)


def make_scheduler(
    hierarchy: str,
    topology: DatacenterTopology,
    policy: str = "jsq2",
    skew: float = 0.0,
    jbsq_k: int = DEFAULT_JBSQ_K,
) -> DatacenterScheduler:
    """Build the scheduler for one hierarchy model.

    ``nanopu`` routes exactly like ``racksched`` — its difference is
    the node profile the engines apply, not the scheduling discipline.
    """
    if hierarchy == "flat":
        return FlatScheduler(topology, policy, skew)
    if hierarchy in ("racksched", "nanopu"):
        return TwoLevelScheduler(topology, policy, skew, hierarchy=hierarchy)
    if hierarchy == "jbsq":
        return TwoLevelScheduler(
            topology, policy, skew, hierarchy="jbsq", bound_k=jbsq_k
        )
    raise ValueError(
        f"unknown hierarchy {hierarchy!r}; known: {', '.join(HIERARCHIES)}"
    )
