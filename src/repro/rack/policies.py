"""Inter-server routing policies: the rack scheduler's decision rules.

RPCValet balances *within* a server; a rack-scale deployment also needs
a client-side rule deciding *which* server each RPC goes to (RackSched,
OSDI'20). A :class:`RackPolicy` makes that decision from (a) the
client's view of per-server load — the node-indexed list a
:class:`repro.rack.signals.LoadSignal` keeps, which may be arbitrarily
stale — and (b) a destination *popularity* model
(:class:`ZipfDestinations`) that skews where requests want to land,
modeling hot shards that break random spray. The DES router and the
fast tier both route through :meth:`RackPolicy.choose`.

Policies are deliberately simple and classic:

* :class:`UniformRandomPolicy` — one popularity-weighted sample, the
  cluster package's historical behaviour when popularity is uniform;
* :class:`RoundRobinPolicy` — oblivious even spread, per-client cycle;
* :class:`PowerOfD` — JSQ(d): sample ``d`` distinct candidates by
  popularity, route to the one the load signal claims is least loaded;
* :class:`ShortestExpectedDelay` — over *all* peers, minimize
  ``(estimated load + 1) / capacity``, the heterogeneity-aware rule.

JSQ(d) and SED are compositions of the :mod:`repro.rack.choice` kernel.
``make_policy`` parses the spec strings the experiment driver sweeps
(``"random"``, ``"rr"``, ``"jsq2"``, ``"jsq3"``, ``"sed"``).
"""

from __future__ import annotations

import abc
from typing import Collection, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .choice import draw_distinct, draw_index, pick_min

__all__ = [
    "RackPolicy",
    "UniformRandomPolicy",
    "RoundRobinPolicy",
    "PowerOfD",
    "ShortestExpectedDelay",
    "ZipfDestinations",
    "make_policy",
]


class ZipfDestinations:
    """Popularity-weighted destination sampler (Zipf over node rank).

    With ``skew == 0`` every peer is equally likely — the uniform spray
    the cluster package started with. With ``skew > 0`` node *rank*
    (its id) gets weight ``1 / (rank + 1)**skew``, so node 0 is the
    cluster-wide hot shard every client favours. Each client excludes
    itself and renormalizes over its peers.
    """

    def __init__(self, num_nodes: int, skew: float = 0.0) -> None:
        if num_nodes < 2:
            raise ValueError(f"need at least 2 nodes, got {num_nodes!r}")
        if skew < 0:
            raise ValueError(f"skew must be non-negative, got {skew!r}")
        self.num_nodes = num_nodes
        self.skew = skew
        weights = np.array(
            [1.0 / (rank + 1.0) ** skew for rank in range(num_nodes)]
        )
        #: Per-client plain-int peer lists, raw weights, and plain-float
        #: cumulative weights (what :func:`draw_index` bisects).
        self._peers: List[List[int]] = []
        self._weights: List[np.ndarray] = []
        self._cumulative: List[List[float]] = []
        for client in range(num_nodes):
            peers = [node for node in range(num_nodes) if node != client]
            peer_weights = weights[peers]
            self._peers.append(peers)
            self._weights.append(peer_weights)
            self._cumulative.append(
                np.cumsum(peer_weights / peer_weights.sum()).tolist()
            )

    def peers_of(self, client: int) -> List[int]:
        return self._peers[client]

    def cumulative_of(self, client: int) -> np.ndarray:
        """Cumulative popularity over ``peers_of(client)``, for batched draws.

        The vectorized fast path samples thousands of destinations with
        one ``searchsorted`` against this array instead of one scalar
        :meth:`sample` call per RPC.
        """
        return np.asarray(self._cumulative[client])

    def _restrict(
        self, client: int, allowed: Optional[Collection[int]] = None
    ) -> Tuple[List[int], List[float]]:
        """``(pool, cumulative)`` for one decision over the allowed peers.

        Popularity renormalizes over the peers in ``allowed`` (e.g.
        suspected servers excluded); ``allowed=None`` gives the
        precomputed full lists.
        """
        peers = self._peers[client]
        if allowed is None:
            return peers, self._cumulative[client]
        keep = [i for i, node in enumerate(peers) if node in allowed]
        weights = self._weights[client][keep]
        cumulative = np.cumsum(weights / weights.sum()).tolist()
        return [peers[i] for i in keep], cumulative

    def sample(
        self,
        client: int,
        rng: np.random.Generator,
        allowed: Optional[Collection[int]] = None,
    ) -> int:
        """Draw one destination for ``client`` by popularity."""
        pool, cumulative = self._restrict(client, allowed)
        return pool[draw_index(cumulative, rng.random)]

    def sample_distinct(
        self,
        client: int,
        count: int,
        rng: np.random.Generator,
        allowed: Optional[Collection[int]] = None,
    ) -> Sequence[int]:
        """Draw ``count`` distinct destinations by popularity."""
        pool, cumulative = self._restrict(client, allowed)
        random = rng.random
        return draw_distinct(
            lambda: pool[draw_index(cumulative, random)], count, pool
        )


class RackPolicy(abc.ABC):
    """Picks a destination server for one RPC issued by ``client``."""

    label: str = "policy"

    #: True when the policy reads the load signal (drives whether the
    #: router records staleness errors for its decisions).
    uses_load_signal: bool = False

    @abc.abstractmethod
    def choose(
        self,
        client: int,
        destinations: ZipfDestinations,
        believe: Sequence[float],
        capacities: Sequence[float],
        rng: np.random.Generator,
        allowed: Optional[Sequence[int]] = None,
    ) -> int:
        """Return the destination node id for one request.

        ``believe[node]`` is the client's current belief about each
        node's outstanding load (see :mod:`repro.rack.signals`) and
        ``capacities[node]`` its relative service capacity (cores x
        speed, 1.0 for a homogeneous rack), both node-indexed.
        ``allowed`` is the *candidate set* in peer order when the
        router excludes suspected-dead servers — policies must route
        within it; None means every peer of ``client``.
        """


class UniformRandomPolicy(RackPolicy):
    """Popularity-weighted random spray (uniform when skew is 0)."""

    label = "random"

    def choose(self, client, destinations, believe, capacities, rng, allowed=None):
        return destinations.sample(client, rng, allowed)


class RoundRobinPolicy(RackPolicy):
    """Per-client cycle over its peers, offset by client id.

    Ignores both popularity and load: the "perfectly even but
    oblivious" baseline between random spray and load-aware routing.
    """

    label = "rr"

    def __init__(self) -> None:
        self._cursor: Dict[int, int] = {}

    def choose(self, client, destinations, believe, capacities, rng, allowed=None):
        peers = destinations.peers_of(client)
        cursor = self._cursor.get(client, client % len(peers))
        if allowed is not None:
            # Advance past excluded (suspected) peers; at most one full
            # cycle, falling back to the raw cursor if all are excluded.
            for _ in range(len(peers)):
                node = peers[cursor % len(peers)]
                cursor += 1
                if node in allowed:
                    self._cursor[client] = cursor
                    return node
        self._cursor[client] = cursor + 1
        return peers[cursor % len(peers)]


class PowerOfD(RackPolicy):
    """JSQ(d): least estimated load among d popularity-drawn candidates."""

    uses_load_signal = True

    def __init__(self, d: int = 2) -> None:
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d!r}")
        self.d = d
        self.label = f"jsq{d}"

    def choose(self, client, destinations, believe, capacities, rng, allowed=None):
        candidates = destinations.sample_distinct(client, self.d, rng, allowed)
        return pick_min(candidates, believe, rng.integers)


class ShortestExpectedDelay(RackPolicy):
    """SED over all peers: minimize (estimate + 1) / capacity.

    The rule that remains sensible on an asymmetric rack: a node with
    twice the cores (or clock) absorbs twice the queue for the same
    expected delay.
    """

    label = "sed"
    uses_load_signal = True

    def choose(self, client, destinations, believe, capacities, rng, allowed=None):
        if allowed is None:
            allowed = destinations.peers_of(client)
        score = [
            (load + 1.0) / capacity
            for load, capacity in zip(believe, capacities)
        ]
        return pick_min(allowed, score, rng.integers)


def make_policy(spec: str) -> RackPolicy:
    """Build a policy from its sweep spec string."""
    spec = spec.strip().lower()
    if spec in ("random", "uniform"):
        return UniformRandomPolicy()
    if spec in ("rr", "round-robin", "roundrobin"):
        return RoundRobinPolicy()
    if spec.startswith("jsq"):
        suffix = spec[3:] or "2"
        try:
            d = int(suffix)
        except ValueError:
            raise ValueError(f"bad JSQ(d) spec {spec!r}") from None
        return PowerOfD(d)
    if spec == "sed":
        return ShortestExpectedDelay()
    raise ValueError(
        f"unknown rack policy {spec!r}; expected random|rr|jsqD|sed"
    )
