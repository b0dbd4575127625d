"""Rack-level scheduling: two-level load balancing across RPCValet servers.

RPCValet (the paper) dispatches RPCs to cores *within* one server; this
package adds the second scheduling tier a rack needs: client-side
routing of each RPC to a server, driven by load signals that cross the
same fabric as the RPCs and are therefore stale. Combined with the
:mod:`repro.cluster` substrate (K fully simulated chips) it turns the
single-chip reproduction into a testbed for the paper's natural
follow-on question — does single-queue dispatch inside each server
still win when the rack-level router is smart, dumb, or stale?

Pieces:

* :mod:`repro.rack.choice` — the power-of-d kernel (popularity draw,
  distinct candidates, argmin with random ties) every load-aware
  router composes;
* :mod:`repro.rack.policies` — inter-server routing rules (uniform
  random, round-robin, JSQ(d), shortest-expected-delay) plus the
  Zipf destination-popularity model;
* :mod:`repro.rack.signals` — load-signal freshness models
  (instantaneous oracle, piggybacked-on-replies, periodic broadcast);
* :mod:`repro.rack.router` — the :class:`RackRouter` gluing both into
  a :class:`repro.cluster.Cluster` (pass ``router=`` to the cluster).

The ``ext-rack`` experiment (:mod:`repro.experiments.rack`) sweeps
policy x staleness x skew x per-node dispatch scheme.
"""

from .policies import (
    PowerOfD,
    RackPolicy,
    RoundRobinPolicy,
    ShortestExpectedDelay,
    UniformRandomPolicy,
    ZipfDestinations,
    make_policy,
)
from .router import RackRouter, RouterStats
from .signals import (
    BroadcastSignal,
    InstantSignal,
    LoadSignal,
    PiggybackSignal,
    make_signal,
)

__all__ = [
    "RackPolicy",
    "UniformRandomPolicy",
    "RoundRobinPolicy",
    "PowerOfD",
    "ShortestExpectedDelay",
    "ZipfDestinations",
    "make_policy",
    "LoadSignal",
    "InstantSignal",
    "PiggybackSignal",
    "BroadcastSignal",
    "make_signal",
    "RackRouter",
    "RouterStats",
]
