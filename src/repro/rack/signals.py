"""Load-signal models: how fresh is the rack scheduler's view of load?

Load-aware inter-server policies (JSQ(d), SED) act on *estimates* of
per-server load. In a real rack those estimates are stale: they rode a
reply that left the server microseconds ago, or a periodic broadcast
that is most of a period old. At µs RPC scales that staleness is the
difference between power-of-d-choices working and the whole rack
herding onto whichever server *looked* idle (RackSched, OSDI'20; RAIN,
2025). This module models the signal path explicitly:

* :class:`InstantSignal` — oracle freshness: every decision reads the
  true outstanding load. The upper bound no real system achieves.
* :class:`PiggybackSignal` — the server's load rides each reply's
  replenish credit back to the *issuing* client; a client's view of a
  server refreshes only when one of its own RPCs completes there, and
  is one fabric traversal old on arrival.
* :class:`BroadcastSignal` — every server publishes its load every
  ``period_ns`` to all clients, each copy paying the fabric's one-way
  latency. Staleness grows with the period: the knob the ``ext-rack``
  experiment sweeps.

The signal *value* is uniform across models: the number of RPCs routed
to the server and not yet completed (committed in-flight + queued +
executing), maintained by :class:`repro.rack.router.RackRouter`.
Estimates are the raw last-received values — deliberately *not*
compensated with the client's own in-flight counts — so the staleness
pathology the related work studies (synchronized herding) is
reproduced, not papered over.

``make_signal`` parses sweep spec strings: ``"fresh"``,
``"piggyback"``, ``"broadcast:20000"`` (period in ns).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, List

__all__ = [
    "LoadSignal",
    "InstantSignal",
    "PiggybackSignal",
    "BroadcastSignal",
    "make_signal",
]

if TYPE_CHECKING:  # pragma: no cover
    from .router import RackRouter


class LoadSignal(abc.ABC):
    """A client-side estimator of every peer's outstanding load."""

    label: str = "signal"

    def __init__(self) -> None:
        self.router: "RackRouter" = None  # bound by RackRouter.bind

    def bind(self, router: "RackRouter") -> None:
        """Attach to the router (called once, before traffic starts)."""
        self.router = router
        num_nodes = router.num_nodes
        #: estimates[client][server] — the client's current belief.
        self.estimates: List[List[float]] = [
            [0.0] * num_nodes for _ in range(num_nodes)
        ]

    def estimate(self, client: int, server: int) -> float:
        """The client's current belief about ``server``'s load."""
        return self.estimates[client][server]

    # -- event hooks (no-ops by default) -----------------------------------

    def on_reply(self, client: int, server: int, reported_load: float) -> None:
        """A reply from ``server`` reached ``client`` (piggyback hook)."""

    def start(self) -> None:
        """Called once when traffic starts (broadcast processes spawn here)."""


class InstantSignal(LoadSignal):
    """Oracle: estimates are always the true outstanding load."""

    label = "fresh"

    def estimate(self, client: int, server: int) -> float:
        return float(self.router.outstanding[server])


class PiggybackSignal(LoadSignal):
    """Replies carry the server's load back to the issuing client.

    The cluster's replenish credit already crosses the fabric back to
    the sender on every completion; the signal rides it for free. The
    router captures the server's outstanding count at completion time
    and delivers it here after the fabric delay.
    """

    label = "piggyback"

    def on_reply(self, client: int, server: int, reported_load: float) -> None:
        self.estimates[client][server] = reported_load


class BroadcastSignal(LoadSignal):
    """Periodic load broadcast: every server, every ``period_ns``.

    Each broadcast captures the server's outstanding count at the tick
    and lands at every client one fabric traversal later. Between
    ticks the view only ages — the classic stale-signal regime.
    """

    def __init__(self, period_ns: float) -> None:
        super().__init__()
        if period_ns <= 0:
            raise ValueError(f"period_ns must be positive, got {period_ns!r}")
        self.period_ns = period_ns
        self.label = f"broadcast/{period_ns:g}ns"

    def start(self) -> None:
        cluster = self.router.cluster
        for server in range(self.router.num_nodes):
            cluster.env.process(
                self._broadcaster(server), name=f"load-bcast-{server}"
            )

    def _broadcaster(self, server: int):
        cluster = self.router.cluster
        env = cluster.env
        injector = cluster.injector
        while not cluster.traffic_drained():
            yield env.timeout(self.period_ns)
            if not injector.node_up(server) or injector.signals_dark():
                # A down server broadcasts nothing; a signal blackout
                # silences the whole signal plane. The view only ages.
                continue
            load = float(self.router.outstanding[server])
            for client in range(self.router.num_nodes):
                if client == server:
                    continue
                delay = cluster.fabric.latency_ns(server, client)
                injector.transmit(delay, self._deliver, client, server, load)

    def _deliver(self, client: int, server: int, load: float) -> None:
        self.estimates[client][server] = load


def make_signal(spec: str) -> LoadSignal:
    """Build a load-signal model from its sweep spec string."""
    spec = spec.strip().lower()
    if spec in ("fresh", "instant"):
        return InstantSignal()
    if spec == "piggyback":
        return PiggybackSignal()
    if spec.startswith("broadcast"):
        _, _, period = spec.partition(":")
        if not period:
            raise ValueError(
                f"broadcast signal needs a period: 'broadcast:<ns>', got {spec!r}"
            )
        return BroadcastSignal(float(period))
    raise ValueError(
        f"unknown load signal {spec!r}; expected fresh|piggyback|broadcast:<ns>"
    )
