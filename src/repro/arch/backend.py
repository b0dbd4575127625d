"""NI backends: the replicated "data" half of the Manycore NI (§4.1).

Each backend independently receives network packets, writes payloads
into receive-buffer slots, and runs the extended Remote Request
Processing pipeline (§4.4): per-packet counter fetch-and-increment,
message-completion check, and — once a ``send`` is fully received —
forwarding a *message completion packet* to the NI dispatcher over the
mesh.

The pipeline is modeled as a serialized server: a message of P packets
occupies the backend for ``backend_fixed_ns + P·backend_per_packet_ns``.
Outgoing replies and plain one-sided writes occupy the same pipeline,
so heavy egress traffic can (realistically) delay ingress handling.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim import Store, delayed_call
from .packets import OneSidedWrite, SendMessage

if TYPE_CHECKING:  # pragma: no cover
    from .chip import Chip

__all__ = ["NIBackend"]


class NIBackend:
    """One NI backend at the mesh edge."""

    def __init__(self, chip: "Chip", backend_id: int) -> None:
        self.chip = chip
        self.backend_id = backend_id
        self._pipeline: Store = Store(chip.env)
        #: Observability counters.
        self.messages_reassembled = 0
        self.replies_sent = 0
        self.onesided_handled = 0
        self.busy_ns = 0.0
        #: Telemetry: pipeline-depth histogram, installed by
        #: :func:`repro.telemetry.instrument_chip` (None = disabled).
        self.depth_hist = None
        chip.env.process(self._run(), name=f"backend{backend_id}")

    # -- ingress/egress entry points ------------------------------------------

    def receive_message(self, msg: SendMessage) -> None:
        """A ``send`` message starts arriving from the network."""
        self._pipeline.put(("ingress", msg))
        hist = self.depth_hist
        if hist is not None:
            hist.record(len(self._pipeline))

    def send_reply(self, num_packets: int) -> None:
        """A core's reply ``send`` leaves through this backend."""
        self._pipeline.put(("egress", num_packets))

    def occupy_pipeline(self, num_packets: int) -> None:
        """Charge generic data movement (one-sided payloads) to the
        pipeline without counting it as a reply."""
        self._pipeline.put(("data", num_packets))

    def receive_onesided(self, op: OneSidedWrite) -> None:
        """A plain one-sided write: memory traffic only, no dispatch."""
        self._pipeline.put(("onesided", op))

    # -- the pipeline ------------------------------------------------------------

    def _occupancy_ns(self, num_packets: int) -> float:
        config = self.chip.config
        return config.backend_fixed_ns + num_packets * config.backend_per_packet_ns

    def _run(self):
        env = self.chip.env
        while True:
            kind, item = yield self._pipeline.get()
            if kind == "ingress":
                busy = self._occupancy_ns(item.num_packets)
                yield env.timeout(busy)
                self.busy_ns += busy
                self._message_complete(item)
            elif kind == "egress":
                busy = self._occupancy_ns(item)
                yield env.timeout(busy)
                self.busy_ns += busy
                self.replies_sent += 1
            elif kind == "data":
                busy = self._occupancy_ns(item)
                yield env.timeout(busy)
                self.busy_ns += busy
            elif kind == "onesided":
                busy = self._occupancy_ns(item.num_packets)
                yield env.timeout(busy)
                self.busy_ns += busy
                self.onesided_handled += 1
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown backend work item {kind!r}")

    def _message_complete(self, msg: SendMessage) -> None:
        """All packets of ``msg`` written; counters confirmed complete."""
        chip = self.chip
        # Drive the receive-slot counter state machine to completion.
        for _ in range(msg.num_packets):
            done = chip.receive_buffer.packet_arrived(msg.receive_slot)
        if not done:  # pragma: no cover - invariant
            raise RuntimeError("packet counter disagrees with message length")
        self.messages_reassembled += 1
        msg.t_reassembled = chip.env.now

        dispatcher = chip.dispatchers[msg.group_id]
        delay = dispatcher.completion_forward_delay_ns(self.backend_id)
        if delay > 0:
            delayed_call(chip.env, delay, dispatcher.on_message_ready, msg)
        else:
            dispatcher.on_message_ready(msg)
