"""CPU cores running the RPC-handling loop (§5, "Microbenchmark").

Each core executes the paper's per-RPC loop: spin on the private CQ,
process the request (the emulated service time), send the reply, and
post the replenish. A :class:`CoreProgram` supplies the cost
decomposition so different applications (the microbenchmark, the
execution-driven KV store in :mod:`repro.store`) can run on the same
core model.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from .packets import SendMessage
from .qp import QueuePair

if TYPE_CHECKING:  # pragma: no cover
    from .chip import Chip

__all__ = ["Core", "CoreProgram"]


class CoreProgram(abc.ABC):
    """Cost decomposition of one RPC on a core.

    Total core occupancy per request is
    ``pre_ns + msg.service_ns + post_ns``:

    * ``pre_ns`` — from CQE visibility to the start of the RPC proper
      (poll-loop detection + reading the request from the receive slot);
    * ``msg.service_ns`` — the RPC's processing time (workload-defined);
    * ``post_ns`` — reply ``send`` issue + ``replenish`` issue.
    """

    @abc.abstractmethod
    def pre_ns(self, msg: SendMessage) -> float:
        """Cost before the RPC's own processing starts."""

    @abc.abstractmethod
    def post_ns(self, msg: SendMessage) -> float:
        """Cost after processing, through posting the replenish."""

    def reply_size_bytes(self, msg: SendMessage) -> int:
        """Size of the RPC reply payload (paper microbenchmark: 512B)."""
        return 512


class Core:
    """One CPU core spinning on its private CQ."""

    def __init__(self, chip: "Chip", core_id: int, program: CoreProgram) -> None:
        self.chip = chip
        self.core_id = core_id
        self.program = program
        self.qp = QueuePair(chip.env, core_id)
        #: Observability: RPCs this core has processed.
        self.processed = 0
        chip.env.process(self._run(), name=f"core{core_id}")

    def _run(self):
        env = self.chip.env
        chip = self.chip
        program = self.program
        while True:
            msg: SendMessage = yield self.qp.cq.get()
            pre = program.pre_ns(msg) + msg.extra_pre_ns
            if chip.interference is not None:
                # §3.2 tail-inducing events: stall before the RPC runs.
                pre += chip.interference.pause_ns(
                    self.core_id, env.now, chip._interference_rng
                )
            post = program.post_ns(msg) + chip.per_request_core_overhead_ns
            msg.t_start = env.now + pre
            occupancy = pre + msg.service_ns + post
            yield env.timeout(occupancy)
            msg.t_replenish = env.now
            msg.core_id = self.core_id
            self.processed += 1
            chip.complete_request(msg, self)
