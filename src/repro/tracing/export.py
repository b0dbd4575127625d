"""Perfetto / Chrome-trace export of full span trees.

Extends the repo's trace tooling beyond per-message bars and counter
tracks (:mod:`repro.metrics.chrometrace`): each traced logical RPC
renders as a bar on its client node's track, each physical attempt as
a bar on the node's attempt track (retries and hedges visibly overlap
their predecessors), and each executed attempt's service window on the
serving core's track. Timeouts, drops, duplicate completions, and the
cluster-wide fault timeline render as instant events.

Load the JSON at https://ui.perfetto.dev. Combine with counter tracks
via :func:`repro.telemetry.export_unified_trace`.
"""

from __future__ import annotations

import pathlib
from typing import IO, Iterable, List, Union

from ..metrics.chrometrace import NS_TO_US, complete_event, write_trace
from .spans import RpcTrace, TraceBuffer

__all__ = ["span_trace_events", "export_span_trace"]

#: Perfetto "process" groups: clients (logical RPCs + attempts) vs
#: servers (service windows) vs the fault timeline.
_PID_CLIENTS = 10
_PID_SERVERS = 11
_PID_FAULTS = 12


def _instant(name, ts_ns, pid, tid) -> dict:
    return {
        "name": name,
        "ph": "i",
        "ts": ts_ns * NS_TO_US,
        "pid": pid,
        "tid": tid,
        "s": "t",  # thread-scoped instant
    }


def span_trace_events(
    source: Union[TraceBuffer, Iterable[RpcTrace]],
) -> List[dict]:
    """Build the Trace Event Format list for traced RPCs."""
    if isinstance(source, TraceBuffer):
        traces: Iterable[RpcTrace] = source.traces
        faults = source.faults
    else:
        traces = source
        faults = ()
    events: List[dict] = []
    for trace in traces:
        label = f"rpc {trace.client}:{trace.index} ({trace.label})"
        last = trace.t_end
        if last is None:
            # Unresolved trace (traffic cut short): span to the latest
            # stamp we have so the bar still renders.
            stamps = [trace.t_init] + [
                t
                for span in trace.attempts
                for t in (span.t_sent, span.t_replenish, span.t_reply)
                if t is not None
            ]
            last = max(stamps)
        args = {"outcome": trace.outcome, "attempts": len(trace.attempts)}
        phases = trace.phases()
        if phases is not None:
            args["phases_ns"] = {
                phase: round(value, 3) for phase, value in phases.items()
            }
        events.append(
            complete_event(
                label,
                trace.t_init,
                last - trace.t_init,
                pid=_PID_CLIENTS,
                tid=f"client node{trace.client:02d}",
                **args,
            )
        )
        for position, span in enumerate(trace.attempts):
            span_end = span.t_reply
            if span_end is None:
                candidates = [
                    t
                    for t in (span.t_replenish, span.t_sent, span.t_launch)
                    if t is not None
                ]
                span_end = max(candidates)
            attempt_tid = f"attempts node{trace.client:02d}"
            events.append(
                complete_event(
                    f"{label} {span.kind}->node{span.dst}",
                    span.t_launch,
                    span_end - span.t_launch,
                    pid=_PID_CLIENTS,
                    tid=attempt_tid,
                    status=span.status,
                    won=position == trace.winner,
                    **(
                        {"decision": span.decision}
                        if span.decision is not None
                        else {}
                    ),
                )
            )
            if span.t_start is not None and span.t_replenish is not None:
                events.append(
                    complete_event(
                        f"{label} {span.kind}",
                        span.t_start,
                        span.t_replenish - span.t_start,
                        pid=_PID_SERVERS,
                        tid=f"server node{span.dst:02d} core{span.core_id:02d}",
                        dispatch_wait_ns=(
                            None
                            if span.t_dispatch is None
                            or span.t_reassembled is None
                            else round(span.t_dispatch - span.t_reassembled, 3)
                        ),
                    )
                )
            for name, t_ns in span.events:
                events.append(_instant(name, t_ns, _PID_CLIENTS, attempt_tid))
    for t_ns, kind, node in faults:
        tid = "fabric" if node < 0 else f"node{node:02d}"
        events.append(_instant(kind, t_ns, _PID_FAULTS, f"faults {tid}"))
    return events


def export_span_trace(
    source: Union[TraceBuffer, Iterable[RpcTrace]],
    destination: Union[str, pathlib.Path, IO[str]],
) -> int:
    """Write spans as a Chrome-trace JSON file; returns the event count."""
    return write_trace(span_trace_events(source), destination)
