"""Chrome-trace export of per-message timelines and counter tracks.

Converts completed :class:`~repro.arch.packets.SendMessage` records
into the Trace Event Format consumed by ``chrome://tracing`` and
Perfetto (https://ui.perfetto.dev): load the JSON and see every RPC as
a bar on its core's track, with NI stages on dedicated tracks. The
visual version of :mod:`repro.metrics.breakdown`.

Telemetry time series (queue depths, per-core outstanding counts — see
:mod:`repro.telemetry`) export as Perfetto **counter tracks** that
render as stepped area charts alongside the per-RPC bars, so a p99
outlier bar can be read against the CQ backlog that caused it.

Usage::

    result = system.run_point(20.0, 5_000, keep_messages=True, telemetry=True)
    export_chrome_trace(result.messages, "rpcs.trace.json", telemetry=result.telemetry)
"""

from __future__ import annotations

import json
from typing import IO, List, Sequence, Union

__all__ = [
    "chrome_trace_events",
    "counter_track_events",
    "telemetry_counter_events",
    "export_chrome_trace",
]

#: Trace timestamps are in microseconds; the simulator uses ns.
NS_TO_US = 1e-3


def complete_event(
    name: str, ts_ns: float, dur_ns: float, pid: int, tid: str, **args
) -> dict:
    """One complete ("ph": "X") event: a bar on track ``(pid, tid)``.

    The one builder for every Perfetto exporter's bars.
    """
    event = {
        "name": name,
        "ph": "X",  # complete event
        "ts": ts_ns * NS_TO_US,
        "dur": max(dur_ns, 0.0) * NS_TO_US,
        "pid": pid,
        "tid": tid,
    }
    if args:
        event["args"] = args
    return event


def chrome_trace_events(messages: Sequence) -> List[dict]:
    """Build the trace event list for completed messages.

    Tracks: one per NI backend (reassembly), one for each dispatcher
    group (shared-CQ wait), and one per core (execution). Incomplete
    messages raise.
    """
    events: List[dict] = []
    for msg in messages:
        if msg.t_replenish is None:
            raise ValueError(f"message {msg.msg_id} has not completed")
        label = f"rpc {msg.msg_id} ({msg.label})"
        events.append(
            complete_event(
                label,
                msg.t_arrival,
                msg.t_reassembled - msg.t_arrival,
                pid=0,
                tid=f"NI backend {msg.backend_id}",
                src_node=msg.src_node,
                packets=msg.num_packets,
            )
        )
        events.append(
            complete_event(
                label,
                msg.t_reassembled,
                msg.t_dispatch - msg.t_reassembled,
                pid=0,
                tid=f"dispatcher {msg.group_id} (shared CQ)",
            )
        )
        events.append(
            complete_event(
                label,
                msg.t_dispatch,
                msg.t_replenish - msg.t_dispatch,
                pid=0,
                tid=f"core {msg.core_id:02d}",
                service_ns=msg.service_ns,
                latency_ns=msg.latency_ns,
            )
        )
    return events


def counter_track_events(
    name: str,
    times_ns: Sequence[float],
    values: Sequence[float],
    pid: int = 0,
) -> List[dict]:
    """Build Perfetto counter ("ph": "C") events for one value series.

    Counter events render as a stepped area chart on a track named
    ``name``. Times are simulator ns (converted to trace µs); values
    are emitted as-is.
    """
    if len(times_ns) != len(values):
        raise ValueError(
            f"times and values differ in length: {len(times_ns)} vs {len(values)}"
        )
    return [
        {
            "name": name,
            "ph": "C",
            "ts": t * NS_TO_US,
            "pid": pid,
            "args": {"value": v},
        }
        for t, v in zip(times_ns, values)
    ]


def telemetry_counter_events(telemetry, pid: int = 0) -> List[dict]:
    """Counter tracks for every time series of a telemetry snapshot.

    ``telemetry`` is a :class:`repro.telemetry.TelemetrySnapshot` (duck
    typed: anything with a ``series`` mapping of name →
    ``(times, values)`` pairs). Series are emitted in name order so the
    output is deterministic.
    """
    events: List[dict] = []
    for name in sorted(telemetry.series):
        series = telemetry.series[name]
        events.extend(counter_track_events(name, series.times, series.values, pid=pid))
    return events


def export_chrome_trace(
    messages: Sequence,
    destination: Union[str, IO[str]],
    telemetry=None,
) -> int:
    """Write messages as a Chrome-trace JSON file; returns event count.

    ``destination`` is a path or an open text file object. When a
    telemetry snapshot is given, its time series are added as counter
    tracks next to the per-RPC bars.
    """
    events = chrome_trace_events(messages)
    if telemetry is not None:
        events.extend(telemetry_counter_events(telemetry))
    return write_trace(events, destination)


def write_trace(events: List[dict], destination: Union[str, IO[str]]) -> int:
    """Write ``events`` as a Trace Event Format file; returns their count.

    ``destination`` is a path or an open text file object. Every
    Perfetto exporter in the repo writes through here.
    """
    payload = {"traceEvents": events, "displayTimeUnit": "ns"}
    if hasattr(destination, "write"):
        json.dump(payload, destination)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
    return len(events)
