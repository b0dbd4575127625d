"""Per-layer measurement for the traced run.

Three sources, none of them inside ``src/``:

* :class:`Tracer` spans, opened by the benchmark around each call into a
  layer's public entry point (``run_point_task``, ``Cluster.run``, the
  fast-tier simulators), plus counted and timed wrappers around the
  routing calls (``RackRouter.choose`` on the router instance the
  benchmark builds; the datacenter scheduler's ``choose`` through
  :meth:`Tracer.routing`);
* a cProfile self-time split by ``repro`` subpackage
  (:func:`self_shares`);
* the ``sim/`` kernel micro-rates (:func:`sim_micro_rates`), since the
  kernel exposes no event counter.

Spans stay in memory and are written once, as a Chrome/Perfetto trace,
when the run ends (:func:`write_trace`).
"""

from __future__ import annotations

import itertools
import json
import pstats
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

#: Groups reported as ``<group>.self_share``.
SHARE_GROUPS = (
    "sim", "arch", "balancing", "workloads", "cluster", "faults", "rack",
    "datacenter", "fastpath", "numpy",
)

_BENCH_DIR = str(Path(__file__).resolve().parent)
_PACKAGE_DIR = str(Path(__file__).resolve().parent.parent / "src" / "repro")


class Tracer:
    """In-memory spans and per-name call counters for one traced pass."""

    def __init__(self) -> None:
        #: (id, parent id, name, start, end, request)
        self.spans: List[tuple] = []
        #: name -> [calls, seconds]
        self.calls: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        self._stack: List[int] = []
        self._ids = itertools.count()

    @contextmanager
    def span(self, name: str, request: Optional[str] = None) -> Iterator[None]:
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end, request))

    def wrap_calls(self, obj, method: str, name: str) -> None:
        """Count and time every call of ``obj.method`` under ``name``.

        Per-call spans would cost a record per routing decision, so
        these calls aggregate into one counter per name instead.
        """
        original = getattr(obj, method)
        counter = self.calls[name]
        clock = time.perf_counter

        def timed(*args, **kwargs):
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                counter[0] += 1
                counter[1] += clock() - started

        setattr(obj, method, timed)

    @contextmanager
    def routing(self, name: str) -> Iterator[None]:
        """Wrap ``choose`` of every scheduler the datacenter engine builds."""
        import repro.datacenter.fastdc as fastdc

        original = fastdc.make_scheduler

        def traced_make_scheduler(*args, **kwargs):
            scheduler = original(*args, **kwargs)
            self.wrap_calls(scheduler, "choose", name)
            return scheduler

        fastdc.make_scheduler = traced_make_scheduler
        try:
            yield
        finally:
            fastdc.make_scheduler = original

    def total(self, name: str) -> float:
        """Seconds spent in all spans called ``name``."""
        return sum(end - start for _id, _parent, span, start, end, _req in self.spans
                   if span == name)

    def chrome_events(self, pid: int, origin: float) -> List[dict]:
        return [
            {"name": name, "ph": "X", "pid": pid, "tid": 1,
             "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
             "args": {"id": span_id, "parent": parent, "request": request}}
            for span_id, parent, name, start, end, request in self.spans
        ]


def write_trace(path: Path, tracers: List[Tracer], counters: Dict[str, object]) -> None:
    """Write every pass's spans as one Chrome/Perfetto trace file."""
    starts = [span[3] for tracer in tracers for span in tracer.spans]
    origin = min(starts) if starts else 0.0
    events = []
    for index, tracer in enumerate(tracers):
        events.extend(tracer.chrome_events(index + 1, origin))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "otherData": counters}))


def _group_of(filename: str, funcname: str) -> str:
    if filename.startswith(_PACKAGE_DIR):
        head = Path(filename).relative_to(_PACKAGE_DIR).parts[0]
        return head[:-3] if head.endswith(".py") else head
    if filename.startswith(_BENCH_DIR):
        return "perfbench"
    if "numpy" in filename or "numpy" in funcname:
        return "numpy"
    return "other"


def self_shares(stats: pstats.Stats) -> Dict[str, float]:
    """Share of profiled self time per ``repro`` subpackage (+ numpy).

    Built-in functions (``heapq.heappush``, ``list.append``...) are
    charged to the group of their caller, in proportion to the time
    each caller's calls took, so a subpackage's share includes the
    built-ins it drives. Built-ins on NumPy objects count as numpy.
    """
    groups: Dict[str, float] = defaultdict(float)
    total = 0.0
    for (filename, _line, funcname), (_cc, _nc, self_s, _cum, callers) in stats.stats.items():
        total += self_s
        if filename == "~" and "numpy" not in funcname and callers:
            for (caller_file, _cl, caller_func), edge in callers.items():
                groups[_group_of(caller_file, caller_func)] += edge[2]
            continue
        groups[_group_of(filename, funcname)] += self_s
    if total <= 0:
        return {group: 0.0 for group in groups}
    return {group: seconds / total for group, seconds in groups.items()}


def sim_micro_rates(repeats: int = 5) -> Dict[str, float]:
    """Median events/s of the three ``sim/`` kernel micro-benchmarks.

    The timeout chain, the ``schedule_call`` chain and the ``Store``
    producer/consumer hand-off; each checks it did all its work. Rates
    are scaled to the nominal host speed like every host time (pace.py).
    """
    from pace import NOMINAL_PROBE_S, probe
    from repro.sim import Environment, Store

    timeouts, calls, handoffs = 10_000, 10_000, 5_000

    def timeout_chain() -> None:
        env = Environment()

        def chain():
            for _ in range(timeouts):
                yield env.timeout(1.0)

        env.process(chain())
        env.run()
        if env.now != float(timeouts):
            raise RuntimeError(f"timeout chain ended at {env.now}")

    def schedule_call_chain() -> None:
        env = Environment()
        fired = [0]

        def tick() -> None:
            fired[0] += 1
            if fired[0] < calls:
                env.schedule_call(1.0, tick)

        env.schedule_call(1.0, tick)
        env.run()
        if fired[0] != calls:
            raise RuntimeError(f"schedule_call chain fired {fired[0]} times")

    def store_handoff() -> None:
        env = Environment()
        store = Store(env)
        received = [0]

        def producer():
            for index in range(handoffs):
                yield store.put(index)
                yield env.timeout(1.0)

        def consumer():
            while received[0] < handoffs:
                yield store.get()
                received[0] += 1

        env.process(producer())
        env.process(consumer())
        env.run()
        if received[0] != handoffs:
            raise RuntimeError(f"store received {received[0]} items")

    rates = {}
    for name, bench, count in (
        ("sim.timeout_events_per_s", timeout_chain, timeouts),
        ("sim.schedule_call_per_s", schedule_call_chain, calls),
        ("sim.store_handoffs_per_s", store_handoff, handoffs),
    ):
        samples = []
        for _ in range(repeats):
            before = probe()
            started = time.perf_counter()
            bench()
            wall = time.perf_counter() - started
            samples.append(count * (before + probe()) / (2 * NOMINAL_PROBE_S * wall))
        rates[name] = statistics.median(samples)
    return rates
