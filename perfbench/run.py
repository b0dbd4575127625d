"""Simulator benchmark: host throughput of three workloads, plus a traced run.

Run from the repository root::

    python3 perfbench/run.py --workload chip-des --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones. Every
run also appends a provenance-stamped record to
``perfbench/results/runs.jsonl`` (``--out`` changes the file), which
``perfbench/compare.py`` reads. See ``perfbench/README.md``.

Each workload runs serially in this process through
``repro.runner.map_points`` with ``workers=1``, the result cache off and
every ``REPRO_*`` environment override cleared.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

#: Set-up runs in fresh interpreters per run; with the in-process set-up
#: they give SETUP_SAMPLES + 1 samples, of which setup_s is the median.
SETUP_SAMPLES = 4
#: Host-speed probes timed before and after each set-up sample.
SETUP_PROBES = 5


@dataclass
class Pass:
    """One closed-loop pass over all of a workload's points."""

    results: List[Optional[Dict[str, Any]]]
    errors: Dict[int, str]
    #: Wall seconds of each point's simulation call, in pass order
    #: (None if it raised).
    point_s: List[Optional[float]]
    #: The same, scaled to the nominal host speed (see pace.py).
    scaled_s: List[Optional[float]]
    #: ``map_points`` wall minus the sum of its task walls.
    runner_overhead_s: float
    wall_s: float
    #: Host-speed probe medians, one before each point and one at the end.
    probe_s: List[float]
    tracer: Any = None


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    from scenarios import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=RESULTS / "runs.jsonl",
                        help="file the run record is appended to")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (used internally)")
    return parser.parse_args(argv)


def clear_repro_env() -> Dict[str, str]:
    """Remove every REPRO_* override; returns the values removed."""
    cleared = {key: value for key, value in os.environ.items() if key.startswith("REPRO_")}
    for key in cleared:
        del os.environ[key]
    return cleared


def scaled_setup(work) -> Dict[str, float]:
    """Run the set-up once; its wall time, and scaled to the nominal host speed."""
    from pace import NOMINAL_PROBE_S, probe

    before = [probe() for _ in range(SETUP_PROBES)]
    wall = work.setup()
    after = [probe() for _ in range(SETUP_PROBES)]
    speed = statistics.median(before + after)
    return {"setup_s": wall * NOMINAL_PROBE_S / speed, "raw_setup_s": wall}


def setup_samples(workload: str) -> List[Dict[str, float]]:
    """Time the workload's set-up in fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def run_passes(work, points, seconds: float, traced: bool = False, profiler=None) -> List[Pass]:
    """Closed loop: whole passes through ``map_points`` until ``seconds`` pass.

    At least one pass runs. Untraced, the host-speed probe runs before
    each point and once after the pass; a point's scaled time uses the
    mean of the probe medians on either side of it, and a point gets
    more probes the longer it took in the previous pass. Traced, each
    pass gets its own :class:`layers.Tracer` and no probes (they would
    be profiled); with a profiler, it is on during the passes.
    """
    from layers import Tracer
    from pace import NOMINAL_PROBE_S, speed
    from repro.runner import map_points

    labels = [point.label for point in points]
    passes: List[Pass] = []
    last_wall: Dict[str, float] = {}
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        tracer = Tracer() if traced else None
        #: (position, probe median before, point wall) in execution order.
        timeline: List[tuple] = []

        def execute(task, tracer=tracer, timeline=timeline):
            index, point = task
            before = speed(last_wall.get(point.label, 0.0)) if tracer is None else None
            point_started = time.perf_counter()
            stats = work.execute(point, tracer)
            timeline.append((index, before, time.perf_counter() - point_started))
            return stats

        if profiler is not None:
            profiler.enable()
        pass_started = time.perf_counter()
        outcome = map_points(execute, list(enumerate(points)), workers=1, labels=labels,
                             progress=False, cache=False)
        wall = time.perf_counter() - pass_started
        if profiler is not None:
            profiler.disable()
        probes = [] if traced else (
            [entry[1] for entry in timeline] + [speed(timeline[-1][2] if timeline else 0.0)]
        )
        raw: List[Optional[float]] = [None] * len(points)
        scaled: List[Optional[float]] = [None] * len(points)
        for step, (index, _before, point_wall) in enumerate(timeline):
            raw[index] = last_wall[labels[index]] = point_wall
            if probes:
                scaled[index] = point_wall * 2 * NOMINAL_PROBE_S / (probes[step] + probes[step + 1])
        errors = {failure.index: failure.describe() for failure in outcome.failures}
        overhead = wall - sum(task for task in outcome.task_wall_s if task is not None)
        passes.append(Pass(outcome.results, errors, raw, scaled, overhead, wall, probes, tracer))
    return passes


def verify_passes(verifier, points, passes: List[Pass]) -> List[Optional[str]]:
    """Check every execution; returns the first pass's point digests."""
    first: List[Optional[str]] = []
    for number, run in enumerate(passes):
        for index, point in enumerate(points):
            digest = verifier.verify(point.label, run.results[index], run.errors.get(index, ""))
            if number == 0:
                first.append(digest)
    return first


def _median_point_times(passes: List[Pass], points, field: str) -> List[float]:
    """Per point (in pass order), the median of ``point_s`` or ``scaled_s``
    over every execution of that point: all passes, all of its copies."""
    samples: Dict[str, List[float]] = {}
    for run in passes:
        for point, value in zip(points, getattr(run, field)):
            if value is not None:
                samples.setdefault(point.label, []).append(value)
    return [statistics.median(samples[point.label]) for point in points
            if point.label in samples]


def _runner_overhead_s(passes: List[Pass]) -> float:
    return statistics.median(run.runner_overhead_s for run in passes)


def _per_pass_sum(passes: List[Pass], key: str) -> int:
    """A deterministic per-pass count: the sum over the first complete pass."""
    for run in passes:
        if all(result is not None for result in run.results):
            return sum(result.get(key, 0) for result in run.results)
    return 0


def end_to_end_metrics(passes, setup: List[Dict[str, float]], verifier, points):
    """(metrics, the same host times unscaled) of an untraced run."""
    from pace import NOMINAL_PROBE_S

    rpcs = _per_pass_sum(passes, "rpcs")
    overhead = _runner_overhead_s(passes)
    probes = [value for run in passes for value in run.probe_s]
    host_speed = NOMINAL_PROBE_S / statistics.median(probes)
    scaled = _median_point_times(passes, points, "scaled_s")
    walls = _median_point_times(passes, points, "point_s")
    metrics = {
        "sim_rpcs_per_s": rpcs / (sum(scaled) + overhead * host_speed),
        "slowest_point_s": max(scaled),
        "setup_s": statistics.median(sample["setup_s"] for sample in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "points_ok_frac": 1.0 - verifier.failed / max(verifier.attempted, 1),
    }
    raw = {
        "point_s": dict(zip([point.label for point in points], scaled)),
        "sim_rpcs_per_s": rpcs / (sum(walls) + overhead),
        "slowest_point_s": max(walls),
        "setup_s": statistics.median(sample["raw_setup_s"] for sample in setup),
        "host_speed": host_speed,
    }
    return metrics, raw


def _probe_misses() -> int:
    """Calibration-probe calls that missed their lru_cache in this process."""
    from repro.datacenter.fastdc import calibrated_profile_overhead_ns
    from repro.fastpath.fastchip import calibrated_chip_profile
    from repro.fastpath.fastcluster import calibrated_scheme_profile

    return sum(
        probe.cache_info().misses
        for probe in (calibrated_profile_overhead_ns, calibrated_chip_profile,
                      calibrated_scheme_profile)
    )


def per_layer_metrics(work, points, plain: List[Pass], traced: List[Pass], profiler,
                      micro: Dict[str, float], p99_errors: Dict[str, float]) -> Dict[str, float]:
    import pstats

    from layers import SHARE_GROUPS, self_shares

    def total(kind: str, key: str) -> int:
        return sum(stats.get(key, 0) for stats, point in zip(traced[0].results, points)
                   if stats is not None and point.kind == kind)

    def span_s(*names: str) -> float:
        return statistics.median(sum(run.tracer.total(name) for name in names)
                                 for run in traced)

    def calls(name: str):
        count = traced[0].tracer.calls[name][0] if name in traced[0].tracer.calls else 0
        seconds = statistics.median(
            run.tracer.calls[name][1] if name in run.tracer.calls else 0.0 for run in traced
        )
        return count, seconds

    shares = self_shares(pstats.Stats(profiler))
    metrics: Dict[str, float] = dict(micro)
    for group in SHARE_GROUPS:
        metrics[f"{group}.self_share"] = shares.get(group, 0.0)

    metrics["core.rpcs"] = total("chip", "rpcs")
    metrics["core.run_point_s"] = span_s("core.run_point")

    server_work = total("cluster", "server_completions")
    metrics["cluster.rpcs_offered"] = total("cluster", "offered")
    metrics["cluster.rpcs_lost"] = total("cluster", "lost")
    metrics["cluster.attempts"] = total("cluster", "attempts")
    metrics["cluster.useful_ratio"] = (
        total("cluster", "completed") / server_work if server_work else 0.0
    )
    metrics["cluster.run_s"] = span_s("cluster.run")

    metrics["rack.route_calls"], metrics["rack.route_s"] = calls("rack.route")
    route_calls, route_s = calls("datacenter.route")
    metrics["datacenter.route_calls"] = route_calls
    metrics["datacenter.route_s"] = route_s
    metrics["datacenter.route_per_s"] = route_calls / route_s if route_s > 0 else 0.0
    metrics["datacenter.jbsq_holds"] = total("dc", "jbsq_holds")

    metrics["fastpath.rpcs"] = total("dc", "fast_rpcs") + total("rack", "fast_rpcs")
    metrics["fastpath.run_s"] = span_s(
        "fastpath.simulate_datacenter_fast", "fastpath.simulate_rack_fast"
    )
    metrics["fast_p99_err"] = max(p99_errors.values())

    metrics["calib.probe_s"] = sum(work.probe_s.values())
    metrics["runner.overhead_s_per_point"] = _runner_overhead_s(plain) / len(points)
    metrics["trace.overhead_ratio"] = (
        statistics.median(sum(filter(None, run.point_s)) for run in traced)
        / statistics.median(sum(filter(None, run.point_s)) for run in plain)
    )
    return metrics


def _source_digest() -> str:
    """SHA-256 over the program and benchmark sources (works without git)."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts and RESULTS not in path.parents:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def _git(*args: str) -> Optional[str]:
    # The ceiling keeps git from answering for a repository above the
    # checkout when the checkout itself is not one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def provenance(cleared: Dict[str, str]) -> Dict[str, Any]:
    import numpy

    from repro.cache import resolve_cache
    from repro.runner import resolve_workers

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha is not None else None
    return {
        "git_sha": sha.strip() if sha else None,
        "dirty": bool(status.strip()) if status is not None else None,
        "source_sha256": _source_digest(),
        "workers": resolve_workers(1),
        "cache": "off" if resolve_cache(False) is None else "on",
        "cleared_env": cleared,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; nothing to run",
              file=sys.stderr)
        return 2
    cleared = clear_repro_env()
    sys.path.insert(0, str(ROOT / "src"))

    from scenarios import Workload, fast_p99_err, make_points
    from verify import DEFAULT_SEED, Verifier, combined_digest, load_expected

    work = Workload(args.workload)
    if args.setup_only:
        print(json.dumps(scaled_setup(work)))
        return 0

    setup = setup_samples(args.workload) if not args.trace else []
    setup.append(scaled_setup(work))
    points = make_points(args.workload, args.seed)
    reference = load_expected(args.workload) if args.seed == DEFAULT_SEED else None
    verifier = Verifier(reference)

    traced: List[Pass] = []
    raw: Dict[str, float] = {}
    if args.trace:
        import cProfile

        from layers import sim_micro_rates, write_trace

        micro = sim_micro_rates()
        plain = run_passes(work, points, args.seconds / 2)
        profiler = cProfile.Profile()
        traced = run_passes(work, points, args.seconds / 2, traced=True, profiler=profiler)
        probes = _probe_misses()  # before the DES check below runs its own probes
        p99_errors = fast_p99_err(args.seed)
    else:
        plain = run_passes(work, points, args.seconds)

    digests = verify_passes(verifier, points, plain + traced)
    digest = combined_digest(digests)
    point_digests = {point.label: value for point, value in zip(points, digests)}
    if args.trace:
        metrics = per_layer_metrics(work, points, plain, traced, profiler, micro, p99_errors)
        metrics["calib.probes"] = probes
        write_trace(RESULTS / f"trace-{args.workload}-seed{args.seed}.json",
                    [run.tracer for run in traced],
                    {"p99_errors": p99_errors, "probe_s": work.probe_s})
    else:
        metrics, raw = end_to_end_metrics(plain, setup, verifier, points)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": verifier.failed == 0,
        "attempted": verifier.attempted, "failed": verifier.failed,
        "metrics": metrics, "raw_metrics": raw,
        "digest": digest, "point_digests": point_digests,
        "points": len(points), "passes": [len(plain), len(traced)],
        "setup_samples": setup,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "provenance": provenance(cleared),
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with args.out.open("a") as handle:
        handle.write(json.dumps(record) + "\n")

    for failure in verifier.failures[:20]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed}: {len(points)} points x "
          f"{len(plain)}+{len(traced)} passes, {verifier.failed} of "
          f"{verifier.attempted} executions failed")
    print(f"digest {args.workload} seed={args.seed} {digest}")
    units = _units()
    print(json.dumps({
        "correct": record["correct"],
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "")}
                    for name, value in metrics.items()},
    }))
    return 0


def _units() -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"]
            for metric in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
