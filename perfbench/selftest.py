"""Self-tests of the benchmark's checks: each must catch what it guards.

Run from the repository root::

    python3 perfbench/selftest.py

Runs one real point of each kind at the default seed, confirms it
passes and matches its stored digest, then shows that a perturbed
statistic (one ulp on a p99), a conservation break, a short fault-free
run, an inverted percentile pair, a JBSQ bound breach and a raising
point are each caught. Also checks the comparison verdicts on made-up
run sets. Exits 1 if any case is not caught.
"""

from __future__ import annotations

import copy
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cases(stats: dict):
    """(name, mutate) pairs; each mutation must make the point fail."""

    def bump_p99(s):
        s["latency"]["p99"] = math.nextafter(s["latency"]["p99"], math.inf)

    def lose_one(s):
        s["lost"] += 1

    def short_run(s):
        s["completed"] -= 1
        s["offered"] -= 1

    def invert(s):
        s["latency"]["p50"] = s["latency"]["p99"] * 2.0

    def breach_bound(s):
        s["bound_k"] = s.get("bound_k") or 20
        s["max_outstanding"] = s["bound_k"] + 1

    yield "perturbed statistic (p99 + 1 ulp)", bump_p99
    yield "conservation break (lost + 1)", lose_one
    yield "fault-free point short of requested", short_run
    yield "p50 > p99", invert
    yield "JBSQ max outstanding > k", breach_bound


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from compare import verdict
    from scenarios import WORKLOADS, Workload, make_points
    from verify import DEFAULT_SEED, Verifier, load_expected

    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        expected = load_expected(workload) or {}
        points = make_points(workload, DEFAULT_SEED)
        expect(set(expected) == {point.label for point in points},
               f"{workload}: stored digests cover exactly its points")
        work = Workload(workload)
        work.setup()
        seen = set()
        for point in points:
            if point.kind in seen:
                continue
            seen.add(point.kind)
            stats = work.execute(point)
            verifier = Verifier(expected)
            verifier.verify(point.label, stats)
            expect(verifier.failed == 0, f"{point.label}: passes, digest as stored")
            for name, mutate in _cases(stats):
                broken = copy.deepcopy(stats)
                mutate(broken)
                verifier = Verifier(expected)
                verifier.verify(point.label, broken)
                expect(verifier.failed == 1, f"{point.label}: caught {name}")
            verifier = Verifier(expected)
            verifier.verify(point.label, None, "RuntimeError: boom")
            expect(verifier.failed == 1, f"{point.label}: caught a raising point")

    parent = [100.0 + step for step in range(10)]
    expect(verdict(parent, [value * 1.5 for value in parent], 10, 10, True, 0.1) == "improved",
           "compare: a 1.5x faster change that wins every pair is improved")
    expect(verdict(parent, [value * 0.8 for value in parent], 0, 10, True, 0.1) == "regressed",
           "compare: a 20% slower change is regressed at a 10% bound")
    expect(verdict(parent, list(parent), 0, 10, True, 0.1) == "unchanged",
           "compare: identical runs are unchanged")
    noisy = [50.0, 150.0] * 5
    expect(verdict(noisy, list(noisy), 0, 10, True, 0.1) == "unresolved",
           "compare: runs noisier than the bound are unresolved")

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
