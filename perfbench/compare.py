"""Paired comparison of two run sets, one row per workload x end-to-end metric.

Usage (from the repository root)::

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the run records ``perfbench/run.py`` appends (``--out``).
Untraced records of the same workload and seed form a pair. For each
end-to-end metric of ``BENCHMARK.json`` the table gives both medians
and quartiles, the parent's interquartile range, the share of pairs the
change won (ties count for neither side), and a verdict:

* ``regressed`` — the change's median is worse than the parent's by
  more than the metric's bound;
* ``improved`` — at least ten pairs, the change won at least nine tenths
  of them, and the medians differ by more than the parent's IQR;
* ``unresolved`` — the parent's own spread (IQR) is wider than the
  bound, so "unchanged" cannot be told apart from noise, unless every
  run of the change reads better than every run of the parent;
* ``unchanged`` — otherwise.

The exit status is 1 when any row regressed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: Path) -> Dict[Tuple[str, int], List[dict]]:
    """Untraced records keyed by (workload, seed), in file order."""
    runs: Dict[Tuple[str, int], List[dict]] = defaultdict(list)
    with path.open() as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if record["trace"] == 0:
                    runs[(record["workload"], record["seed"])].append(record)
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: Sequence[float], change: Sequence[float], wins: int, pairs: int,
            higher_is_better: bool, bound: float) -> str:
    sign = 1.0 if higher_is_better else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    _c_q1, c_med, _c_q3 = quartiles(change)
    gain = sign * (c_med - p_med)
    if -gain > bound * abs(p_med):
        return "regressed"
    if pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and gain > p_q3 - p_q1:
        return "improved"
    all_better = min(sign * value for value in change) > max(sign * value for value in parent)
    if p_q3 - p_q1 > bound * abs(p_med) and not all_better:
        return "unresolved"
    return "unchanged"


def compare(parent_path: Path, change_path: Path, spec: dict) -> List[List[str]]:
    parent_runs = load_runs(parent_path)
    change_runs = load_runs(change_path)
    workloads = sorted({workload for workload, _seed in parent_runs}
                       & {workload for workload, _seed in change_runs})
    rows = []
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            higher = metric["better"] == "higher"
            parent: List[float] = []
            change: List[float] = []
            wins = pairs = 0
            for (run_workload, seed), records in sorted(parent_runs.items()):
                if run_workload != workload:
                    continue
                others = change_runs.get((workload, seed), [])
                for before, after in zip(records, others):
                    old = before["metrics"][name]
                    new = after["metrics"][name]
                    parent.append(old)
                    change.append(new)
                    pairs += 1
                    wins += (new > old) if higher else (new < old)
            if not pairs:
                continue
            p_q1, p_med, p_q3 = quartiles(parent)
            c_q1, c_med, c_q3 = quartiles(change)
            delta = (c_med - p_med) / p_med if p_med else float("nan")
            rows.append([
                workload, name, metric["unit"],
                f"{p_med:.5g} [{p_q1:.5g}, {p_q3:.5g}]",
                f"{c_med:.5g} [{c_q1:.5g}, {c_q3:.5g}]",
                f"{p_q3 - p_q1:.3g}", f"{delta:+.2%}", f"{wins}/{pairs}",
                f"{metric['bound']:g}",
                verdict(parent, change, wins, pairs, higher, metric["bound"]),
            ])
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", type=Path, help="run records of the parent commit")
    parser.add_argument("change", type=Path, help="run records of the change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(args.parent, args.change, spec)
    if not rows:
        print("compare: no (workload, seed) pairs in common", file=sys.stderr)
        return 2
    header = ["workload", "metric", "unit", "parent median [q1, q3]",
              "change median [q1, q3]", "parent IQR", "delta", "pairs won",
              "bound", "verdict"]
    widths = [max(len(str(row[col])) for row in rows + [header]) for col in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)).rstrip())
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
