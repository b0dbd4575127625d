#!/usr/bin/env python
"""Print per-figure wall-clock deltas between the last two bench runs.

``benchmarks/conftest.py`` embeds the prior payload under ``previous``
in ``bench_timings.json``; this script renders the two side by side:

    $ python benchmarks/compare_timings.py
    figure            previous   current     delta
    run_headline       18.517s    1.892s    -89.8%  (9.79x faster)
    ...

Repeatable ``--budget NAME=SECONDS`` flags enforce absolute wall
budgets on individual figures (e.g. ``--budget run_diurnal=1.0`` keeps
the fast-tier diurnal smoke under a second regardless of history) and
exit non-zero when one is exceeded.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

DEFAULT_PATH = pathlib.Path(__file__).parent / "output" / "bench_timings.json"


def _parse_budget(spec: str):
    name, sep, seconds = spec.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"expected NAME=SECONDS, got {spec!r}"
        )
    try:
        limit = float(seconds)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"budget for {name!r} is not a number: {seconds!r}"
        ) from None
    if limit <= 0:
        raise argparse.ArgumentTypeError(f"budget for {name!r} must be > 0")
    return name, limit


def _speed_note(prev_s: float, cur_s: float) -> str:
    if cur_s <= 0 or prev_s <= 0:
        return ""
    ratio = prev_s / cur_s
    if ratio >= 1.05:
        return f"({ratio:.2f}x faster)"
    if ratio <= 0.95:
        return f"({1 / ratio:.2f}x slower)"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "path",
        nargs="?",
        default=DEFAULT_PATH,
        type=pathlib.Path,
        help=f"timings file (default: {DEFAULT_PATH})",
    )
    parser.add_argument(
        "--budget",
        action="append",
        type=_parse_budget,
        default=[],
        metavar="NAME=SECONDS",
        help=(
            "exit 1 if figure NAME's current wall clock exceeds SECONDS "
            "(repeatable); a missing figure also fails"
        ),
    )
    args = parser.parse_args(argv)

    try:
        current = json.loads(args.path.read_text())
    except OSError as error:
        print(f"cannot read {args.path}: {error}", file=sys.stderr)
        return 2
    previous = current.get("previous")
    if not isinstance(previous, dict):
        print(f"{args.path} has no embedded previous run; nothing to compare")
        return _check_budgets(args.budget, current.get("wall_clock_s", {}))

    def _meta(payload):
        return (
            f"profile={payload.get('profile')} workers={payload.get('workers')} "
            f"sha={payload.get('git_sha')} at={payload.get('timestamp')}"
        )

    print(f"previous: {_meta(previous)}")
    print(f"current:  {_meta(current)}")
    if previous.get("profile") != current.get("profile") or previous.get(
        "workers"
    ) != current.get("workers"):
        print("warning: profile/workers differ; deltas are not like-for-like")
    print()

    prev_times = previous.get("wall_clock_s", {})
    cur_times = current.get("wall_clock_s", {})
    names = sorted(set(prev_times) | set(cur_times))
    width = max((len(name) for name in names), default=6)
    print(f"{'figure':<{width}}  {'previous':>9}  {'current':>9}  {'delta':>8}")
    for name in names:
        prev_s = prev_times.get(name)
        cur_s = cur_times.get(name)
        if prev_s is None or cur_s is None:
            status = "new" if prev_s is None else "removed"
            prev_cell = "-" if prev_s is None else f"{prev_s:.3f}s"
            cur_cell = "-" if cur_s is None else f"{cur_s:.3f}s"
            print(f"{name:<{width}}  {prev_cell:>9}  {cur_cell:>9}  {status:>8}")
            continue
        delta = (cur_s - prev_s) / prev_s * 100 if prev_s > 0 else 0.0
        note = _speed_note(prev_s, cur_s)
        print(
            f"{name:<{width}}  {prev_s:>8.3f}s  {cur_s:>8.3f}s  "
            f"{delta:>+7.1f}%  {note}".rstrip()
        )
    total_prev = sum(v for k, v in prev_times.items() if k in cur_times)
    total_cur = sum(v for k, v in cur_times.items() if k in prev_times)
    if total_prev > 0:
        print(
            f"\n{'total (common)':<{width}}  {total_prev:>8.3f}s  "
            f"{total_cur:>8.3f}s  "
            f"{(total_cur - total_prev) / total_prev * 100:>+7.1f}%"
        )
    return _check_budgets(args.budget, cur_times)


def _check_budgets(budgets, cur_times) -> int:
    """Return 1 (and print to stderr) if any figure exceeds its budget."""
    over_budget = []
    for name, limit in budgets:
        cur_s = cur_times.get(name)
        if cur_s is None:
            over_budget.append(f"{name} (missing from current run)")
        elif cur_s > limit:
            over_budget.append(f"{name} ({cur_s:.3f}s > {limit:g}s)")
    if over_budget:
        print(
            "\nbudgets exceeded: " + ", ".join(over_budget),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
