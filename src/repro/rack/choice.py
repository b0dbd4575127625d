"""The power-of-d kernel every routing layer composes.

"Draw d distinct candidates by popularity, take the least loaded, break
ties at random" is the one primitive behind the queueing routers, the
rack policies, the fast tier's JSQ(d) loop and the datacenter
schedulers (RackSched and JBSQ apply it twice: rack, then member). The
variate contract of these three functions is therefore the whole
routing contract: :func:`draw_index` makes one ``random()`` call per
draw, :func:`draw_distinct` one ``draw()`` per attempt (rejected
duplicates included, none when ``count`` reaches the pool), and
:func:`pick_min` one ``integers(0, k)`` call only when ``k > 1``
candidates tie. A leaf module: plain Python, no ``repro`` imports.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, List, Sequence, TypeVar

__all__ = ["draw_index", "draw_distinct", "pick_min"]

T = TypeVar("T")


def draw_index(cumulative: Sequence[float], random: Callable[[], float]) -> int:
    """One popularity draw: the index ``random()`` lands on in ``cumulative``.

    ``bisect_right`` over the cumulative weights (the value
    ``np.searchsorted(..., side="right")`` gives), clamped to the last
    index so rounding in the final weight can never overrun.
    """
    index = bisect_right(cumulative, random())
    last = len(cumulative) - 1
    return index if index < last else last


def draw_distinct(
    draw: Callable[[], T], count: int, pool: Sequence[T]
) -> Sequence[T]:
    """``count`` distinct ``draw()`` results, in first-seen order.

    Rejection sampling, cheap for small fan-outs. When ``count`` reaches
    ``len(pool)`` every candidate is wanted: ``pool`` itself comes back
    (callers must not mutate it) and ``draw`` is never called.
    """
    if count >= len(pool):
        return pool
    chosen: List[T] = []
    while len(chosen) < count:
        value = draw()
        if value not in chosen:
            chosen.append(value)
    return chosen


def pick_min(candidates: Sequence[T], score, integers) -> T:
    """The candidate with the least ``score[candidate]``; ties at random.

    ``score`` is any indexable (a list by node id, or a dict). Among
    ``k > 1`` tied candidates the ``integers(0, k)``-th in candidate
    order wins; a unique minimum draws nothing.
    """
    best = None
    tied: List[T] = []
    for candidate in candidates:
        value = score[candidate]
        if best is None or value < best:
            best = value
            tied = [candidate]
        elif value == best:
            tied.append(candidate)
    if len(tied) == 1:
        return tied[0]
    return tied[int(integers(0, len(tied)))]
