"""The power-of-d kernel every routing layer composes.

"Draw d distinct candidates by popularity, take the least loaded, break
ties at random" is the one primitive behind the queueing routers, the
rack policies (on the DES and the fast tier alike) and the datacenter
schedulers (RackSched and JBSQ apply it twice: rack, then member). The
variate contract of these three functions is therefore the whole
routing contract: :func:`draw_index` makes one ``random()`` call per
draw, :func:`draw_distinct` one ``draw()`` per attempt (rejected
duplicates included, none when ``count`` reaches the pool), and
:func:`pick_min` one ``integers(0, k)`` call only when ``k > 1``
candidates tie. :class:`Variates` serves both variate kinds from one
generator at plain-Python cost, value for value. A leaf module: no
``repro`` imports.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, List, Sequence, TypeVar

import numpy as np

__all__ = ["Variates", "draw_index", "draw_distinct", "pick_min"]

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


#: PCG64's ``next_double`` scale: the top 53 bits of a draw times 2**-53.
_TWO_M53 = 2.0**-53
#: Raw 64-bit draws fetched per refill.
_BLOCK = 256


class Variates:
    """The scalar ``random()`` / ``integers(low, high)`` stream of a
    PCG64 :class:`numpy.random.Generator`, value for value, at plain
    Python cost.

    A scalar numpy call pays microseconds of dispatch for one variate;
    routing makes one or two per RPC. This stream fetches the bit
    generator's raw 64-bit outputs in blocks (``random_raw``) and
    redoes numpy's arithmetic on them:

    * ``random()`` is PCG64's ``next_double``: ``(u >> 11) * 2**-53``;
    * ``integers(low, high)`` is numpy's 32-bit Lemire bounded draw over
      PCG64's buffered ``next_uint32`` (low half of a raw draw first,
      high half kept for the next call), rejection loop included; a
      single-value range draws nothing.

    The generator's own buffered half, if it holds one, is taken over.
    Once wrapped, the generator is read ahead by up to a block, so it
    must not be called directly again. Ranges wider than 2**32 are not
    served (numpy switches to a 64-bit draw there).
    """

    __slots__ = ("_raw", "_next", "_half")

    def __init__(self, rng: np.random.Generator) -> None:
        bit_generator = rng.bit_generator
        if type(bit_generator) is not np.random.PCG64:
            raise TypeError(
                f"Variates reproduces PCG64 only, got "
                f"{type(bit_generator).__name__}"
            )
        state = bit_generator.state
        self._raw = bit_generator.random_raw
        self._next = iter(()).__next__
        #: The kept high half of the last raw draw split for ``integers``.
        self._half = state["uinteger"] if state["has_uint32"] else None

    def _refill(self) -> int:
        """Fetch the next block; return its first raw draw."""
        self._next = iter(self._raw(_BLOCK).tolist()).__next__
        return self._next()

    def random(self) -> float:
        """One ``Generator.random()`` value."""
        try:
            raw = self._next()
        except StopIteration:
            raw = self._refill()
        return (raw >> 11) * _TWO_M53

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        try:
            raw = self._next()
        except StopIteration:
            raw = self._refill()
        self._half = raw >> 32
        return raw & 0xFFFFFFFF

    def integers(self, low: int, high: int) -> int:
        """One ``Generator.integers(low, high)`` value (``high`` excluded)."""
        span = high - low
        if span == 1:
            return low
        if not 1 < span <= 0x100000000:
            raise ValueError(
                f"integers needs 1 <= high - low <= 2**32, got [{low}, {high})"
            )
        product = self._uint32() * span
        if product & 0xFFFFFFFF < span:
            threshold = 0x100000000 % span
            while product & 0xFFFFFFFF < threshold:
                product = self._uint32() * span
        return low + (product >> 32)
