"""Zipf popularity: per-source and per-key skew for destination choice.

Real RPC traffic is not uniform — a few tenants (sources) and a few
keys (destinations) carry most of the load, and that is exactly where
hash-based static placement (RSS-style spraying) concentrates queueing.
This module holds the Zipf machinery the simulator layers onto source
selection and the popularity model the tests check against:

* :func:`zipf_weights` — the normalized ``1/rank^α`` mass vector the
  ``TrafficGenerator``'s ``source_skew`` builds on. The rack's
  :class:`~repro.rack.policies.ZipfDestinations` and the datacenter
  schedulers' rack popularity compute the same ``1/rank^α`` weights
  themselves, normalized per client or with the last cumulative weight
  pinned to 1.0, so their bits differ from a re-normalized
  ``zipf_weights`` vector.
* :class:`ZipfPopularity` — an icarus-style stationary popularity
  model with the analytic pmf and head-mass helpers the tests check
  sampled frequencies against.
"""

from __future__ import annotations

import numpy as np

__all__ = ["zipf_weights", "ZipfPopularity"]


def zipf_weights(num_items: int, alpha: float) -> np.ndarray:
    """Normalized Zipf mass over ranks 1..num_items: ``p_k ∝ 1/k^α``.

    ``alpha = 0`` is the uniform distribution; larger values
    concentrate mass on low ranks. Matches the historical
    ``TrafficGenerator`` source-skew weights bit-for-bit.
    """
    if num_items <= 0:
        raise ValueError(f"num_items must be positive, got {num_items!r}")
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha!r}")
    weights = 1.0 / np.arange(1, num_items + 1, dtype=float) ** alpha
    return weights / weights.sum()


class ZipfPopularity:
    """Stationary Zipf popularity over ``num_items`` ranked items.

    Rank 1 is the most popular item. ``sample_array`` draws item
    *indices* (0-based, index = rank - 1), ready to index nodes, keys,
    or tenants.
    """

    def __init__(self, num_items: int, alpha: float) -> None:
        self._pmf = zipf_weights(num_items, alpha)
        self.num_items = int(num_items)
        self.alpha = float(alpha)

    @property
    def pmf(self) -> np.ndarray:
        """Probability of each item, most popular first (copies)."""
        return self._pmf.copy()

    def head_mass(self, k: int) -> float:
        """Total probability mass of the ``k`` most popular items."""
        if not 0 <= k <= self.num_items:
            raise ValueError(
                f"k must be in [0, {self.num_items}], got {k!r}"
            )
        return float(self._pmf[:k].sum())

    def sample(self, rng: np.random.Generator) -> int:
        """Draw one 0-based item index."""
        return int(rng.choice(self.num_items, p=self._pmf))

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` 0-based item indices in one vectorized call."""
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n!r}")
        return rng.choice(self.num_items, size=n, p=self._pmf)

    def __repr__(self) -> str:
        return (
            f"<ZipfPopularity n={self.num_items} alpha={self.alpha:g} "
            f"head(1)={self.head_mass(1):.3f}>"
        )
