"""Shared experiment infrastructure: profiles, results, loads.

Every experiment driver runs under a *profile*:

* ``quick`` — small request counts; minutes-scale total across all
  experiments; used by the test suite and pytest-benchmark harness;
* ``full`` — publication-scale counts for the numbers recorded in
  EXPERIMENTS.md.

Drivers return an :class:`ExperimentResult` whose ``table()`` renders
the same rows/series the paper's figure plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, List

import numpy as np

__all__ = [
    "Profile",
    "PROFILES",
    "ExperimentResult",
    "load_grid",
    "calibrate_mean_service_ns",
]


@dataclass(frozen=True)
class Profile:
    """Request-count and grid-resolution knobs for one run."""

    name: str
    #: Requests per load point for the theoretical queueing models.
    queueing_requests: int
    #: Requests per load point for the architectural simulator.
    arch_requests: int
    #: Number of load points per sweep.
    sweep_points: int
    #: Warmup fraction trimmed from every measurement.
    warmup_fraction: float = 0.1


PROFILES: Dict[str, Profile] = {
    "smoke": Profile("smoke", queueing_requests=20_000, arch_requests=3_000, sweep_points=5),
    "quick": Profile("quick", queueing_requests=60_000, arch_requests=8_000, sweep_points=8),
    "full": Profile("full", queueing_requests=400_000, arch_requests=40_000, sweep_points=12),
}


def get_profile(profile: str) -> Profile:
    try:
        return PROFILES[profile]
    except KeyError:
        raise ValueError(
            f"unknown profile {profile!r}; expected one of {sorted(PROFILES)}"
        ) from None


def load_grid(low: float, high: float, points: int) -> List[float]:
    """Evenly spaced load points in [low, high]."""
    if not 0 < low < high:
        raise ValueError(f"need 0 < low < high, got [{low!r}, {high!r}]")
    if points < 2:
        raise ValueError(f"need at least 2 points, got {points!r}")
    return list(np.linspace(low, high, points))


def capacity_grid(capacity: float, points: int) -> List[float]:
    """Load points for saturation-seeking sweeps.

    Linear coverage of the low/mid range plus a dense cluster just
    below and at capacity — where throughput-under-SLO differences
    between schemes actually resolve (a coarse uniform grid makes two
    schemes that saturate at 0.92 and 0.99 of capacity look identical).
    """
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity!r}")
    if points < 4:
        raise ValueError(f"need at least 4 points, got {points!r}")
    top_fractions = [0.88, 0.94, 1.0]
    low_points = max(points - len(top_fractions), 1)
    fractions = list(np.linspace(0.2, 0.8, low_points)) + top_fractions
    return [fraction * capacity for fraction in fractions]


@lru_cache(maxsize=None)
def calibrate_mean_service_ns(
    workload: str, scheme: str, seed: int, num_requests: int = 2_000
) -> float:
    """Measured S̄ for ``workload`` under ``scheme`` at light load.

    Several figure drivers (Fig. 7/8/9, headline) calibrate offered-load
    grids with an identical light-load probe run; memoizing on
    ``(workload, scheme, seed, num_requests)`` makes repeated figures in
    one process pay for it once. Keyed on the scheme because measured S̄
    includes scheme-imposed dequeue overheads.

    The probe takes the fast tier's calibration route,
    :func:`repro.fastpath.calibrate.run_calibration` (one
    ``map_points`` task), so it also consults the on-disk result cache
    across processes when caching is enabled.
    """
    from ..core import make_system
    from ..core.system import run_point_task
    from ..fastpath.calibrate import run_calibration

    system = make_system(scheme, workload, seed=seed)
    result = run_calibration(
        run_point_task,
        (system, 1.0, num_requests, 0.1, system.seed),
        f"calibrate {scheme}/{workload} (seed {seed})",
    )
    return result.mean_service_ns


@dataclass
class ExperimentResult:
    """Output of one experiment driver."""

    experiment_id: str
    title: str
    #: Structured payload (sweeps, ratios, ...), driver-specific.
    data: Dict[str, Any] = field(default_factory=dict)
    #: Pre-rendered tables, in print order.
    tables: List[str] = field(default_factory=list)
    #: Headline findings, e.g. "1x16 beats 16x1 by 1.21x under SLO".
    findings: List[str] = field(default_factory=list)

    def table(self) -> str:
        """All tables plus findings as one printable block."""
        parts = [f"== {self.experiment_id}: {self.title} =="]
        parts.extend(self.tables)
        if self.findings:
            parts.append("Findings:")
            parts.extend(f"  - {finding}" for finding in self.findings)
        return "\n".join(parts)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.table()
