"""Output checks: per-point invariants and digests of simulated statistics.

A point passes when it returned, its statistics satisfy the invariants
below, and its digest equals the reference for that point:

* offered = completed + lost (logical RPCs are conserved);
* completed = requested on fault-free points;
* every latency summary has finite p50 <= p99;
* JBSQ(k) points never let a server's outstanding count exceed k.

The digest is a SHA-256 of the point's statistics with every float in
``float.hex`` form, so a change in the last bit of any statistic shows.
The reference is the stored digest for the default seed
(``expected_digests.json``), the first pass's digest otherwise: every
later pass, and the traced run, must reproduce it exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional

EXPECTED_PATH = Path(__file__).with_name("expected_digests.json")

#: The seed whose digests are stored in ``expected_digests.json``.
DEFAULT_SEED = 0


def _canonical(value: Any) -> Any:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def point_digest(stats: Dict[str, Any]) -> str:
    """Digest of one point's simulated statistics (16 hex digits)."""
    text = json.dumps(_canonical(stats), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def combined_digest(digests: List[Optional[str]]) -> str:
    """One digest for a whole pass (point order matters)."""
    text = ",".join(digest or "-" for digest in digests)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_point(stats: Dict[str, Any]) -> List[str]:
    """Invariant violations of one point's statistics (empty if none)."""
    errors = []
    if stats["offered"] != stats["completed"] + stats["lost"]:
        errors.append(
            f"offered {stats['offered']} != completed {stats['completed']} "
            f"+ lost {stats['lost']}"
        )
    if stats["fault_free"] and stats["completed"] != stats["requested"]:
        errors.append(
            f"fault-free point completed {stats['completed']} of "
            f"{stats['requested']} requested"
        )
    for name in ("latency", "e2e_latency"):
        summary = stats.get(name)
        if summary is None:
            continue
        p50, p99 = summary["p50"], summary["p99"]
        if not (math.isfinite(p50) and math.isfinite(p99) and p50 <= p99):
            errors.append(f"{name}: need finite p50 <= p99, got {p50!r}, {p99!r}")
    bound = stats.get("bound_k")
    if bound is not None and stats["max_outstanding"] > bound:
        errors.append(f"JBSQ max outstanding {stats['max_outstanding']} > k={bound}")
    return errors


def load_expected(workload: str) -> Optional[Dict[str, str]]:
    """Stored default-seed digests of ``workload``, label -> digest."""
    if not EXPECTED_PATH.is_file():
        return None
    stored = json.loads(EXPECTED_PATH.read_text())
    return stored.get(workload, {}).get("points")


class Verifier:
    """Checks every execution of every point against one reference.

    ``reference`` maps point label to expected digest; labels missing
    from it take the first digest seen, so later passes must repeat it.
    """

    def __init__(self, reference: Optional[Dict[str, str]] = None) -> None:
        self.reference: Dict[str, str] = dict(reference or {})
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def verify(self, label: str, stats: Optional[Dict[str, Any]], error: str = "") -> Optional[str]:
        """Check one execution; returns its digest (None if it raised)."""
        self.attempted += 1
        if stats is None:
            self._fail(label, error or "point raised")
            return None
        digest = point_digest(stats)
        problems = check_point(stats)
        expected = self.reference.setdefault(label, digest)
        if digest != expected:
            problems.append(f"digest {digest} != expected {expected}")
        if problems:
            self._fail(label, "; ".join(problems))
        return digest

    def _fail(self, label: str, why: str) -> None:
        self.failed += 1
        self.failures.append(f"{label}: {why}")
