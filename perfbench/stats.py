"""Summary statistics and digests used by the benchmark (stdlib only)."""

from __future__ import annotations

import hashlib
import json

#: Candidate percentiles in tenths of a percent, highest first.
PERCENTILES_PERMILLE = (999, 990, 950, 900, 750, 500)
#: A percentile is only reported with at least this many samples beyond it.
MIN_BEYOND = 10


def highest_percentile(count: int):
    """The highest candidate percentile (in per mille) that has at least
    :data:`MIN_BEYOND` of ``count`` samples beyond it, or ``None``."""
    for permille in PERCENTILES_PERMILLE:
        if count * (1000 - permille) >= MIN_BEYOND * 1000:
            return permille
    return None


def percentile(values, permille: int) -> float:
    """Nearest-rank percentile: ``p75`` of 40 samples leaves 10 beyond it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = -(-permille * len(ordered) // 1000)  # ceil without floats
    return ordered[max(rank, 1) - 1]


def digest(records) -> str:
    """Short stable hash of JSON-serialisable simulated statistics."""
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
