"""Percentiles in pure Python, so the set-up probe imports no NumPy before its clock starts."""

from __future__ import annotations

# percentiles a tail may be reported at
LADDER = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks, as numpy.percentile's default."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_pct(count: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it (p50 below 20 samples)."""
    best = LADDER[0]
    for p in LADDER:
        if count * (1.0 - p / 100.0) >= 10.0:
            best = p
    return best


def beyond(count: int, pct: float) -> int:
    """Number of samples above the given percentile."""
    return int(count * (1.0 - pct / 100.0))
