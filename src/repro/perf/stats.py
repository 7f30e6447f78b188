"""Robust summaries for small wall-clock sample sets.

Bench repeats are few (5-10) and wall-clock noise is heavy-tailed
(GC pauses, frequency scaling, a neighbouring CI job), so the harness
summarises with order statistics — median and MAD — rather than mean
and stddev, and attaches a bootstrap confidence interval so a snapshot
records how trustworthy its own central estimate is.

Everything here is deterministic: the bootstrap resamples with a fixed
xorshift stream, so re-summarising the same samples reproduces the
same interval bit-for-bit.
"""

from __future__ import annotations

from typing import Sequence

#: Resamples drawn for the bootstrap interval.  Enough for a stable
#: 90% interval over <=16 repeats; cheap either way.
BOOTSTRAP_RESAMPLES = 512


def median(samples: Sequence[float]) -> float:
    """Plain median (mean of the middle pair for even counts)."""
    if not samples:
        raise ValueError("median of an empty sample set")
    s = sorted(samples)
    n = len(s)
    mid = n // 2
    if n % 2:
        return float(s[mid])
    return (s[mid - 1] + s[mid]) / 2.0


def mad(samples: Sequence[float], center: float | None = None) -> float:
    """Median absolute deviation around ``center`` (default: the median).

    Reported raw (no 1.4826 normal-consistency factor): the sentinel's
    ``k * MAD`` threshold is calibrated against the raw statistic.
    """
    if not samples:
        raise ValueError("mad of an empty sample set")
    c = median(samples) if center is None else center
    return median([abs(x - c) for x in samples])


def percentile(sorted_values: Sequence[float], q: float) -> float | None:
    """Nearest-rank ``q``-quantile of an ascending list (None when empty)."""
    if not sorted_values:
        return None
    rank = max(1, int(round(q * len(sorted_values) + 0.5)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


class _Xorshift:
    """Tiny deterministic PRNG so the bootstrap needs no global seeding."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = (seed or 0x9E3779B9) & 0xFFFFFFFF

    def next_below(self, n: int) -> int:
        x = self.state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self.state = x
        return x % n


def bootstrap_ci(
    samples: Sequence[float],
    *,
    confidence: float = 0.90,
    resamples: int = BOOTSTRAP_RESAMPLES,
    seed: int = 0x51AB,
) -> tuple[float, float]:
    """Percentile bootstrap interval for the median of ``samples``."""
    if not samples:
        raise ValueError("bootstrap over an empty sample set")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    n = len(samples)
    if n == 1:
        return (float(samples[0]), float(samples[0]))
    rng = _Xorshift(seed)
    medians = []
    for _ in range(resamples):
        draw = [samples[rng.next_below(n)] for _ in range(n)]
        medians.append(median(draw))
    medians.sort()
    alpha = (1.0 - confidence) / 2.0
    lo = medians[int(alpha * (resamples - 1))]
    hi = medians[int((1.0 - alpha) * (resamples - 1))]
    return (float(lo), float(hi))


def summarize(samples: Sequence[float], *, confidence: float = 0.90) -> dict:
    """JSON-ready robust digest of one case's repeat timings."""
    m = median(samples)
    lo, hi = bootstrap_ci(samples, confidence=confidence)
    return {
        "repeats": len(samples),
        "median": m,
        "mad": mad(samples, m),
        "mean": sum(samples) / len(samples),
        "min": min(samples),
        "max": max(samples),
        "ci": [lo, hi],
        "ci_confidence": confidence,
    }
