"""A sequential, paired ratio gate for timing benches.

A gate such as "the gateway costs < 1.3x the raw engine" compares two
timings taken on a shared machine whose speed drifts for seconds at a
time. Timing all of one arm and then all of the other lets that drift
land on one arm only, so the verdict follows the host, not the code.

:func:`paired_ratio_gate` instead measures the two arms back to back in
pairs (the caller alternates which arm goes first), so drift slower
than one pair cancels within it, and gates on the per-pair ratios. It
keeps adding pairs until a distribution-free confidence interval for
the median ratio lies entirely on one side of the gate; if that never
happens within the pair budget, the true ratio is too close to the
gate to resolve and the median decides.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable, List, Tuple

__all__ = ["GateResult", "median_interval", "paired_ratio_gate"]


def median_interval(
    values: List[float], alpha: float
) -> Tuple[float, float]:
    """Order-statistic confidence interval for the median.

    With the sorted values ``x(1) <= ... <= x(n)``, ``[x(k), x(n-k+1)]``
    covers the true median with probability at least ``1 - alpha`` for
    the largest ``k`` whose binomial tail ``P(Bin(n, 1/2) < k)`` is at
    most ``alpha / 2``. No distribution is assumed. When even ``k = 1``
    is too narrow (tiny ``n``) the interval is unbounded.
    """
    n = len(values)
    ordered = sorted(values)
    k = 0
    tail = 0.0
    for j in range(n):
        # tail = P(Bin(n, 1/2) <= j) once this term is added
        tail += math.comb(n, j) / 2.0**n
        if tail > alpha / 2.0:
            break
        k = j + 1
    if k == 0:
        return float("-inf"), float("inf")
    return ordered[k - 1], ordered[n - k]


@dataclass(frozen=True)
class GateResult:
    """The verdict and the evidence behind it."""

    passed: bool
    median: float
    low: float
    high: float
    ratios: Tuple[float, ...]
    confident: bool

    def describe(self, gate: float) -> str:
        how = "confident" if self.confident else "undecided, median rules"
        return (
            f"median ratio {self.median:.3f}x over {len(self.ratios)} "
            f"pairs, CI [{self.low:.3f}, {self.high:.3f}] vs gate "
            f"{gate}x ({how})"
        )


def paired_ratio_gate(
    measure_pair: Callable[[int], float],
    gate: float,
    *,
    first: int = 8,
    step: int = 4,
    most: int = 40,
    alpha: float = 0.01,
) -> GateResult:
    """Collect per-pair ratios until their median is confidently on one
    side of ``gate``.

    ``measure_pair(i)`` measures one interleaved pair and returns its
    ratio (the arm under test over the reference); it should swap the
    order of the two arms on odd ``i``. The gate passes when the median
    ratio is below ``gate``. ``alpha`` is split evenly over the looks
    at the data, so repeating until confident does not inflate the
    error rate.
    """
    if not 0 < first <= most or step < 1:
        raise ValueError("need 0 < first <= most and step >= 1")
    looks = 1 + math.ceil((most - first) / step)
    per_look = alpha / looks
    ratios: List[float] = []
    target = first
    while True:
        while len(ratios) < target:
            ratios.append(measure_pair(len(ratios)))
        low, high = median_interval(ratios, per_look)
        median = statistics.median(ratios)
        if high < gate or low >= gate:
            return GateResult(
                high < gate, median, low, high, tuple(ratios), True
            )
        if len(ratios) >= most:
            return GateResult(
                median < gate, median, low, high, tuple(ratios), False
            )
        target = min(target + step, most)
