"""Exact multiply counters for complexity benchmarking.

Counts are pure integer bookkeeping; because no sampling or timing is
involved, totals are bit-reproducible across runs and platforms.  Each
kernel increments its labeled sub-counter by a closed-form count of its
defining sums (fused multiply-adds count as one multiply, additions are
free), under the following cost model:

* ``so2_linear``: literal multiplies; a complex channel product is 4.
* ``so2_tp``: literal multiplies; one complex pair product is 4.
* ``frame_rotation``: the degree-based operation model in which rotating
  a degree-l block costs l^2 per channel (degree-0 blocks are rotation
  invariant and cost nothing).
* ``so3_tp``: the same degree-based model; a Clebsch-Gordan path
  (l1, l2, l3) costs max(1, l1*l2*l3) per channel (the path-weight
  product is folded into the path cost).

The degree-based model is the one the asymptotic complexity statements
quantify (l^2 to rotate a degree-l irrep, hence L^3 summed; L^6 for the
full tensor product); counting dense (2l+1)-dimensional matrix products
instead only shifts every count by bounded constants without changing
the asymptotics.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class OpCounter:
    """Monotone multiply counter with labeled per-kernel sub-counters."""

    counts: dict[str, int] = field(default_factory=dict)

    def add(self, kernel: str, n: int) -> None:
        if n < 0:
            raise ValueError(f"counter increment must be non-negative, got {n}")
        self.counts[kernel] = self.counts.get(kernel, 0) + int(n)

    def get(self, kernel: str) -> int:
        return self.counts.get(kernel, 0)
