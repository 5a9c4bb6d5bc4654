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
  invariant and cost nothing); a block with order 0 alone, rotated out
  of a frame, is one row of that rotation and costs l per channel.
* ``so3_tp``: the same degree-based model; a Clebsch-Gordan path
  (l1, l2, l3) costs max(1, l1*l2*l3) per channel (the path-weight
  product is folded into the path cost).

The degree-based model is the one the asymptotic complexity statements
quantify (l^2 to rotate a degree-l irrep, hence L^3 summed; L^6 for the
full tensor product); counting dense (2l+1)-dimensional matrix products
instead only shifts every count by bounded constants without changing
the asymptotics.

Counting is ambient: kernels call :func:`count`, which adds to the counter
of the innermost ``with counting(counter):`` block and does nothing outside
one.  The active counter is a :class:`contextvars.ContextVar`, so threads
count apart and an uncounted kernel call costs one context lookup.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
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


_active: ContextVar[OpCounter | None] = ContextVar("so2frames_counter", default=None)


@contextmanager
def counting(counter: OpCounter | None):
    """Count the kernels run inside the block into ``counter`` (None counts
    nothing); the enclosing counter is restored on exit."""
    token = _active.set(counter)
    try:
        yield
    finally:
        _active.reset(token)


def count(kernel: str, n: int) -> None:
    """Add ``n`` multiplies of ``kernel`` to the active counter, if any."""
    active = _active.get()
    if active is not None:
        active.add(kernel, n)
