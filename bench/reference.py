"""A fixed piece of work timed beside every epoch: the box's speed.

This box (2 virtual CPUs on a shared host) runs the same code up to half
as slow again for minutes at a time.  That is
common to every epoch of a run, so a longer run does not average it out,
and it is larger than the largest regression bound a benchmark may set.

So the untraced run times one *pass* of fixed work after every epoch and
reports each time as ``measured * NOMINAL_NS / pass time nearby``: what
the epoch would have taken at the speed the box has when quiet.  In ten
runs of ``tt_costonly_32k`` during which a pass took 1.01-1.56 of its
nominal time, the quartiles of ``epoch_ms_p50`` were 23.8% of the median
apart as measured and 5.9% at nominal speed (``server_full_64k``: 9.6%
and 1.5%); in a quiet hour the two are alike.  ``bench/README.md`` has
the table.

The per-layer numbers of the traced run are not scaled: they are shares
and ratios within one run.
"""

from __future__ import annotations

import hashlib
import hmac
import random
import statistics
from time import perf_counter_ns
from typing import List, Sequence

#: One pass on the box this benchmark was written on, when quiet.
NOMINAL_NS = 600_000


class Reference:
    """Keyed hashing and interpreter steps over a list small enough to
    stay in the cache, so that a pass feels the processor's speed and
    not what the program last did to the cache."""

    def __init__(self) -> None:
        self.walk = list(range(1 << 12))
        random.Random(1).shuffle(self.walk)

    def run(self) -> int:
        """Time one pass, in nanoseconds, after one to warm the cache."""
        for timed in (False, True):
            started = perf_counter_ns()
            key, message, sha256 = b"k" * 32, b"m" * 40, hashlib.sha256
            for __ in range(250):
                hmac.new(key, message, sha256).digest()
            walk, at = self.walk, 0
            for __ in range(10_000):
                at = walk[at]
        return perf_counter_ns() - started


def at_nominal_speed(
    times_ns: Sequence[int], passes_ns: Sequence[int], reach: int = 4
) -> List[float]:
    """``times_ns[i]`` scaled by the median of the passes timed within
    ``reach`` epochs of it (one pass is too short to trust alone)."""
    return [
        time * NOMINAL_NS / statistics.median(passes_ns[max(0, i - reach) : i + reach + 1])
        for i, time in enumerate(times_ns)
    ]
