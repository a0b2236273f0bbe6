"""Process-pool fan-out for the experiment sweeps.

:func:`parallel_map` is what ``repro validate --workers N`` runs on: each
model-vs-simulation check is an independent simulation with its own
explicit seed, so the checks spread over a pool and come back identical to
a serial run.  The analytic figure and headline sweeps run inline: each
takes about half a second, less than starting a pool.  (Rekeying itself
runs on one path, the serial loop over a batch's touched partitions in
:class:`~repro.server.partitioned.PartitionedServer`; the thread and
process shard executors are gone, and ``docs/performance.md``
"Sharding" has their last measurements.)
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, List


def parallel_map(fn: Callable, items: Iterable, workers: int = 0) -> List:
    """``[fn(x) for x in items]``, optionally over a process pool.

    ``workers <= 1`` (or a single item) runs inline.  ``fn`` and every
    item must be picklable (module-level functions / ``functools.partial``
    of them).  Results come back in input order, and because every sweep
    point carries its own explicit seed/parameters, parallel results are
    identical to serial ones.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    max_workers = min(workers, len(items))
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        chunksize = max(1, len(items) // (max_workers * 4))
        return list(pool.map(fn, items, chunksize=chunksize))
