"""Performance instrumentation and the experiment-sweep fan-out.

Two pieces:

* :mod:`repro.perf.instrumentation` — a near-zero-overhead ``Counter`` /
  ``Timer`` layer the hot paths (server rekeying, key-tree mutation,
  rekey-message indexing, transport packing) report into whenever a
  :class:`PerfRecorder` is activated.  With no recorder active every probe
  is a single global ``is None`` check, so production paths pay nothing.
* :mod:`repro.perf.parallel` — :func:`~repro.perf.parallel.parallel_map`,
  the ``--workers`` process-pool fan-out of the experiment sweeps.

Speed is measured from outside the package, by ``python3 bench/run.py``
(``BENCHMARK.json``).
"""

from repro.perf.instrumentation import (
    Counter,
    PerfRecorder,
    Timer,
    active_recorder,
    count,
    recording,
    timed,
)

__all__ = [
    "Counter",
    "PerfRecorder",
    "Timer",
    "active_recorder",
    "count",
    "recording",
    "timed",
]
