"""The metrics registry: labeled counters, gauges and histograms.

One :class:`MetricsRegistry` is the single sink for every quantitative
signal in a run: the hot paths count into the active registry with
:func:`inc`, and the servers, the simulator and the transports observe
histograms into it.  A registry collected in another process can be
folded in: its :meth:`~MetricsRegistry.snapshot` is a plain dict that
:meth:`~MetricsRegistry.merge` adds to this one's.

Design constraints, in order:

* **Near-zero disabled overhead.**  The module-level probes (:func:`inc`,
  :func:`observe`, :func:`gauge_set`) are one global-``is None`` check
  when no registry is active.  The ``epoch_ms_p50`` bounds in
  ``BENCHMARK.json`` gate that cost, since every benchmarked path runs
  the probes disabled; ``obs.enabled_epoch_ratio`` in the traced run
  prices turning them on.
* **Process-safe aggregation.**  :meth:`MetricsRegistry.snapshot` is a
  plain picklable dict; :meth:`MetricsRegistry.merge` adds counter and
  histogram series pointwise and last-writes gauges.  Merging is
  associative, so lanes can ship deltas in any order.
* **Two expositions.**  :meth:`MetricsRegistry.to_prometheus` emits the
  Prometheus text format (dotted metric names become underscored, with
  the ``repro_`` namespace and ``_total``/``_seconds`` conventions);
  :meth:`MetricsRegistry.to_json` emits a stable JSON document for the
  trace file and programmatic diffing.

Metric names are dotted (``server.rekeys``); label sets are fixed per
metric at first registration.  Histograms use fixed bucket schemes —
:data:`SIZE_BUCKETS` for counts/sizes and :data:`LATENCY_BUCKETS_S` for
durations — so snapshots from different processes always merge bucket-
for-bucket.
"""

from __future__ import annotations

import math
import re
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Bucket scheme for counts and sizes (keys per batch, packets per round).
SIZE_BUCKETS: Tuple[float, ...] = (
    0, 1, 2, 5, 10, 25, 50, 100, 250, 500,
    1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 1_000_000,
)

#: Bucket scheme for durations in seconds (wall or simulated).
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5,
    1.0, 5.0, 15.0, 60.0, 300.0, 1_800.0,
)

#: Log-spaced bucket scheme for member rekey latency in simulated seconds.
#: The leading 0 bucket isolates same-instant DEK adoption (delivery in
#: retry round 0); the power-of-two ladder spans sub-second retry backoff
#: through multi-hour abandonment windows, and the fixed bounds keep
#: worker snapshots mergeable bucket-for-bucket.
LATENCY_LOG_BUCKETS_S: Tuple[float, ...] = (
    0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
    256.0, 512.0, 1_024.0, 2_048.0, 4_096.0,
)

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def prometheus_name(name: str) -> str:
    """Canonical Prometheus spelling of a dotted metric name."""
    flat = _NAME_RE.sub("_", name)
    if not flat.startswith("repro_"):
        flat = "repro_" + flat
    return flat


def _label_key(label_names: Sequence[str], labels: Dict[str, str]) -> Tuple[str, ...]:
    if set(labels) != set(label_names):
        raise ValueError(
            f"metric expects labels {tuple(label_names)}, got {tuple(labels)}"
        )
    return tuple(str(labels[name]) for name in label_names)


def _format_labels(label_names: Sequence[str], key: Tuple[str, ...], extra: str = "") -> str:
    pairs = [f'{name}="{value}"' for name, value in zip(label_names, key)]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


class Counter:
    """A monotonically increasing labeled count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", label_names: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self.series: Dict[Tuple[str, ...], float] = {}

    def inc(self, n: float = 1, **labels: str) -> None:
        key = _label_key(self.label_names, labels)
        self.series[key] = self.series.get(key, 0) + n

    def value(self, **labels: str) -> float:
        """Current value of one series (0 when never incremented)."""
        return self.series.get(_label_key(self.label_names, labels), 0)

    def total(self) -> float:
        """Sum across every labeled series."""
        return sum(self.series.values())


class Gauge:
    """A labeled value that goes up and down (last write wins on merge)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", label_names: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self.series: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, **labels: str) -> None:
        self.series[_label_key(self.label_names, labels)] = value

    def value(self, **labels: str) -> float:
        return self.series.get(_label_key(self.label_names, labels), 0)


class Histogram:
    """A labeled distribution over a fixed bucket scheme.

    Each series keeps cumulative bucket counts (Prometheus ``le``
    semantics), the running sum and the observation count, so means and
    quantile bounds are recoverable from any snapshot.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = SIZE_BUCKETS,
    ) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self.buckets = tuple(sorted(buckets))
        # key -> [bucket_counts..., +Inf count] plus (sum, count)
        self.series: Dict[Tuple[str, ...], Dict[str, object]] = {}

    def _slot(self, key: Tuple[str, ...]) -> Dict[str, object]:
        slot = self.series.get(key)
        if slot is None:
            slot = self.series[key] = {
                "buckets": [0] * (len(self.buckets) + 1),
                "sum": 0.0,
                "count": 0,
            }
        return slot

    def observe(self, value: float, **labels: str) -> None:
        slot = self._slot(_label_key(self.label_names, labels))
        counts: List[int] = slot["buckets"]  # type: ignore[assignment]
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
        slot["sum"] += value  # type: ignore[operator]
        slot["count"] += 1  # type: ignore[operator]

    def stats(self, **labels: str) -> Dict[str, float]:
        """``{"count", "sum", "mean"}`` of one series (zeros when empty)."""
        slot = self.series.get(_label_key(self.label_names, labels))
        if slot is None or not slot["count"]:
            return {"count": 0, "sum": 0.0, "mean": 0.0}
        return {
            "count": slot["count"],
            "sum": slot["sum"],
            "mean": slot["sum"] / slot["count"],  # type: ignore[operator]
        }


def bucket_quantile(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> Optional[float]:
    """Quantile ``q`` of a histogram series, as a bucket upper bound.

    ``counts`` is the per-bucket (non-cumulative) count list with the
    overflow bucket last, exactly as stored in a series slot or snapshot.
    Uses exact-rank semantics over the bucket bounds: the result is the
    upper bound of the bucket holding the ``ceil(q*n)``-th observation.
    Returns ``None`` for an empty series or when the rank falls in the
    overflow bucket (which has no finite bound).
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    total = sum(counts)
    if not total:
        return None
    rank = max(1, math.ceil(total * q))
    cumulative = 0
    for bound, count in zip(bounds, counts):
        cumulative += count
        if cumulative >= rank:
            return bound
    return None  # rank landed in the overflow bucket


def merge_bucket_series(
    slots: Sequence[Dict[str, object]],
) -> Dict[str, object]:
    """Pointwise sum of histogram series slots sharing one bucket scheme."""
    if not slots:
        return {"buckets": [], "sum": 0.0, "count": 0}
    width = len(slots[0]["buckets"])  # type: ignore[arg-type]
    buckets = [0] * width
    total, count = 0.0, 0
    for slot in slots:
        for i, n in enumerate(slot["buckets"]):  # type: ignore[call-overload]
            buckets[i] += n
        total += slot["sum"]  # type: ignore[operator]
        count += slot["count"]  # type: ignore[operator]
    return {"buckets": buckets, "sum": total, "count": count}


class MetricsRegistry:
    """A named family of metrics with merge and exposition support."""

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # registration (get-or-create; kind and labels must stay consistent)
    # ------------------------------------------------------------------

    def _get(self, cls, name: str, help: str, label_names: Sequence[str], **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(
                    name, help=help, label_names=label_names, **kwargs
                )
            elif not isinstance(metric, cls) or (
                tuple(label_names) != metric.label_names
            ):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}{metric.label_names}"
                )
            return metric

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = SIZE_BUCKETS,
    ) -> Histogram:
        return self._get(Histogram, name, help, labels, buckets=buckets)

    def metrics(self) -> List[object]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    # ------------------------------------------------------------------
    # locked mutation helpers (the module probes route through these)
    # ------------------------------------------------------------------

    def inc(self, name: str, n: float = 1, **labels: str) -> None:
        metric = self.counter(name, labels=tuple(sorted(labels)))
        with self._lock:
            metric.inc(n, **labels)

    def observe(
        self,
        name: str,
        value: float,
        buckets: Sequence[float] = SIZE_BUCKETS,
        **labels: str,
    ) -> None:
        metric = self.histogram(name, labels=tuple(sorted(labels)), buckets=buckets)
        with self._lock:
            metric.observe(value, **labels)

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        metric = self.gauge(name, labels=tuple(sorted(labels)))
        with self._lock:
            metric.set(value, **labels)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def counter_total(self, name: str) -> float:
        """Sum of a counter across all its labeled series (0 if absent)."""
        metric = self._metrics.get(name)
        if not isinstance(metric, Counter):
            return 0
        return metric.total()

    # ------------------------------------------------------------------
    # snapshot / merge (the process-pool delta path)
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A plain picklable copy of every metric's state."""
        with self._lock:
            out: Dict[str, object] = {}
            for name, metric in self._metrics.items():
                entry: Dict[str, object] = {
                    "kind": metric.kind,
                    "help": metric.help,
                    "labels": metric.label_names,
                }
                if isinstance(metric, Histogram):
                    entry["buckets"] = metric.buckets
                    entry["series"] = {
                        key: {
                            "buckets": list(slot["buckets"]),
                            "sum": slot["sum"],
                            "count": slot["count"],
                        }
                        for key, slot in metric.series.items()
                    }
                else:
                    entry["series"] = dict(metric.series)
                out[name] = entry
        return out

    def merge(self, snapshot: Dict[str, object]) -> None:
        """Fold a :meth:`snapshot` (e.g. a worker's delta) into this registry.

        Counters and histogram series add pointwise; gauges last-write.
        """
        for name, entry in snapshot.items():
            kind = entry["kind"]
            labels = tuple(entry["labels"])
            if kind == "counter":
                metric = self.counter(name, help=entry["help"], labels=labels)
                with self._lock:
                    for key, value in entry["series"].items():
                        key = tuple(key)
                        metric.series[key] = metric.series.get(key, 0) + value
            elif kind == "gauge":
                metric = self.gauge(name, help=entry["help"], labels=labels)
                with self._lock:
                    for key, value in entry["series"].items():
                        metric.series[tuple(key)] = value
            elif kind == "histogram":
                metric = self.histogram(
                    name, help=entry["help"], labels=labels,
                    buckets=entry["buckets"],
                )
                with self._lock:
                    for key, slot in entry["series"].items():
                        mine = metric._slot(tuple(key))
                        for i, count in enumerate(slot["buckets"]):
                            mine["buckets"][i] += count
                        mine["sum"] += slot["sum"]
                        mine["count"] += slot["count"]
            else:  # pragma: no cover - future-proofing
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}")

    # ------------------------------------------------------------------
    # exposition
    # ------------------------------------------------------------------

    def to_prometheus(self) -> str:
        """The Prometheus text exposition of every metric."""
        lines: List[str] = []
        for metric in self.metrics():
            base = prometheus_name(metric.name)
            if isinstance(metric, Counter) and not base.endswith("_total"):
                base += "_total"
            lines.append(f"# HELP {base} {metric.help or metric.name}")
            lines.append(f"# TYPE {base} {metric.kind}")
            if isinstance(metric, Histogram):
                for key in sorted(metric.series):
                    slot = metric.series[key]
                    cumulative = 0
                    for bound, count in zip(
                        metric.buckets, slot["buckets"][:-1]
                    ):
                        cumulative += count
                        le = _format_labels(
                            metric.label_names, key, extra=f'le="{_fmt(bound)}"'
                        )
                        lines.append(f"{base}_bucket{le} {cumulative}")
                    cumulative += slot["buckets"][-1]
                    le = _format_labels(metric.label_names, key, extra='le="+Inf"')
                    lines.append(f"{base}_bucket{le} {cumulative}")
                    labelled = _format_labels(metric.label_names, key)
                    lines.append(f"{base}_sum{labelled} {_fmt(slot['sum'])}")
                    lines.append(f"{base}_count{labelled} {slot['count']}")
            else:
                series = metric.series or {(): 0} if not metric.label_names else metric.series
                for key in sorted(series):
                    labelled = _format_labels(metric.label_names, key)
                    lines.append(f"{base}{labelled} {_fmt(series[key])}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> Dict[str, object]:
        """A JSON-safe document (label tuples become ``|``-joined strings)."""
        snapshot = self.snapshot()
        out: Dict[str, object] = {}
        for name, entry in snapshot.items():
            out[name] = {
                "kind": entry["kind"],
                "labels": list(entry["labels"]),
                "series": {
                    "|".join(key) if key else "": value
                    for key, value in entry["series"].items()
                },
            }
            if "buckets" in entry:
                out[name]["buckets"] = list(entry["buckets"])
        return out


def _fmt(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def parse_prometheus(text: str) -> Dict[str, float]:
    """Parse a Prometheus text exposition into ``{sample_name{labels}: value}``.

    A deliberately strict little parser used by the CI smoke check and
    the tests: every non-comment line must be ``name[{labels}] value``.
    Raises ``ValueError`` on anything malformed.
    """
    samples: Dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = re.fullmatch(
            r'([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})?\s+(-?[0-9.eE+infa]+)', line
        )
        if match is None:
            raise ValueError(f"malformed exposition line {lineno}: {line!r}")
        name = match.group(1) + (match.group(2) or "")
        samples[name] = float(match.group(3))
    return samples


# ----------------------------------------------------------------------
# the active registry and the cheap module-level probes
# ----------------------------------------------------------------------

#: The registry probes report into, or None (probes are no-ops).
_ACTIVE: Optional[MetricsRegistry] = None


def active_registry() -> Optional[MetricsRegistry]:
    """The currently installed registry, if any."""
    return _ACTIVE


@contextmanager
def collecting(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Install ``registry`` (fresh one by default) for the ``with`` body."""
    global _ACTIVE
    if registry is None:
        registry = MetricsRegistry()
    previous = _ACTIVE
    _ACTIVE = registry
    try:
        yield registry
    finally:
        _ACTIVE = previous


def inc(name: str, n: float = 1) -> None:
    """Increment an unlabelled counter on the active registry (no-op when
    none).

    The op-count probes of the wrap, key-tree and member hot loops call
    this, so it takes no ``**labels``: a keyword catch-all allocates a
    dict on every call, enabled or not.  A labelled series goes through
    :meth:`MetricsRegistry.inc`.
    """
    registry = _ACTIVE
    if registry is not None:
        registry.inc(name, n)


def observe(
    name: str,
    value: float,
    buckets: Sequence[float] = SIZE_BUCKETS,
    **labels: str,
) -> None:
    """Observe into a histogram on the active registry (no-op when none)."""
    registry = _ACTIVE
    if registry is not None:
        registry.observe(name, value, buckets=buckets, **labels)


def gauge_set(name: str, value: float, **labels: str) -> None:
    """Set a gauge on the active registry (no-op when none)."""
    registry = _ACTIVE
    if registry is not None:
        registry.set_gauge(name, value, **labels)
