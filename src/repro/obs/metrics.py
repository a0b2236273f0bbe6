"""The metrics registry: labeled counters, gauges and histograms.

One :class:`MetricsRegistry` is the single sink for every quantitative
signal in a run: the hot paths count into the active registry with
:func:`inc`, and the servers, the simulator and the transports observe
histograms into it.

Design constraints, in order:

* **Near-zero disabled overhead.**  The module-level probes (:func:`inc`,
  :func:`observe`, :func:`gauge_set`) are one global-``is None`` check
  when no registry is active.  The ``epoch_ms_p50`` bounds in
  ``BENCHMARK.json`` gate that cost, since every benchmarked path runs
  the probes disabled; ``obs.enabled_epoch_ratio`` in the traced run
  prices turning them on.
* **One cheap write path.**  A write finds its series with one lookup,
  and a histogram takes a batch (:meth:`MetricsRegistry.observe_many`,
  one call per series per epoch on the receiver pass) through the same
  bucket placement as a single value.
* **Two expositions, one read.**  :meth:`MetricsRegistry.to_prometheus`
  emits the Prometheus text format (dotted metric names become
  underscored, with the ``repro_`` namespace and ``_total``/``_seconds``
  conventions); :meth:`MetricsRegistry.to_json` emits a stable JSON
  document for the trace file and programmatic diffing.  Both render
  from one locked :meth:`~MetricsRegistry.snapshot`.

Metric names are dotted (``server.rekeys``); label sets are fixed per
metric at first registration.  Histograms use fixed bucket schemes —
:data:`SIZE_BUCKETS` for counts/sizes and :data:`LATENCY_BUCKETS_S` for
durations.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
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
#: through multi-hour abandonment windows.
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


def _format_labels(label_names: Sequence[str], key: Tuple[str, ...], extra: str = "") -> str:
    pairs = [f'{name}="{value}"' for name, value in zip(label_names, key)]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


class Metric:
    """A named family of labeled series; the subclass fixes the kind."""

    kind = ""

    def __init__(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = (),
    ) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self.buckets = tuple(sorted(buckets))  # bucket bounds (histograms)
        self.series: Dict[Tuple[str, ...], object] = {}

    def key(self, labels: Dict[str, object]) -> Tuple[str, ...]:
        """The series key of ``labels``, which must name exactly this
        metric's labels."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric expects labels {self.label_names}, got {tuple(labels)}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def target(self, key: Tuple[str, ...]) -> object:
        """Where a write to series ``key`` lands: the series map and key."""
        self.series.setdefault(key, 0)
        return self.series, key

    def value(self, **labels: str) -> float:
        """Current value of one series (0 when never written)."""
        return self.series.get(self.key(labels), 0)


class Counter(Metric):
    """A monotonically increasing labeled count."""

    kind = "counter"

    def total(self) -> float:
        """Sum across every labeled series."""
        return sum(self.series.values())


class Gauge(Metric):
    """A labeled value that goes up and down (the last write wins)."""

    kind = "gauge"


class Histogram(Metric):
    """A labeled distribution over a fixed bucket scheme.

    Each series slot keeps per-bucket counts with the overflow (``+Inf``)
    bucket last, the running sum and the observation count, so means and
    quantile bounds are recoverable from any snapshot.
    """

    kind = "histogram"

    def target(self, key: Tuple[str, ...]) -> object:
        """Where a write to series ``key`` lands: this metric and the slot."""
        slot = self.series.get(key)
        if slot is None:
            slot = self.series[key] = {
                "buckets": [0] * (len(self.buckets) + 1),
                "sum": 0.0,
                "count": 0,
            }
        return self, slot

    def add(self, slot: Dict[str, object], values: Sequence[float]) -> None:
        """Place ``values`` in ``slot``, summing them in the order given.

        A value lands in the first bucket whose bound it does not exceed;
        over-range values and NaN (which compares false with every bound)
        land in the overflow bucket.
        """
        counts: List[int] = slot["buckets"]  # type: ignore[assignment]
        bounds = self.buckets
        overflow = len(bounds)
        total = slot["sum"]
        for value in values:
            counts[bisect_left(bounds, value) if value == value else overflow] += 1
            total += value
        slot["sum"] = total
        slot["count"] += len(values)  # type: ignore[operator]

    def stats(self, **labels: str) -> Dict[str, float]:
        """``{"count", "sum", "mean"}`` of one series (zeros when empty)."""
        slot = self.series.get(self.key(labels))
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
    """A named family of metrics with snapshot and exposition support.

    Every write (:meth:`inc`, :meth:`set_gauge`, :meth:`observe`,
    :meth:`observe_many`) runs under the registry lock, since a live
    endpoint may read from another thread, and finds its series with one
    lookup, keyed by the name and the labels as passed.  Only the first
    write with a given key checks the kind and label names and creates
    the series (:meth:`_resolve`); its target is kept for the next.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        # write key -> target, one table per kind so a kind clash misses
        self._counters: Dict[object, tuple] = {}
        self._gauges: Dict[object, tuple] = {}
        self._histograms: Dict[object, tuple] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # registration (get-or-create; kind and labels must stay consistent)
    # ------------------------------------------------------------------

    def _get(self, cls, name: str, help: str, label_names: Sequence[str], buckets=()):
        """Get or create a metric; call with the lock held."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, help, label_names, buckets)
        elif type(metric) is not cls or tuple(label_names) != metric.label_names:
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}{metric.label_names}"
            )
        return metric

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        with self._lock:
            return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        with self._lock:
            return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = SIZE_BUCKETS,
    ) -> Histogram:
        with self._lock:
            return self._get(Histogram, name, help, labels, buckets)

    # ------------------------------------------------------------------
    # the write path (the module probes route through these)
    # ------------------------------------------------------------------

    def _resolve(self, table: Dict, cls, name: str, labels: Dict[str, object], buckets=()):
        """The target of a first write to ``name{labels}``, kept in
        ``table`` under the write key; call with the lock held."""
        metric = self._get(cls, name, "", tuple(sorted(labels)), buckets)
        target = metric.target(metric.key(labels))
        table[(name, *labels.items()) if labels else name] = target
        return target

    def inc(self, name: str, n: float = 1, **labels: str) -> None:
        table = self._counters
        with self._lock:
            series, key = table.get(
                (name, *labels.items()) if labels else name
            ) or self._resolve(table, Counter, name, labels)
            series[key] += n

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        table = self._gauges
        with self._lock:
            series, key = table.get(
                (name, *labels.items()) if labels else name
            ) or self._resolve(table, Gauge, name, labels)
            series[key] = value

    def observe(
        self,
        name: str,
        value: float,
        buckets: Sequence[float] = SIZE_BUCKETS,
        **labels: str,
    ) -> None:
        """Observe one value: :meth:`observe_many` of one."""
        self.observe_many(name, (value,), buckets, **labels)

    def observe_many(
        self,
        name: str,
        values: Sequence[float],
        buckets: Sequence[float] = SIZE_BUCKETS,
        **labels: str,
    ) -> None:
        """Observe ``values`` into one series, adding them in order, so
        bucket counts, count and float sum are those of a loop of
        :meth:`observe`.  An empty batch registers nothing."""
        if not values:
            return
        table = self._histograms
        with self._lock:
            metric, slot = table.get(
                (name, *labels.items()) if labels else name
            ) or self._resolve(table, Histogram, name, labels, buckets)
            metric.add(slot, values)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def counter_total(self, name: str) -> float:
        """Sum of a counter across all its labeled series (0 if absent)."""
        with self._lock:
            metric = self._metrics.get(name)
            return metric.total() if isinstance(metric, Counter) else 0

    def snapshot(self) -> Dict[str, object]:
        """A plain picklable copy of every metric's state, taken under the
        lock: both expositions render from one, so a reader on another
        thread never sees a write half done."""
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

    # ------------------------------------------------------------------
    # exposition
    # ------------------------------------------------------------------

    def to_prometheus(self) -> str:
        """The Prometheus text exposition of every metric."""
        lines: List[str] = []
        for name, entry in sorted(self.snapshot().items()):
            kind, label_names = entry["kind"], entry["labels"]
            series = entry["series"]
            base = prometheus_name(name)
            if kind == "counter" and not base.endswith("_total"):
                base += "_total"
            lines.append(f"# HELP {base} {entry['help'] or name}")
            lines.append(f"# TYPE {base} {kind}")
            if kind == "histogram":
                for key in sorted(series):
                    slot = series[key]
                    cumulative = 0
                    for bound, count in zip(entry["buckets"], slot["buckets"][:-1]):
                        cumulative += count
                        le = _format_labels(label_names, key, extra=f'le="{_fmt(bound)}"')
                        lines.append(f"{base}_bucket{le} {cumulative}")
                    cumulative += slot["buckets"][-1]
                    le = _format_labels(label_names, key, extra='le="+Inf"')
                    lines.append(f"{base}_bucket{le} {cumulative}")
                    labelled = _format_labels(label_names, key)
                    lines.append(f"{base}_sum{labelled} {_fmt(slot['sum'])}")
                    lines.append(f"{base}_count{labelled} {slot['count']}")
            else:
                if not label_names and not series:
                    series = {(): 0}
                for key in sorted(series):
                    labelled = _format_labels(label_names, key)
                    lines.append(f"{base}{labelled} {_fmt(series[key])}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> Dict[str, object]:
        """A JSON-safe document (label tuples become ``|``-joined strings)."""
        out: Dict[str, object] = {}
        for name, entry in self.snapshot().items():
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
