"""Process-wide metrics primitives: counters, gauges, histograms.

One :class:`MetricsRegistry` per server process owns every metric that
process exposes.  Each metric holds *labeled series*: a series is keyed
by a tuple of label values (the empty tuple for an unlabeled metric),
so one ``Counter`` named ``repro_http_requests_total`` with label names
``("path",)`` carries one monotonic count per endpoint.  All mutation
and all reads are lock-protected per metric, so request handler
threads, the coalescing batcher's leader threads and a scraper can hit
the same registry concurrently without torn counts.

Histograms are millisecond-valued by repo convention (latency, span
stages) and keep the exact JSON snapshot shape the serving tier has
exposed since PR 7 — ``{"count", "sum_ms", "mean_ms", "max_ms",
"overflow", "buckets": [{"le_ms", "count"}]}`` with *cumulative* bucket
counts — so registry-backed metrics are bit-compatible with the
pre-registry ``/metrics`` payload.  The Prometheus text exposition
(:mod:`repro.obs.prom`) renders the same series without a second
bookkeeping path.
"""

from __future__ import annotations

import re
import threading
from typing import Dict, List, Optional, Sequence, Tuple

#: Default histogram bucket upper bounds in milliseconds: log-spaced
#: from 0.25 ms to ~2 minutes (the PR 7 latency-histogram geometry).
DEFAULT_BOUNDS_MS = tuple(0.25 * 2**i for i in range(19))

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

Labels = Tuple[str, ...]


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


class Metric:
    """Shared shell: a named metric holding labeled series."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ):
        self.name = _check_name(name)
        self.help = help
        self.label_names = tuple(label_names)
        for label in self.label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self._lock = threading.Lock()

    def _labels(self, labels: Sequence[str]) -> Labels:
        labels = tuple(str(value) for value in labels)
        if len(labels) != len(self.label_names):
            raise ValueError(
                f"metric {self.name} takes labels {self.label_names}, "
                f"got {labels!r}"
            )
        return labels


class Counter(Metric):
    """A monotonically increasing count per labeled series.

    :meth:`inc` is the normal write path.  :meth:`set_total` exists for
    *mirrored* counters — monotonic counts maintained elsewhere (e.g.
    ``ServeState.rows_served``, under the serving state's pending
    condition) that a scrape copies
    into the registry; it never lowers the stored value, preserving the
    monotonic contract a Prometheus counter promises.
    """

    kind = "counter"

    def __init__(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ):
        super().__init__(name, help, label_names)
        self._series: Dict[Labels, float] = {}  # guarded-by: _lock

    def inc(self, amount: float = 1, labels: Sequence[str] = ()) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._labels(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def set_total(self, value: float, labels: Sequence[str] = ()) -> None:
        """Mirror an externally maintained monotonic count (never lowers)."""
        key = self._labels(labels)
        with self._lock:
            self._series[key] = max(self._series.get(key, 0), value)

    def value(self, labels: Sequence[str] = ()) -> float:
        key = self._labels(labels)
        with self._lock:
            return self._series.get(key, 0)

    def series(self) -> Dict[Labels, float]:
        with self._lock:
            return dict(self._series)


class Gauge(Metric):
    """A point-in-time value per labeled series (may go up or down)."""

    kind = "gauge"

    def __init__(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ):
        super().__init__(name, help, label_names)
        self._series: Dict[Labels, float] = {}  # guarded-by: _lock

    def set(self, value: float, labels: Sequence[str] = ()) -> None:
        key = self._labels(labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1, labels: Sequence[str] = ()) -> None:
        key = self._labels(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, labels: Sequence[str] = ()) -> float:
        key = self._labels(labels)
        with self._lock:
            return self._series.get(key, 0.0)

    def series(self) -> Dict[Labels, float]:
        with self._lock:
            return dict(self._series)


class _HistogramSeries:
    """One series' buckets + summary; mutated under the metric lock."""

    __slots__ = ("counts", "count", "sum", "max")

    def __init__(self, buckets: int):
        self.counts = [0] * buckets
        self.count = 0
        self.sum = 0.0
        self.max = 0.0


class Histogram(Metric):
    """Fixed-bucket histogram, safe for concurrent observers.

    ``bounds_ms`` are bucket *upper* bounds; one extra overflow bucket
    catches everything past the last bound, so metrics memory stays
    bounded for the life of the process.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str = "histogram_ms",
        help: str = "",
        bounds_ms: Sequence[float] = DEFAULT_BOUNDS_MS,
        label_names: Sequence[str] = (),
    ):
        super().__init__(name, help, label_names)
        self.bounds_ms = tuple(float(bound) for bound in bounds_ms)
        if not self.bounds_ms:
            raise ValueError("histogram needs at least one bucket bound")
        if list(self.bounds_ms) != sorted(self.bounds_ms):
            raise ValueError("histogram bounds must be ascending")
        self._series: Dict[Labels, _HistogramSeries] = {}  # guarded-by: _lock

    def _bucket_index(self, value: float) -> int:
        # Equivalent to searchsorted(side="left"): first bound >= value.
        for index, bound in enumerate(self.bounds_ms):
            if value <= bound:
                return index
        return len(self.bounds_ms)

    def observe(self, value_ms: float, labels: Sequence[str] = ()) -> None:
        key = self._labels(labels)
        index = self._bucket_index(value_ms)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(
                    len(self.bounds_ms) + 1
                )
            series.counts[index] += 1
            series.count += 1
            series.sum += value_ms
            series.max = max(series.max, value_ms)

    def snapshot(self, labels: Sequence[str] = ()) -> Dict[str, object]:
        """JSON-ready view of one series: cumulative buckets + summary.

        The exact shape the serving tier's ``/metrics`` has always
        exposed; an unobserved series snapshots as all-zero.
        """
        key = self._labels(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                counts = [0] * (len(self.bounds_ms) + 1)
                count, total, peak = 0, 0.0, 0.0
            else:
                counts = list(series.counts)
                count = series.count
                total = series.sum
                peak = series.max
        cumulative = 0
        buckets = []
        for bound, bucket in zip(self.bounds_ms, counts):
            cumulative += bucket
            buckets.append({"le_ms": bound, "count": cumulative})
        return {
            "count": count,
            "sum_ms": total,
            "mean_ms": (total / count) if count else 0.0,
            "max_ms": peak,
            "overflow": counts[-1],
            "buckets": buckets,
        }

    def series_labels(self) -> List[Labels]:
        with self._lock:
            return list(self._series)


class MetricsRegistry:
    """Get-or-create home for every metric one process exposes.

    ``counter`` / ``gauge`` / ``histogram`` return the existing metric
    when the name is already registered (so independent call sites share
    series) and raise when the name is registered under a different
    metric kind — a name collision is a bug, not a merge.
    """

    def __init__(self):
        self._metrics: Dict[str, Metric] = {}  # guarded-by: _lock
        self._lock = threading.Lock()

    def register(self, metric: Metric) -> Metric:
        """Adopt an externally constructed metric (e.g. a subclass)."""
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if existing is not metric:
                    raise ValueError(
                        f"metric {metric.name!r} already registered"
                    )
                return existing
            self._metrics[metric.name] = metric
            return metric

    def _get_or_create(self, cls, name: str, **kwargs) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is not None:
                if not isinstance(metric, cls) or metric.kind != cls.kind:
                    raise ValueError(
                        f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
                    )
                return metric
            metric = cls(name, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(
            Counter, name, help=help, label_names=label_names
        )

    def gauge(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(
            Gauge, name, help=help, label_names=label_names
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        bounds_ms: Sequence[float] = DEFAULT_BOUNDS_MS,
        label_names: Sequence[str] = (),
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help=help, bounds_ms=bounds_ms,
            label_names=label_names,
        )

    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def collect(self) -> List[Metric]:
        """A stable snapshot of the registered metrics, in creation order."""
        with self._lock:
            return list(self._metrics.values())
