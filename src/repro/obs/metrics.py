"""A device-level metrics registry: counters, gauges, histograms.

Two publication styles coexist:

* **Owned instruments** (:class:`Counter`, :class:`Gauge`,
  :class:`Histogram`) are created through the registry and mutated
  directly -- used where the registry is the natural home of the
  state (controller flow timings, packet-size distribution).
* **Collectors** are callables returning :class:`Sample`s at collect
  time.  Components that already keep hot-path counters (TSPs, the
  TM, tables, meters) register a collector instead of doubling every
  increment, so enabling the registry costs the forwarding path
  nothing.

``collect()`` merges both into one flat sample list;
``to_prometheus()`` renders the standard text exposition and
``runtime.stats.snapshot()`` pivots the same samples back into the
legacy nested snapshot shape.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass
class Sample:
    """One exported data point: a name, a value, and string labels."""

    name: str
    value: float
    labels: Dict[str, str] = field(default_factory=dict)
    kind: str = "counter"  # "counter" | "gauge"

    def key(self) -> Tuple[str, LabelKey]:
        return (self.name, _label_key(self.labels))


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: Optional[Dict[str, str]] = None) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def samples(self) -> Iterable[Sample]:
        yield Sample(self.name, self.value, dict(self.labels), "counter")


class Gauge:
    """A value that can go up and down, or be computed at collect time."""

    __slots__ = ("name", "labels", "value", "fn")

    kind = "gauge"

    def __init__(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        fn: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self.value: float = 0
        self.fn = fn

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def samples(self) -> Iterable[Sample]:
        value = self.fn() if self.fn is not None else self.value
        yield Sample(self.name, value, dict(self.labels), "gauge")


def bucket_quantile(
    bounds: Sequence[float], bucket_counts: Sequence[int], q: float
) -> Optional[float]:
    """Estimate the ``q``-quantile of a bucketed distribution.

    ``bucket_counts`` are per-bucket (not cumulative) counts, one per
    edge in ``bounds`` plus the trailing ``+Inf`` bucket.  The estimate
    linearly interpolates within the winning bucket, with the first
    bucket's lower edge taken as 0 -- the same convention Prometheus'
    ``histogram_quantile`` uses.  A quantile that lands in the ``+Inf``
    bucket clamps to the highest finite edge; an empty distribution
    returns ``None``.
    """
    total = sum(bucket_counts)
    if total <= 0:
        return None
    q = min(max(q, 0.0), 1.0)
    rank = q * total
    cumulative = 0.0
    for i, count in enumerate(bucket_counts):
        if count == 0:
            continue
        if cumulative + count >= rank:
            if i >= len(bounds):  # +Inf bucket: clamp to the last edge
                return float(bounds[-1])
            lower = float(bounds[i - 1]) if i > 0 else 0.0
            upper = float(bounds[i])
            fraction = (rank - cumulative) / count
            return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
        cumulative += count
    return float(bounds[-1])


@dataclass(frozen=True)
class HistogramSnapshot:
    """An immutable point-in-time copy of a histogram's buckets.

    Snapshots subtract (``later.delta(earlier)``), which is what turns
    a cumulative histogram into a *windowed* one: the delta between
    two snapshots taken ``w`` seconds apart holds exactly the
    observations of that window, and :meth:`quantile` reads percentiles
    off it.  The health engine and the INT collector both lean on this
    instead of keeping raw observation lists.
    """

    name: str
    bounds: Tuple[float, ...]
    counts: Tuple[int, ...]  # per-bucket, last = +Inf
    count: int
    sum: float

    def quantile(self, q: float) -> Optional[float]:
        return bucket_quantile(self.bounds, self.counts, q)

    def delta(self, earlier: "HistogramSnapshot") -> "HistogramSnapshot":
        """Observations recorded after ``earlier`` was taken.  Counter
        resets (a shrinking bucket) clamp to zero."""
        if earlier.bounds != self.bounds:
            raise ValueError(
                f"snapshot delta over mismatched bounds for {self.name!r}"
            )
        return HistogramSnapshot(
            name=self.name,
            bounds=self.bounds,
            counts=tuple(
                max(0, now - then)
                for now, then in zip(self.counts, earlier.counts)
            ),
            count=max(0, self.count - earlier.count),
            sum=max(0.0, self.sum - earlier.sum),
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
        }


class Histogram:
    """A bounded-bucket histogram (cumulative ``le`` semantics).

    ``bounds`` are the upper bucket edges, strictly increasing; an
    implicit ``+Inf`` bucket catches the rest.  An observation equal
    to an edge lands in that edge's bucket, exactly as Prometheus'
    ``le`` (less-or-equal) buckets do.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count", "sum")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        bounds: Sequence[float],
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket edge")
        edges = [float(b) for b in bounds]
        if any(later <= earlier for later, earlier in zip(edges[1:], edges)):
            raise ValueError(f"histogram {name!r}: edges must strictly increase")
        self.name = name
        self.labels = dict(labels or {})
        self.bounds: Tuple[float, ...] = tuple(edges)
        self.bucket_counts = [0] * (len(edges) + 1)  # last = +Inf
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def observe_many(self, values: Sequence[float]) -> None:
        """:meth:`observe` for each of ``values``, as one sort and one
        bisect per bucket edge instead of a call per observation."""
        ordered = sorted(values)
        counts = self.bucket_counts
        start = 0
        for bucket, edge in enumerate(self.bounds):
            end = bisect.bisect_right(ordered, edge, start)
            counts[bucket] += end - start
            start = end
        counts[-1] += len(ordered) - start
        self.count += len(ordered)
        self.sum = sum(values, self.sum)

    def bucket_edges(self) -> List[str]:
        return [repr(b) for b in self.bounds] + ["+Inf"]

    def cumulative_counts(self) -> List[int]:
        out, running = [], 0
        for count in self.bucket_counts:
            running += count
            out.append(running)
        return out

    def quantile(self, q: float) -> Optional[float]:
        """Estimated ``q``-quantile over all observations so far."""
        return bucket_quantile(self.bounds, self.bucket_counts, q)

    def snapshot(self) -> HistogramSnapshot:
        return HistogramSnapshot(
            name=self.name,
            bounds=self.bounds,
            counts=tuple(self.bucket_counts),
            count=self.count,
            sum=self.sum,
        )

    def samples(self) -> Iterable[Sample]:
        for edge, cum in zip(self.bucket_edges(), self.cumulative_counts()):
            labels = dict(self.labels)
            labels["le"] = edge
            yield Sample(self.name + "_bucket", cum, labels, "counter")
        yield Sample(self.name + "_count", self.count, dict(self.labels), "counter")
        yield Sample(self.name + "_sum", self.sum, dict(self.labels), "counter")


class MetricsRegistry:
    """Named instruments plus collect-time sample collectors."""

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, LabelKey], object] = {}
        self._collectors: Dict[str, Callable[[], Iterable[Sample]]] = {}

    # -- owned instruments ------------------------------------------------

    def _get_or_create(self, cls, name: str, labels: Dict[str, str], *args):
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, *args, labels=labels)
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}"
            )
        return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(
        self, name: str, fn: Optional[Callable[[], float]] = None, **labels: str
    ) -> Gauge:
        key = (name, _label_key(labels))
        gauge = self._instruments.get(key)
        if gauge is None:
            gauge = Gauge(name, labels=labels, fn=fn)
            self._instruments[key] = gauge
        elif not isinstance(gauge, Gauge):
            raise TypeError(f"metric {name!r} already registered as non-gauge")
        return gauge

    def histogram(
        self, name: str, bounds: Sequence[float], **labels: str
    ) -> Histogram:
        key = (name, _label_key(labels))
        histogram = self._instruments.get(key)
        if histogram is None:
            histogram = Histogram(name, bounds, labels=labels)
            self._instruments[key] = histogram
        elif not isinstance(histogram, Histogram):
            raise TypeError(f"metric {name!r} already registered as non-histogram")
        return histogram

    # -- collectors --------------------------------------------------------

    def add_collector(
        self, name: str, fn: Callable[[], Iterable[Sample]]
    ) -> None:
        """Register a callable producing samples at collect time."""
        self._collectors[name] = fn

    def remove_collector(self, name: str) -> None:
        self._collectors.pop(name, None)

    # -- export ------------------------------------------------------------

    def collect(self) -> List[Sample]:
        samples: List[Sample] = []
        for instrument in self._instruments.values():
            samples.extend(instrument.samples())  # type: ignore[attr-defined]
        for fn in self._collectors.values():
            samples.extend(fn())
        return samples

    def value(self, name: str, default: float = 0, **labels: str) -> float:
        """Look a single sample up by name + labels (collects first).

        Histograms are addressable by base name too: a miss on ``name``
        falls back to ``name_count`` (the observation count), so rules
        and callers can target any metric kind uniformly.
        """
        key = _label_key({k: str(v) for k, v in labels.items()})
        wanted = (name, key)
        fallback = (name + "_count", key)
        hit = None
        for sample in self.collect():
            sample_key = sample.key()
            if sample_key == wanted:
                return sample.value
            if sample_key == fallback and hit is None:
                hit = sample.value
        return default if hit is None else hit

    def histogram_snapshot(
        self, name: str, **labels: str
    ) -> Optional[HistogramSnapshot]:
        """Rebuild a :class:`HistogramSnapshot` from collected samples.

        Works for owned histograms *and* collector-produced ones: the
        cumulative ``name_bucket{le=...}`` samples are undiffed back
        into per-bucket counts.  Returns ``None`` when no buckets with
        the given name + labels exist.
        """
        return snapshot_from_samples(self.collect(), name, labels)

    def to_dict(self) -> Dict[str, float]:
        """Flat ``name{label="v",...}`` -> value mapping (JSON-friendly)."""
        return {
            _exposition_name(sample): sample.value for sample in self.collect()
        }

    def to_prometheus(self) -> str:
        """Prometheus text exposition (names sanitized to [a-z_])."""
        by_name: Dict[str, List[Sample]] = {}
        kinds: Dict[str, str] = {}
        for sample in self.collect():
            metric = _sanitize(sample.name)
            by_name.setdefault(metric, []).append(sample)
            kinds.setdefault(metric, sample.kind)
        lines: List[str] = []
        for metric in sorted(by_name):
            lines.append(f"# TYPE {metric} {kinds[metric]}")
            for sample in by_name[metric]:
                lines.append(f"{_exposition_name(sample)} {_fmt(sample.value)}")
        return "\n".join(lines) + "\n"


def snapshot_from_samples(
    samples: Iterable[Sample],
    name: str,
    labels: Optional[Dict[str, str]] = None,
) -> Optional[HistogramSnapshot]:
    """Rebuild a histogram snapshot from an already-collected sample
    list (see :meth:`MetricsRegistry.histogram_snapshot`)."""
    key = _label_key({k: str(v) for k, v in (labels or {}).items()})
    buckets: List[Tuple[float, float]] = []  # (edge, cumulative)
    inf_cum: Optional[float] = None
    count = 0
    total = 0.0
    seen = False
    for sample in samples:
        if sample.name == name + "_bucket":
            rest = {k: v for k, v in sample.labels.items() if k != "le"}
            if _label_key(rest) != key:
                continue
            seen = True
            edge = sample.labels.get("le", "+Inf")
            if edge == "+Inf":
                inf_cum = sample.value
            else:
                buckets.append((float(edge), sample.value))
        elif sample.key() == (name + "_count", key):
            count = int(sample.value)
        elif sample.key() == (name + "_sum", key):
            total = float(sample.value)
    if not seen:
        return None
    buckets.sort(key=lambda pair: pair[0])
    bounds = tuple(edge for edge, _ in buckets)
    cumulative = [cum for _, cum in buckets]
    cumulative.append(inf_cum if inf_cum is not None else float(count))
    counts: List[int] = []
    previous = 0.0
    for cum in cumulative:
        counts.append(int(max(0.0, cum - previous)))
        previous = cum
    return HistogramSnapshot(
        name=name, bounds=bounds, counts=tuple(counts), count=count, sum=total
    )


def _sanitize(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _fmt(value: float) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return repr(value)


def _escape_label_value(value: object) -> str:
    """Escape per the Prometheus text format: backslash first, then
    the quote and newline (the only characters the format escapes)."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _exposition_name(sample: Sample) -> str:
    metric = _sanitize(sample.name)
    if not sample.labels:
        return metric
    rendered = ",".join(
        f'{_sanitize(k)}="{_escape_label_value(v)}"'
        for k, v in sorted(sample.labels.items())
    )
    return f"{metric}{{{rendered}}}"
