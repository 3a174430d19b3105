"""Typed metric instruments and the per-simulator registry.

One :class:`MetricSet` rides one :class:`~repro.sim.kernel.Simulator`
(``sim.metrics``), exactly as a :class:`~repro.trace.tracer.Tracer`
does: it is ``None`` unless a
:class:`~repro.metrics.session.MetricsSession` is installed, and every
hot instrumentation site guards with a single ``is not None`` check.

Two registration styles:

* **instruments** — :meth:`MetricSet.counter` / :meth:`~MetricSet.gauge`
  / :meth:`~MetricSet.timegauge` / :meth:`~MetricSet.histogram` return
  an object the component updates at transition points.  Used where the
  quantity is not already tracked (queue depths, bytes in flight, busy
  engines).
* **polled** — :meth:`MetricSet.polled` / :meth:`~MetricSet.polled_map`
  take a callable read at sample time.  Used for quantities the model
  already counts unconditionally (commands processed, allocator bytes,
  fault counters): the hot path pays nothing at all.

Sampling is driven by :meth:`MetricSet.advance`, called from
``Simulator.step()`` whenever simulated time crosses a multiple of the
sampling interval.  Crucially this **schedules no events**: the queue
drains exactly as it would without metrics, so event order — and every
published figure — is byte-identical with the plane enabled.

Determinism: samples land on fixed interval boundaries, series are
sampled in registration order, ``polled_map`` keys are iterated sorted,
and rows are change-compressed (a row is recorded only for the first
sample, a changed value, or the forced final sample) — so a seeded run
exports byte-identical CSV/JSONL every time.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import MetricsError
from repro.metrics.catalog import METRICS

LabelSet = Tuple[Tuple[str, str], ...]

# Values above 2**63 all land in the top bucket; 64 edges cover every
# integer quantity the simulator produces (ns, bytes, entries).
HISTOGRAM_BUCKETS = 64


def _labelset(labels: Mapping[str, Any]) -> LabelSet:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_labels(labels: LabelSet) -> str:
    """Canonical ``k=v;k2=v2`` rendering (sorted keys, no quoting)."""
    return ";".join(f"{k}={v}" for k, v in labels)


class Metric:
    """Base class: identity, sampling, and change-compression state."""

    kind = "abstract"
    #: The attribute a sample of the instrument reads.
    sampled = "value"

    __slots__ = ("name", "labels", "_sim", "_last_time", "_last_value")

    def __init__(self, name: str, labels: LabelSet, sim):
        self.name = name
        self.labels = labels
        self._sim = sim
        self._last_time: Optional[int] = None
        self._last_value: Optional[float] = None

    def _close(self, now: int) -> None:
        """Finalize time-dependent state at ``now`` (end of run)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}({self.name}"
                f"{{{format_labels(self.labels)}}})")


class Counter(Metric):
    """A monotonically increasing total."""

    kind = "counter"

    __slots__ = ("value",)

    def __init__(self, name: str, labels: LabelSet, sim):
        super().__init__(name, labels, sim)
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise MetricsError(
                f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount


class Gauge(Metric):
    """An instantaneous level; tracks its peak.

    ``set``, ``inc`` and ``dec`` each run in one frame: ``inc``/``dec``
    compute the new level and store it as ``set`` would.
    """

    kind = "gauge"

    __slots__ = ("value", "peak")

    def __init__(self, name: str, labels: LabelSet, sim):
        super().__init__(name, labels, sim)
        self.value: float = 0
        self.peak: float = 0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value

    def inc(self, amount: float = 1) -> None:
        value = self.value = self.value + amount
        if value > self.peak:
            self.peak = value

    def dec(self, amount: float = 1) -> None:
        value = self.value = self.value - amount
        if value > self.peak:
            self.peak = value


class TimeWeightedGauge(Gauge):
    """A gauge that also integrates value × time on the simulated clock,
    so ``mean()`` is the true time-weighted average, not an average of
    samples.

    Every update first adds the old level times the time it was held
    to ``integral``, then stores the new level (one frame each, as for
    :class:`Gauge`).
    """

    kind = "timegauge"

    __slots__ = ("integral", "_since", "_born")

    def __init__(self, name: str, labels: LabelSet, sim):
        super().__init__(name, labels, sim)
        self.integral: float = 0
        self._since: int = sim.now
        self._born: int = sim.now

    def set(self, value: float) -> None:
        now = self._sim.now
        self.integral += self.value * (now - self._since)
        self._since = now
        self.value = value
        if value > self.peak:
            self.peak = value

    def inc(self, amount: float = 1) -> None:
        old = self.value
        value = old + amount
        now = self._sim.now
        self.integral += old * (now - self._since)
        self._since = now
        self.value = value
        if value > self.peak:
            self.peak = value

    def dec(self, amount: float = 1) -> None:
        old = self.value
        value = old - amount
        now = self._sim.now
        self.integral += old * (now - self._since)
        self._since = now
        self.value = value
        if value > self.peak:
            self.peak = value

    def _close(self, now: int) -> None:
        self.integral += self.value * (now - self._since)
        self._since = now

    def mean(self, end: Optional[int] = None) -> float:
        """Time-weighted mean over the instrument's lifetime."""
        end = self._sim.now if end is None else end
        elapsed = end - self._born
        if elapsed <= 0:
            return 0.0
        tail = self.value * (end - self._since)
        return (self.integral + tail) / elapsed


class Histogram(Metric):
    """A distribution over fixed log2 bucket edges.

    Bucket ``i`` counts values whose ``int(value).bit_length() == i``,
    i.e. edge ``i`` covers ``[2**(i-1), 2**i - 1]`` (bucket 0 is exactly
    zero).  Integer bucketing makes the layout deterministic across
    platforms — no float binning.
    """

    kind = "histogram"
    sampled = "count"

    __slots__ = ("buckets", "count", "total")

    def __init__(self, name: str, labels: LabelSet, sim):
        super().__init__(name, labels, sim)
        self.buckets: List[int] = [0] * HISTOGRAM_BUCKETS
        self.count: int = 0
        self.total: float = 0

    def observe(self, value: float) -> None:
        if value < 0:
            raise MetricsError(
                f"histogram {self.name} observed negative value {value}")
        index = min(int(value).bit_length(), HISTOGRAM_BUCKETS - 1)
        self.buckets[index] += 1
        self.count += 1
        self.total += value

    def quantile(self, q: float) -> float:
        """Upper bucket edge at quantile ``q`` in [0, 1]; 0 when empty."""
        if not 0 <= q <= 1:
            raise MetricsError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = max(1, int(q * self.count + 0.5))
        seen = 0
        for index, bucket in enumerate(self.buckets):
            seen += bucket
            if seen >= rank:
                return float(2 ** index - 1) if index else 0.0
        return float(2 ** (HISTOGRAM_BUCKETS - 1))  # pragma: no cover


_KIND_CLASSES = {cls.kind: cls
                 for cls in (Counter, Gauge, TimeWeightedGauge, Histogram)}


class _PolledMap:
    """A polled metric over a dynamic key set (e.g. CPU cost categories).

    ``fn`` returns a ``{key: value}`` mapping; each key becomes one
    series with ``key_label=key`` added to the base labels.  Keys are
    iterated sorted and child series are created on first sight, so the
    series set and order are deterministic for a seeded run.
    """

    __slots__ = ("owner", "name", "key_label", "base_labels", "fn",
                 "children")

    def __init__(self, owner: "MetricSet", name: str, key_label: str,
                 base_labels: Mapping[str, Any],
                 fn: Callable[[], Mapping[str, float]]):
        self.owner = owner
        self.name = name
        self.key_label = key_label
        self.base_labels = dict(base_labels)
        self.fn = fn
        self.children: Dict[str, Metric] = {}

    def sample_items(self) -> List[Tuple[Metric, float]]:
        snapshot = self.fn()
        items = []
        for key in sorted(snapshot):
            child = self.children.get(key)
            if child is None:
                labels = dict(self.base_labels)
                labels[self.key_label] = key
                child = self.owner._make(self.name, labels, polled=True)
                self.children[key] = child
            items.append((child, float(snapshot[key])))
        return items


def _cataloged_kind(name: str, polled: bool) -> str:
    """``name``'s kind in the documented catalog; raises if it has
    none, or if a ``polled`` series would be neither counter nor gauge."""
    entry = METRICS.get(name)
    if entry is None:
        raise MetricsError(
            f"metric {name!r} is not in the documented catalog "
            "(repro/metrics/catalog.py); register and document it "
            "before emitting")
    kind = entry[0]
    if polled and kind not in ("counter", "gauge"):
        raise MetricsError(
            f"polled metrics must be counters or gauges; "
            f"{name!r} is a {kind}")
    return kind


class MetricSet:
    """All metrics of one simulator plus its sampling clock."""

    def __init__(self, sim, label: str, interval_ns: int):
        if interval_ns <= 0:
            raise MetricsError(
                f"sampling interval must be positive, got {interval_ns}")
        self.sim = sim
        self.label = label
        self.interval_ns = interval_ns
        self.rows: List[Tuple[int, Metric, float]] = []
        self._series: Dict[Tuple[str, LabelSet], Metric] = {}
        # What a sample reads, in registration order: (series, None)
        # for an instrument sampled by its ``value``, (series, reader)
        # for another instrument (its sampled attribute) or a polled
        # series (its callable), (None, sample_items) for a polled map.
        self._readers: List[Tuple[Optional[Metric], Callable[[], Any]]] = []
        # The first sampling boundary not yet sampled; Simulator.step()
        # calls advance() only once an event reaches it.
        self._next_sample = interval_ns
        self.finalized_at: Optional[int] = None

    # -- registration -----------------------------------------------------

    def _make(self, name: str, labels: Mapping[str, Any],
              kind: Optional[str] = None, polled: bool = False) -> Metric:
        cat_kind = _cataloged_kind(name, polled)
        if kind is not None and kind != cat_kind:
            raise MetricsError(
                f"metric {name!r} is cataloged as {cat_kind!r}, "
                f"requested as {kind!r}")
        key = (name, _labelset(labels))
        existing = self._series.get(key)
        if existing is not None:
            return existing
        metric = _KIND_CLASSES[cat_kind](name, key[1], self.sim)
        self._series[key] = metric
        return metric

    def _instrument(self, name: str, kind: str,
                    labels: Mapping[str, Any]) -> Metric:
        metric = self._make(name, labels, kind=kind)
        if all(series is not metric for series, _ in self._readers):
            self._readers.append(
                (metric, None if metric.sampled == "value"
                 else partial(getattr, metric, metric.sampled)))
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._instrument(name, "counter", labels)  # type: ignore

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._instrument(name, "gauge", labels)  # type: ignore

    def timegauge(self, name: str, **labels: Any) -> TimeWeightedGauge:
        return self._instrument(name, "timegauge", labels)  # type: ignore

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._instrument(name, "histogram", labels)  # type: ignore

    def polled(self, name: str, fn: Callable[[], float],
               **labels: Any) -> None:
        """Register ``fn`` to be read at every sample instant; its
        series is presented as a counter or gauge in the export."""
        self._readers.append((self._make(name, labels, polled=True), fn))

    def polled_map(self, name: str, key_label: str,
                   fn: Callable[[], Mapping[str, float]],
                   **labels: Any) -> None:
        """Register a keyed family of polled series (one per map key)."""
        _cataloged_kind(name, polled=True)
        self._readers.append(
            (None, _PolledMap(self, name, key_label, labels, fn).sample_items))

    # -- sampling ---------------------------------------------------------

    def advance(self, now: int) -> None:
        """Sample at the first interval boundary crossed by ``now``.

        Called from ``Simulator.step()``, only by a step whose time has
        reached ``_next_sample``; schedules nothing.  One step
        records one sample however many boundaries it crosses: model
        state is fixed for the whole crossing, so every later boundary
        would read the same values and change compression would drop
        them all.  ``sim.now`` is not: it is the crossing step's time,
        so no sampled value may read the clock.  Metering cost thus follows
        state changes, not idle simulated time.
        """
        tick = self._next_sample
        if tick <= now:
            interval = self.interval_ns
            self._next_sample = tick + ((now - tick) // interval + 1) * interval
            self._record(tick, force=False)

    def _record(self, tick: int, force: bool) -> None:
        """Append a row for each series not yet sampled at ``tick`` whose
        value changed (every such series when ``force``)."""
        rows = self.rows
        for metric, read in self._readers:
            if read is None:
                value = metric.value
            elif metric is not None:
                value = read()
            else:
                for child, value in read():   # a polled map's series
                    if (force or child._last_value != value) and (
                            child._last_time != tick):
                        child._last_time = tick
                        child._last_value = value
                        rows.append((tick, child, value))
                continue
            if (force or metric._last_value != value) and (
                    metric._last_time != tick):
                metric._last_time = tick
                metric._last_value = value
                rows.append((tick, metric, value))

    def finalize(self) -> None:
        """Close integrals and force one last sample at ``sim.now``."""
        if self.finalized_at is not None:
            return
        now = self.sim.now
        self.advance(now)
        for metric in self._series.values():
            metric._close(now)
        self._record(now, force=True)
        self.finalized_at = now

    # -- introspection ----------------------------------------------------

    def series(self) -> List[Metric]:
        """Every series created so far, in creation order."""
        return list(self._series.values())

    def get(self, name: str, **labels: Any) -> Optional[Metric]:
        return self._series.get((name, _labelset(labels)))
