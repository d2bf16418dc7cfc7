"""Metric primitives: counters, gauges, and fixed-bucket histograms.

The registry is the numeric half of the observability layer (the span
tree in :mod:`repro.obs.spans` is the structural half).  It follows the
Prometheus data model — families of samples distinguished by label sets —
because that is what the text exposition exporter and every downstream
dashboard expect:

- :class:`Counter` — monotonically increasing totals (events, tokens);
- :class:`Gauge` — point-in-time values, optionally *pulled* from a
  callback at read time (cache occupancy, hit rates);
- :class:`Histogram` — fixed-bucket latency/size distributions with
  p50/p95/p99 estimation by linear interpolation inside the bucket, the
  same math as PromQL's ``histogram_quantile``.

Everything is plain Python on the virtual-clock timeline: deterministic,
dependency-free, and cheap enough for the hot path.  Instruments and the
registry belong to the run that updates them (one thread), so they take
no locks.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Callable, Iterator, Sequence

from repro.errors import ObservabilityError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "TOKEN_BUCKETS",
]

#: default buckets for simulated-seconds latencies (upper bounds).
LATENCY_BUCKETS: tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0,
)

#: default buckets for token counts per call.
TOKEN_BUCKETS: tuple[float, ...] = (
    8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192,
)

#: a label set, normalized to a sorted tuple for hashing.
LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        if amount < 0:
            raise ObservabilityError(f"counter increments must be >= 0: {amount}")
        self.value += amount


class Gauge:
    """A point-in-time value; may be backed by a pull callback."""

    __slots__ = ("_value", "_fn")

    def __init__(self) -> None:
        self._value: float = 0.0
        self._fn: Callable[[], float] | None = None

    def set(self, value: float) -> None:
        """Record the current value (clears any pull callback)."""
        self._value = float(value)
        self._fn = None

    def set_function(self, fn: Callable[[], float]) -> None:
        """Read the value from ``fn`` at collection time (pull-style)."""
        self._fn = fn

    @property
    def value(self) -> float:
        """The current value (invoking the pull callback when set)."""
        if self._fn is not None:
            return float(self._fn())
        return self._value


class Histogram:
    """Fixed-bucket distribution with quantile estimation.

    ``buckets`` are the finite upper bounds; an implicit +Inf bucket
    catches the overflow.  Quantiles interpolate linearly within the
    winning bucket (overflow quantiles return the observed maximum, which
    is tighter than PromQL's "largest finite bound" convention and
    possible here because we track min/max exactly).
    """

    __slots__ = ("bounds", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, buckets: Sequence[float] = LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ObservabilityError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ObservabilityError(
                f"bucket bounds must be strictly increasing: {bounds}"
            )
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +1 for +Inf
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        # The first bound >= value; NaN compares false to every bound, so
        # it lands in the overflow bucket.
        bounds = self.bounds
        index = bisect_left(bounds, value) if value == value else len(bounds)
        self.bucket_counts[index] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (q in [0, 1]); 0 when empty.

        Degenerate distributions are exact, not interpolated: a
        single-sample histogram (and any all-equal sample set) returns the
        observed value for every ``q``.  Interpolated estimates are clamped
        to the observed ``[min, max]`` envelope, so quantiles are monotone
        in ``q`` and never exceed the true maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile must be in [0, 1]: {q}")
        if self.count == 0:
            return 0.0
        if self.min == self.max:
            # One sample, or every sample equal: the quantile is known
            # exactly — interpolating inside the bucket would invent
            # spread that was never observed.
            return self.min
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.bucket_counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if i == len(self.bounds):
                    return self.max  # overflow bucket: exact max is known
                lower = self.bounds[i - 1] if i else max(self.min, 0.0)
                lower = min(lower, self.bounds[i])
                upper = self.bounds[i]
                fraction = (rank - previous) / bucket_count
                value = lower + (upper - lower) * fraction
                return min(max(value, self.min), self.max)
        return self.max

    def cumulative_counts(self) -> list[tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, ending with +Inf."""
        pairs: list[tuple[float, int]] = []
        running = 0
        for bound, bucket_count in zip(self.bounds, self.bucket_counts):
            running += bucket_count
            pairs.append((bound, running))
        pairs.append((math.inf, running + self.bucket_counts[-1]))
        return pairs


class MetricsRegistry:
    """Get-or-create store of metric families keyed by name + labels.

    A *family* is one metric name with one type and help string; its
    *children* are the per-label-set instruments.  Requesting the same
    (name, labels) twice returns the same instrument, so call sites stay
    declarative: ``registry.counter("spear_events_total", kind="generate")``.
    """

    def __init__(self) -> None:
        #: name -> (type, help, {label_key: instrument})
        self._families: dict[str, tuple[str, str, dict[LabelKey, object]]] = {}
        #: bumped on every new instrument registration; instruments are
        #: never removed, so an unchanged version means an unchanged
        #: instrument set — periodic samplers key their caches on it.
        self._version = 0

    @property
    def version(self) -> int:
        """Registration version: increases iff a new instrument appeared."""
        return self._version

    def _family(
        self, name: str, kind: str, help_text: str
    ) -> dict[LabelKey, object]:
        family = self._families.get(name)
        if family is None:
            children: dict[LabelKey, object] = {}
            self._families[name] = (kind, help_text, children)
            return children
        existing_kind, existing_help, children = family
        if existing_kind != kind:
            raise ObservabilityError(
                f"metric {name!r} already registered as {existing_kind}, "
                f"not {kind}"
            )
        if help_text and not existing_help:
            self._families[name] = (kind, help_text, children)
        return children

    def _child(
        self, name: str, kind: str, help_text: str, labels: dict[str, str], make
    ) -> Any:
        children = self._family(name, kind, help_text)
        key = _label_key(labels)
        child = children.get(key)
        if child is None:
            child = children[key] = make()
            self._version += 1
        return child

    def counter(self, name: str, help_text: str = "", **labels: str) -> Counter:
        """Get or create the counter ``name{labels}``."""
        return self._child(name, "counter", help_text, labels, Counter)

    def gauge(self, name: str, help_text: str = "", **labels: str) -> Gauge:
        """Get or create the gauge ``name{labels}``."""
        return self._child(name, "gauge", help_text, labels, Gauge)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        *,
        buckets: Sequence[float] = LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        """Get or create the histogram ``name{labels}``."""
        return self._child(
            name, "histogram", help_text, labels, lambda: Histogram(buckets)
        )

    # -- read side ----------------------------------------------------------

    def collect(
        self,
    ) -> Iterator[tuple[str, str, str, list[tuple[dict[str, str], object]]]]:
        """Yield (name, type, help, [(labels, instrument), ...]) families,
        names sorted, children sorted by label set."""
        families = {
            name: (kind, help_text, dict(children))
            for name, (kind, help_text, children) in self._families.items()
        }
        for name in sorted(families):
            kind, help_text, children = families[name]
            samples = [
                (dict(key), instrument)
                for key, instrument in sorted(children.items())
            ]
            yield name, kind, help_text, samples

    def get(self, name: str, **labels: str) -> object | None:
        """The instrument registered under (name, labels), or None."""
        family = self._families.get(name)
        if family is None:
            return None
        return family[2].get(_label_key(labels))

    def names(self) -> list[str]:
        """All registered family names, sorted."""
        return sorted(self._families)

    def sum_counter(self, name: str) -> float:
        """Total of a counter family across every label set (0 if absent)."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        kind, _, children = family
        if kind != "counter":
            raise ObservabilityError(f"metric {name!r} is a {kind}, not a counter")
        return sum(child.value for child in children.values())  # type: ignore[attr-defined]
