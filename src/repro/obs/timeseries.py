"""Time-series sampling: metrics as plottable curves, not end-of-run scalars.

A :class:`SeriesRecorder` subscribes to an execution's
:class:`~repro.runtime.events.EventLog` and snapshots every registered
counter and gauge whenever the virtual-clock timeline crosses a watermark
(every ``interval`` simulated seconds), plus a forced sample on the events
that change regime mid-run — REFINE (a prompt version just changed),
BREAKER (a circuit flipped), and BATCH (a batch window closed).  Cache
hit-rate, breaker state, queue depth, and token totals become curves the
future adaptive controller can poll, and ``spear top`` can tail.

Rows are stamped on the *virtual* clock (the event's ``at``), never the
host clock, so two runs with the same seed produce byte-identical series.

Row schema (one JSON object per line in ``series.jsonl``)::

    {"at": 12.0, "trigger": "watermark", "metrics": {"name{k=v}": 3.0, ...}}

``trigger`` is ``"start"`` for the first row, ``"watermark"`` for interval
crossings (stamped at the watermark boundary), or the forcing event kind
(``"refine"`` / ``"breaker"`` / ``"batch"``).
"""

from __future__ import annotations

import json
from itertools import compress, count
from json.encoder import encode_basestring_ascii
from operator import attrgetter, is_not
from typing import Any, Callable

from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.runtime.events import Event, EventKind, EventLog

__all__ = ["SeriesRecorder", "FORCED_SAMPLE_KINDS"]

#: event kinds that force an immediate sample regardless of the watermark.
FORCED_SAMPLE_KINDS = frozenset(
    {EventKind.REFINE, EventKind.BREAKER, EventKind.BATCH}
)

_VALUE = attrgetter("value")

#: a row as ``json.dumps`` writes it, over its three encoded parts.
_ROW = '{"at": %s, "trigger": %s, "metrics": {%s}}'


def _number_text(value: Any) -> str:
    """``json.dumps(value)``: a finite float's repr."""
    finite = type(value) is float and value - value == 0.0
    return repr(value) if finite else json.dumps(value)


def _sample_name(name: str, labels: dict[str, str]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


class SeriesRecorder:
    """Samples a registry's counters/gauges along the virtual timeline.

    Args:
        registry: the :class:`~repro.obs.metrics.MetricsRegistry` to
            snapshot (usually the collector's).
        interval: simulated seconds between watermark samples.
        sink: optional callable invoked with each row as it is recorded
            (the ledger passes a JSONL writer, which writes
            :attr:`last_line`); rows also accumulate in :attr:`rows` either
            way.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        interval: float = 1.0,
        sink: Callable[[dict[str, Any]], None] | None = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.registry = registry
        self.interval = float(interval)
        self.sink = sink
        self.rows: list[dict[str, Any]] = []
        #: ``json.dumps`` of the last row, joined from per-metric texts.
        self.last_line = ""
        self._next_watermark: float | None = None
        # Display names and instruments, cached against the registry's
        # registration version, so each sample is a plain value sweep
        # rather than a full collect-and-sort of the registry.
        self._instruments: tuple[list[str], list[Counter | Gauge]] = ([], [])
        self._instruments_version = -1
        #: the last row's raw values, their rounding and ``"name": value``
        #: text, and each encoded ``"name": ``, per instrument.
        self._values: list[float | None] = []
        self._rounded: list[float] = []
        self._texts: list[str] = []
        self._heads: list[str] = []

    # -- wiring --------------------------------------------------------------

    def attach(self, log: EventLog) -> None:
        """Subscribe to ``log``; every future event may trigger samples."""
        log.subscribe(self.on_event)

    def detach(self, log: EventLog) -> bool:
        """Unsubscribe from ``log``."""
        return log.unsubscribe(self.on_event)

    # -- sampling ------------------------------------------------------------

    def on_event(self, event: Event) -> None:
        """EventLog subscriber: advance watermarks, force regime samples."""
        # Fast path: an event before the next watermark that forces
        # nothing records no row.
        watermark = self._next_watermark
        if (
            watermark is not None
            and event.at < watermark
            and event.kind not in FORCED_SAMPLE_KINDS
        ):
            return
        if self._next_watermark is None:
            self._record(event.at, "start")
            self._next_watermark = event.at + self.interval
        else:
            # Lane-folded events may arrive with earlier timestamps
            # than the merged clock; only forward crossings sample.
            while event.at >= self._next_watermark:
                self._record(self._next_watermark, "watermark")
                self._next_watermark += self.interval
        if event.kind in FORCED_SAMPLE_KINDS:
            self._record(event.at, event.kind.value)

    def sample(self, at: float, trigger: str = "manual") -> dict[str, Any]:
        """Record one sample now (e.g. a final sample at finalization)."""
        return self._record(at, trigger)

    def _scan_instruments(self) -> tuple[list[str], list[Counter | Gauge]]:
        version = self.registry.version
        if version != self._instruments_version:
            # A display name two label sets share keeps its first place and
            # the last one's value, as in a dict of the row.
            named: dict[str, Counter | Gauge] = {}
            for name, _kind, _help, samples in self.registry.collect():
                for labels, instrument in samples:
                    if isinstance(instrument, (Counter, Gauge)):
                        named[_sample_name(name, labels)] = instrument
            names = list(named)
            self._instruments = (names, list(named.values()))
            self._instruments_version = version
            self._values = [None] * len(names)
            self._rounded = [0.0] * len(names)
            self._texts = [""] * len(names)
            self._heads = [encode_basestring_ascii(name) + ": " for name in names]
        return self._instruments

    def _record(self, at: float, trigger: str) -> dict[str, Any]:
        names, instruments = self._scan_instruments()
        values = list(map(float, map(_VALUE, instruments)))
        # Round and render again only a changed value: a new object (an
        # unchanged counter or set gauge hands back the very float it did
        # last row, which ``_values`` keeps alive, so its id is not reused)
        # that is not an equal nonzero (a pull gauge's equal new float).
        rounded, texts, heads, last = (
            self._rounded, self._texts, self._heads, self._values
        )
        for index in compress(count(), map(is_not, values, last)):
            value = values[index]
            if value != last[index] or not value:
                value = rounded[index] = round(value, 6)
                texts[index] = heads[index] + _number_text(value)
        self._values = values
        metrics = dict(zip(names, rounded))
        row = {"at": round(at, 6), "trigger": trigger, "metrics": metrics}
        self.last_line = _ROW % (
            _number_text(row["at"]), encode_basestring_ascii(trigger), ", ".join(texts)
        )
        self.rows.append(row)
        if self.sink is not None:
            self.sink(row)
        return row
