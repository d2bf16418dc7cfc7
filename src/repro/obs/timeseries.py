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

import threading
from typing import Any, Callable

from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.runtime.events import Event, EventKind, EventLog

__all__ = ["SeriesRecorder", "FORCED_SAMPLE_KINDS"]

#: event kinds that force an immediate sample regardless of the watermark.
FORCED_SAMPLE_KINDS = frozenset(
    {EventKind.REFINE, EventKind.BREAKER, EventKind.BATCH}
)


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
            (the ledger passes a JSONL writer); rows also accumulate in
            :attr:`rows` either way.
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
        self._next_watermark: float | None = None
        self._lock = threading.Lock()
        # (display name, instrument) pairs cached against the registry's
        # registration version, so each sample is a plain value sweep
        # rather than a full collect-and-sort of the registry.
        self._instruments: list[tuple[str, Counter | Gauge]] = []
        self._instruments_version = -1

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
        with self._lock:
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
        with self._lock:
            return self._record(at, trigger)

    def _scan_instruments(self) -> list[tuple[str, Counter | Gauge]]:
        version = self.registry.version
        if version != self._instruments_version:
            pairs: list[tuple[str, Counter | Gauge]] = []
            for name, _kind, _help, samples in self.registry.collect():
                for labels, instrument in samples:
                    if isinstance(instrument, (Counter, Gauge)):
                        pairs.append((_sample_name(name, labels), instrument))
            self._instruments = pairs
            self._instruments_version = version
        return self._instruments

    def _record(self, at: float, trigger: str) -> dict[str, Any]:
        metrics = {
            name: round(float(instrument.value), 6)
            for name, instrument in self._scan_instruments()
        }
        row = {"at": round(at, 6), "trigger": trigger, "metrics": metrics}
        self.rows.append(row)
        if self.sink is not None:
            self.sink(row)
        return row
