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
An event whose ``at`` is not finite (``inf``, ``nan``) has no place on
that clock: it is skipped, so it neither samples nor moves a watermark.

Row schema (one JSON object per line in ``series.jsonl``)::

    {"at": 12.0, "trigger": "watermark", "metrics": {"name{k=v}": 3.0, ...}}

``trigger`` is ``"start"`` for the first row, ``"watermark"`` for interval
crossings (stamped at the watermark boundary), or the forcing event kind
(``"refine"`` / ``"breaker"`` / ``"batch"``).
"""

from __future__ import annotations

import json
from array import array
from itertools import compress, count, repeat
from json.encoder import encode_basestring_ascii
from math import inf, isfinite, nextafter
from operator import attrgetter, ne
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
        sink: optional callable handed each row as its ``json.dumps``
            line (no newline) instead of keeping it: with a sink the
            recorder builds no row dict and :attr:`rows` stays empty (the
            ledger's ``series.jsonl`` writer).
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        interval: float = 1.0,
        sink: Callable[[str], None] | None = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.registry = registry
        self.interval = float(interval)
        self.sink = sink
        self.rows: list[dict[str, Any]] = []
        #: virtual time of the next watermark row; None before the first
        #: event.  An event earlier than it samples only if it forces one.
        self.next_watermark: float | None = None
        # Display names and instruments, cached against the registry's
        # registration version, so each sample is a plain value sweep
        # rather than a full collect-and-sort of the registry.
        self._names: list[str] = []
        self._instruments: list[Counter | Gauge] = []
        #: per instrument: its name encoded as ``"name": ``, its last
        #: ``"name": value`` text, and (all at once) its last value's bits.
        self._heads: list[str] = []
        self._texts: list[str] = []
        self._bits: array | list[int] = []
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
        """EventLog subscriber: advance watermarks, force regime samples.

        An event past several watermarks records one row for each, all
        alike but their stamps; collapsing them would change the ledger's
        bytes, so they stay.  Where the clock is too coarse for a step of
        ``interval`` (a watermark near ``2**53 * interval``) the watermark
        jumps past the event after its row: a loop that added ``interval``
        there would never end.
        """
        # Fast path: an event before the next watermark that forces
        # nothing records no row.
        watermark = self.next_watermark
        if (
            watermark is not None
            and event.at < watermark
            and event.kind not in FORCED_SAMPLE_KINDS
        ):
            return
        if not isfinite(event.at):
            # No place on the clock (inf or nan): such an event can neither
            # set nor cross a watermark, nor date a row, so it is skipped.
            return
        if watermark is None:
            self._record(event.at, "start")
            self.next_watermark = event.at + self.interval
        else:
            # Lane-folded events may arrive with earlier timestamps
            # than the merged clock; only forward crossings sample.
            while event.at >= self.next_watermark:
                self._record(self.next_watermark, "watermark")
                following = self.next_watermark + self.interval
                if following == self.next_watermark:
                    following = nextafter(event.at, inf)
                self.next_watermark = following
        if event.kind in FORCED_SAMPLE_KINDS:
            self._record(event.at, event.kind.value)

    def sample(self, at: float, trigger: str = "manual") -> dict[str, Any] | None:
        """Record one sample now (e.g. a final sample at finalization);
        returns its row, or None when a sink took the line."""
        return self._record(at, trigger)

    def _scan_instruments(self) -> None:
        version = self.registry.version
        if version != self._instruments_version:
            # A display name two label sets share keeps its first place and
            # the last one's value, as in a dict of the row.
            named: dict[str, Counter | Gauge] = {}
            for name, _kind, _help, samples in self.registry.collect():
                for labels, instrument in samples:
                    if isinstance(instrument, (Counter, Gauge)):
                        named[_sample_name(name, labels)] = instrument
            self._names = list(named)
            self._instruments = list(named.values())
            self._heads = [encode_basestring_ascii(n) + ": " for n in named]
            # Bits -1, which no float has: the next row renders every text.
            self._texts, self._bits = [""] * len(named), [-1] * len(named)
            self._instruments_version = version

    def _record(self, at: float, trigger: str) -> dict[str, Any] | None:
        self._scan_instruments()
        values = list(map(float, map(_VALUE, self._instruments)))
        at = round(at, 6)
        if self.sink is None:
            metrics = dict(zip(self._names, map(round, values, repeat(6))))
            row = {"at": at, "trigger": trigger, "metrics": metrics}
            self.rows.append(row)
            return row
        # The row as ``json.dumps`` writes it.  Only a value whose bits
        # changed since the last row is rounded and rendered again; an
        # integral float is its own rounding.
        bits = array("Q", array("d", values).tobytes())
        texts, heads = self._texts, self._heads
        for index in compress(count(), map(ne, bits, self._bits)):
            value = values[index]
            texts[index] = heads[index] + (
                repr(value) if value.is_integer() else _number_text(round(value, 6))
            )
        self._bits = bits
        self.sink(
            _ROW % (_number_text(at), encode_basestring_ascii(trigger), ", ".join(texts))
        )
        return None
