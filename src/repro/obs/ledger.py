"""The persistent run ledger: observability that survives the process.

Every Executor / ParallelBatchRunner / RefinementLoop run can open a
:class:`RunLedger` (wired through ``RuntimeOptions(ledger_dir=...)``)
that persists an inspectable ``runs/<run_id>/`` directory:

- ``manifest.json`` — run identity: model profile, options summary, the
  pipeline's operator footprint, status (``running`` until finalized —
  a crash leaves it behind as the tombstone), wall-clock bookkeeping;
- ``events.jsonl`` — the lossless tagged event stream (the same format
  as :func:`repro.runtime.tracing.export_events`).  The log is the
  capture: the ledger keeps the offset it opened at and writes the log
  from there, in log order, a batch every ``_FLUSH_EVERY`` delivered
  events, so ``spear top`` can tail an in-progress run;
- ``report.json`` — the :class:`~repro.obs.report.RunReport` of the one
  collector that saw exactly this run: the runner's when it had seen no
  event at open, else a private one on the same model and result cache;
- ``attribution.json`` — the per-``(prompt_key, version)``
  :class:`~repro.obs.attribution.AttributionReport`;
- ``series.jsonl`` — :class:`~repro.obs.timeseries.SeriesRecorder` rows,
  handed over as lines (no row dicts) and flushed with the events.

Each event costs the ledger one callback (the series watermark test and
the flush count); its line is encoded with its batch.

Finalization is crash-safe: every JSON document is written to a temp
file and atomically renamed into place, and the manifest's status flips
``running -> completed`` (or ``failed``) last, so readers never observe
a half-written run as finished.

The read side is :class:`Ledger` (``list`` / ``load`` / ``latest``)
returning :class:`LedgerRun` handles.  Namespacing ledger directories
per tenant is just choosing different roots.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import threading
import time
import weakref
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.errors import SpearError
from repro.obs.attribution import AttributionReport, build_attribution
from repro.obs.collector import ObsCollector
from repro.obs.report import Pricing, RunReport, build_report
from repro.obs.timeseries import FORCED_SAMPLE_KINDS, SeriesRecorder
from repro.runtime.events import Event, EventLog
from repro.runtime.tracing import _encode_value

__all__ = ["RunLedger", "Ledger", "LedgerRun", "ledger_scope"]

#: events are flushed to disk at least this often (event count), so a
#: tailing ``spear top`` sees fresh lines without per-event fsync cost.
_FLUSH_EVERY = 64

#: exact scalar types that need no tagged encoding.  Exact types (not
#: ``isinstance``) so str/int-backed enums — which must be tagged for the
#: lossless round-trip — fall through to the slow path.
_SCALARS = frozenset((str, int, float, bool, type(None)))

#: the kinds that force a series sample, as a tuple: ``in`` tests identity
#: first, where a set would hash the enum in Python.
_FORCED = tuple(FORCED_SAMPLE_KINDS)


def _plain(value: Any) -> bool:
    """True for a JSON scalar or a (nested) list/tuple of them: values
    ``json.dumps`` writes exactly as the tagged encoding would."""
    kind = type(value)
    if kind in _SCALARS:
        return True
    return (kind is list or kind is tuple) and all(map(_plain, value))


#: the C encoder ``json.dumps`` builds on every call with its defaults,
#: built once: the same bytes for the plain values the ledger writes.
_ENCODER = c_make_encoder and c_make_encoder(
    None, None, encode_basestring_ascii, None, ": ", ", ", False, False, True
)


def _dumps(value: Any) -> str:
    return "".join(_ENCODER(value, 0)) if _ENCODER else json.dumps(value)


#: (kind value, operator) -> the text between an event line's seq and at,
#: shared by every ledger (it depends on nothing else); cleared when it
#: reaches the limit.
_MIDDLES: dict[tuple[str, str], str] = {}
_MIDDLE_LIMIT = 1 << 16


def _atomic_write_json(path: Path, payload: dict[str, Any]) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(
        json.dumps(payload, indent=2, sort_keys=False) + "\n", encoding="utf-8"
    )
    os.replace(tmp, path)


class RunLedger:
    """One ``runs/<run_id>/`` directory being written by a live run."""

    def __init__(self, root: str | Path, run_id: str) -> None:
        self.root = Path(root)
        self.run_id = run_id
        self.path = self.root / run_id
        self.manifest: dict[str, Any] = {}
        self._events_handle: Any = None
        self._series_handle: Any = None
        self._log: EventLog | None = None
        #: log offsets where this run starts and up to which it is written,
        #: and the events delivered since the last flush.
        self._start = self._written = self._unflushed = 0
        self._recorder: SeriesRecorder | None = None
        #: the recorder's next watermark, mirrored for the per-event test.
        self._watermark = -math.inf
        self._series_lines: list[str] = []
        self._collector: ObsCollector | None = None
        self._private = self._finalized = False

    # -- creation ------------------------------------------------------------

    @classmethod
    def create(cls, root: str | Path) -> "RunLedger":
        """Allocate the next sequential run id under ``root``."""
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        taken = [
            int(entry.name)
            for entry in root.iterdir()
            if entry.is_dir() and entry.name.isdigit()
        ]
        next_id = (max(taken) + 1) if taken else 1
        ledger = cls(root, f"{next_id:06d}")
        ledger.path.mkdir(parents=True, exist_ok=False)
        return ledger

    # -- live write side -----------------------------------------------------

    def open(
        self,
        log: EventLog,
        *,
        manifest: dict[str, Any] | None = None,
        registry: Any = None,
        collector: ObsCollector | None = None,
        series_interval: float = 1.0,
        model: Any = None,
        result_cache: Any = None,
    ) -> None:
        """Start persisting ``log`` from its current end; write the manifest.

        The report comes from one collector that sees exactly this run: the
        runner's ``collector`` if it has seen no event, else a private one
        on ``model`` and ``result_cache``.  It is subscribed after the
        ledger, and ``series.jsonl`` samples its registry (or ``registry``).
        """
        if collector is None or collector.registry.sum_counter("spear_events_total"):
            collector, self._private = ObsCollector(), True
            if model is not None:
                collector.attach_model(model)
            if result_cache is not None:
                collector.attach_result_cache(result_cache)
        self._collector = collector
        self.manifest = {
            "run_id": self.run_id,
            "status": "running",
            "created_at_unix": round(time.time(), 3),
            **(manifest or {}),
        }
        _atomic_write_json(self.path / "manifest.json", self.manifest)
        self._events_handle = (self.path / "events.jsonl").open(
            "w", encoding="utf-8"
        )
        self._series_handle = (self.path / "series.jsonl").open(
            "w", encoding="utf-8"
        )
        self._recorder = SeriesRecorder(
            registry if registry is not None else collector.registry,
            interval=series_interval,
            sink=self._series_lines.append,
        )
        self._log = log
        self._start = self._written = len(log)
        log.subscribe(self._on_event)
        collector.subscribe_to(log)

    def _on_event(self, event: Event) -> None:
        """The one per-event cost: the series watermark test and the flush
        count.  The event itself is read back from the log at flush."""
        # The recorder's own early-out, negated: NaN samples as it would.
        if not event.at < self._watermark or event.kind in _FORCED:
            self._recorder.on_event(event)
            # None until a finite event starts the series.
            watermark = self._recorder.next_watermark
            self._watermark = -math.inf if watermark is None else watermark
        self._unflushed += 1
        if self._unflushed >= _FLUSH_EVERY:
            self._flush_events()

    def _flush_events(self) -> None:
        """Write the log's unwritten events and the pending series rows."""
        self._unflushed = 0
        batch = self._log.since(self._written)
        if batch:
            self._written += len(batch)
            self._events_handle.write("\n".join(self._lines(batch)) + "\n")
            self._events_handle.flush()
        lines = self._series_lines
        if lines:
            self._series_handle.write("\n".join(lines) + "\n")
            self._series_handle.flush()
            lines.clear()

    def _lines(self, events: list[Event]) -> list[str]:
        """Each event's ``json.dumps(_encode_value(event.to_dict()))``.

        An event with an int ``seq``, a finite float ``at`` and a payload
        of JSON scalars and lists of them (nearly every event) is one
        f-string over its seq, the fixed text of its (kind, operator), its
        ``repr(at)`` and its encoded payload; an empty payload (operator
        start/end) never reaches the encoder.  Anything else takes the
        tagged encoding.
        """
        middles, lines = _MIDDLES, []
        append = lines.append
        last_at = at_text = None
        for event in events:
            at = event.at
            # Consecutive events often share one ``at`` object, which
            # ``last_at`` keeps alive (so its id is not reused).
            if at is not last_at:
                last_at = at
                finite = type(at) is float and at - at == 0.0
                at_text = repr(at) if finite else None
            payload = event.payload
            if not payload:
                body = "{}"
            elif _SCALARS.issuperset(map(type, payload.values())) or all(
                map(_plain, payload.values())
            ):
                body = _dumps(payload if type(payload) is dict else dict(payload))
            else:
                body = None
            seq = event.seq
            if body is None or at_text is None or type(seq) is not int:
                append(_dumps(_encode_value(event.to_dict())))
                continue
            # ``_value_``, not the enum itself: Enum hashes in Python.
            key = (event.kind._value_, event.operator)
            middle = middles.get(key)
            if middle is None:
                if len(middles) >= _MIDDLE_LIMIT:
                    middles.clear()
                middle = middles[key] = (
                    f', "kind": {_dumps(key[0])}, "operator": {_dumps(key[1])}, "at": '
                )
            # An int's and a finite float's text is what ``json.dumps`` writes.
            append(f'{{"seq": {seq}{middle}{at_text}, "payload": {body}}}')
        return lines

    def finalize(
        self,
        *,
        status: str = "completed",
        pricing: Pricing | None = None,
        extra_manifest: dict[str, Any] | None = None,
    ) -> None:
        """Detach, build report + attribution, flip the manifest status.

        Idempotent: a second call is a no-op, so a crash-handling caller
        can finalize defensively.
        """
        if self._finalized:
            return
        self._finalized = True
        log, collector = self._log, self._collector
        events: list[Event] = []
        if log is not None:
            log.unsubscribe(self._on_event)
            if self._private:
                collector.unsubscribe_from(log)
                collector.detach_models()
            events = log.since(self._start)
            if events:
                self._recorder.sample(events[-1].at, "final")
            self._flush_events()
            self._events_handle.close()
            self._series_handle.close()
        report = build_report(collector or ObsCollector(), pricing=pricing)
        _atomic_write_json(self.path / "report.json", report.to_dict())
        attribution = build_attribution(events, pricing=pricing)
        _atomic_write_json(self.path / "attribution.json", attribution.to_dict())

        self.manifest["status"] = status
        self.manifest["event_count"] = len(events)
        self.manifest["finished_at_unix"] = round(time.time(), 3)
        if extra_manifest:
            self.manifest.update(extra_manifest)
        _atomic_write_json(self.path / "manifest.json", self.manifest)


#: runtime object -> the thread that first ran it (see :func:`claim_run`).
_OWNERS: "weakref.WeakKeyDictionary[Any, threading.Thread]" = (
    weakref.WeakKeyDictionary()
)


def claim_run(state: Any) -> None:
    """Bind ``state``'s model and result cache to the calling thread.

    A runtime object belongs to the thread that first runs it: its
    model (radix tier, counters, listeners, fault plan) and result cache
    take no locks, so a run from any other thread raises
    :class:`~repro.errors.SpearError` instead of racing the owner.
    """
    current = threading.current_thread()
    for obj in (state.model, state.result_cache):
        if obj is None:
            continue
        owner = _OWNERS.setdefault(obj, current)
        if owner is not current:
            raise SpearError(
                f"{type(obj).__name__} is owned by thread {owner.name!r}; "
                f"thread {current.name!r} cannot run it"
            )


@contextlib.contextmanager
def ledger_scope(
    options: Any,
    state: Any,
    *,
    manifest: Callable[[], dict[str, Any]] | None = None,
    registry: Any = None,
    collector: Any = None,
) -> Iterator[RunLedger | None]:
    """Open one :class:`RunLedger` around a top-level run — reentrantly.

    The outermost runner that enters this scope for a state owns the run
    directory; nested entries (a RefinementLoop driving Executor.run per
    iteration, an Executor invoked inside a batch) see the already-open
    ledger and change nothing.  ``manifest`` builds the run's manifest
    fields and is called only when a ledger opens, so with no
    ``options.ledger_dir`` the scope costs one :func:`claim_run`.
    """
    claim_run(state)
    ledger_dir = getattr(options, "ledger_dir", None)
    active = getattr(state, "ledger", None)
    if ledger_dir is None or active is not None:
        yield active
        return
    ledger = RunLedger.create(ledger_dir)
    ledger.open(
        state.events,
        manifest=manifest() if manifest is not None else None,
        registry=registry,
        collector=collector,
        series_interval=getattr(options, "series_interval", 1.0),
        model=state.model,
        result_cache=state.result_cache,
    )
    state.ledger = ledger
    try:
        yield ledger
    except BaseException:
        ledger.finalize(status="failed")
        raise
    else:
        ledger.finalize(status="completed")
    finally:
        state.ledger = None


class LedgerRun:
    """Read-side handle on one persisted ``runs/<run_id>/`` directory."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        manifest_path = self.path / "manifest.json"
        if not manifest_path.exists():
            raise SpearError(f"{self.path}: not a ledger run (no manifest.json)")
        self.manifest: dict[str, Any] = json.loads(
            manifest_path.read_text(encoding="utf-8")
        )

    @property
    def run_id(self) -> str:
        return str(self.manifest.get("run_id", self.path.name))

    @property
    def status(self) -> str:
        """``running`` (in progress *or* crashed), ``completed``, ``failed``."""
        return str(self.manifest.get("status", "unknown"))

    def _document(self, name: str) -> dict[str, Any]:
        path = self.path / name
        if not path.exists():
            raise SpearError(f"{self.path}: no {name} (run status: {self.status})")
        return json.loads(path.read_text(encoding="utf-8"))

    def report(self) -> RunReport:
        """The persisted :class:`RunReport` (finalized runs only)."""
        return RunReport.from_dict(self._document("report.json"))

    def attribution(self) -> AttributionReport:
        """The persisted :class:`AttributionReport` (finalized runs only)."""
        return AttributionReport.from_dict(self._document("attribution.json"))

    def events(self) -> EventLog:
        """Reload the persisted event stream (lossless round-trip)."""
        from repro.runtime.tracing import import_events

        return import_events(self.path / "events.jsonl")

    def series(self) -> list[dict[str, Any]]:
        """The recorded time-series rows, oldest first."""
        path = self.path / "series.jsonl"
        if not path.exists():
            return []
        lines = path.read_text(encoding="utf-8").split("\n")
        return [json.loads(line) for line in lines if line.strip()]


class Ledger:
    """Read API over a ledger root: ``list`` / ``load`` / ``latest``."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def list(self) -> list[str]:
        """Run ids under the root, oldest first."""
        if not self.root.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if entry.is_dir() and (entry / "manifest.json").exists()
        )

    def load(self, run_id: str) -> LedgerRun:
        """Load one run by id."""
        path = self.root / run_id
        if not path.is_dir():
            raise SpearError(
                f"{self.root}: no such run {run_id!r} "
                f"(available: {', '.join(self.list()) or 'none'})"
            )
        return LedgerRun(path)

    def latest(self) -> LedgerRun | None:
        """The most recent run, or None when the root is empty."""
        run_ids = self.list()
        return self.load(run_ids[-1]) if run_ids else None


def describe_pipeline(pipeline: Any) -> dict[str, Any]:
    """Manifest-ready identity of a pipeline: name + operator labels."""
    operators = [
        getattr(op, "label", type(op).__name__)
        for op in getattr(pipeline, "operators", [])
    ]
    return {
        "name": getattr(pipeline, "name", None),
        "operators": operators,
    }


def describe_options(options: Any) -> dict[str, Any]:
    """Manifest-ready summary of the runtime options in effect."""
    model = getattr(options, "model", None)
    profile = getattr(model, "profile", None)
    scheduler = getattr(options, "scheduler", None)
    if scheduler is not None:
        # A SchedulerConfig: record the policy knobs so two ledgered runs
        # are comparable on batch formation.
        scheduler = {
            "max_batch_tokens": scheduler.max_batch_tokens,
            "watermark_s": scheduler.watermark_s,
            "max_batch": scheduler.max_batch,
        }
    priority = getattr(options, "priority", None)
    deadline = getattr(options, "deadline_s", None)
    return {
        "model_profile": getattr(profile, "name", None),
        "strict": bool(getattr(options, "strict", False)),
        "result_cache": getattr(options, "result_cache", None) is not None,
        "resilience": getattr(options, "resilience", None) is not None,
        "collector": getattr(options, "collector", None) is not None,
        "series_interval": float(getattr(options, "series_interval", 1.0)),
        "scheduler": scheduler,
        # Callables (per-item attributes) are summarized, not serialized.
        "priority": (
            "<callable>"
            if callable(priority)
            else getattr(priority, "value", priority)
        ),
        "deadline_s": "<callable>" if callable(deadline) else deadline,
    }

