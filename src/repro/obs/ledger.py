"""The persistent run ledger: observability that survives the process.

Every Executor / ParallelBatchRunner / RefinementLoop run can open a
:class:`RunLedger` (wired through ``RuntimeOptions(ledger_dir=...)``)
that persists an inspectable ``runs/<run_id>/`` directory:

- ``manifest.json`` — run identity: model profile, options summary, the
  pipeline's operator footprint, status (``running`` until finalized —
  a crash leaves it behind as the tombstone), wall-clock bookkeeping;
- ``events.jsonl`` — the lossless tagged event stream (the same format
  as :func:`repro.runtime.tracing.export_events`), streamed as the run
  executes so ``spear top`` can tail an in-progress run;
- ``report.json`` — the :class:`~repro.obs.report.RunReport` built from
  exactly this run's events at finalization;
- ``attribution.json`` — the per-``(prompt_key, version)``
  :class:`~repro.obs.attribution.AttributionReport`;
- ``series.jsonl`` — :class:`~repro.obs.timeseries.SeriesRecorder` rows.

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
import os
import threading
import time
import weakref
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.errors import SpearError
from repro.obs.attribution import AttributionReport, build_attribution
from repro.obs.report import Pricing, RunReport
from repro.obs.timeseries import SeriesRecorder
from repro.runtime.events import Event, EventLog
from repro.runtime.tracing import _encode_value

__all__ = ["RunLedger", "Ledger", "LedgerRun", "ledger_scope"]

#: events are flushed to disk at least this often (event count), so a
#: tailing ``spear top`` sees fresh lines without per-event fsync cost.
_FLUSH_EVERY = 64

#: exact scalar types that need no tagged encoding.  ``type() in`` (not
#: ``isinstance``) so str/int-backed enums — which must be tagged for the
#: lossless round-trip — fall through to the slow path.
_JSON_SCALARS = (str, int, float, bool, type(None))


def _plain(value: Any) -> bool:
    """True for a JSON scalar or a (nested) list/tuple of them: values
    ``json.dumps`` writes exactly as the tagged encoding would."""
    kind = type(value)
    if kind in _JSON_SCALARS:
        return True
    return (kind is list or kind is tuple) and all(map(_plain, value))


#: the C encoder ``json.dumps`` builds on every call with its defaults,
#: built once: the same bytes for the plain values the ledger writes.
_ENCODER = c_make_encoder and c_make_encoder(
    None, None, encode_basestring_ascii, None, ": ", ", ", False, False, True
)


def _dumps(value: Any) -> str:
    return "".join(_ENCODER(value, 0)) if _ENCODER else json.dumps(value)


def _line_template(kind: Any, operator: str) -> str:
    """The ``events.jsonl`` line of one (kind, operator), as ``json.dumps``
    writes an event record, with ``%d`` / ``%s`` slots for its seq, at and
    payload: ``%d`` and ``repr`` print an int and a finite float exactly as
    it does."""
    head = '{"seq": %%d, "kind": %s, "operator": %s, ' % (
        _dumps(kind.value), _dumps(operator).replace("%", "%%")
    )
    return head + '"at": %s, "payload": %s}'


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
        self._captured: list[Event] = []
        #: (kind value, operator) -> its line template; the last ``at``
        #: encoded and its text (consecutive events often share one).
        self._templates: dict[tuple[str, str], str] = {}
        self._at: Any = None
        self._at_text = ""
        self._recorder: SeriesRecorder | None = None
        self._collector: Any = None
        self._log: EventLog | None = None
        self._written = 0
        self._finalized = False

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
        collector: Any = None,
        series_interval: float = 1.0,
    ) -> None:
        """Start persisting: subscribe to ``log``, write the manifest.

        ``registry`` (a :class:`~repro.obs.metrics.MetricsRegistry`)
        enables time-series sampling into ``series.jsonl``; without one
        the series file is still created, just empty.  ``collector`` (the
        runner's live :class:`~repro.obs.collector.ObsCollector`, whose
        registry is used when ``registry`` is None) lets finalization
        reuse already-accrued metrics instead of replaying every event.
        """
        self._collector = collector
        if registry is None and collector is not None:
            registry = collector.registry
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
        if registry is not None:
            # Driven from _on_event rather than its own subscription: one
            # subscriber dispatch per event instead of two.
            self._recorder = SeriesRecorder(
                registry, interval=series_interval, sink=self._write_series_row
            )
        self._log = log
        log.subscribe(self._on_event)

    def _on_event(self, event: Event) -> None:
        if self._recorder is not None:
            self._recorder.on_event(event)
        self._captured.append(event)
        if (
            self._events_handle is not None
            and len(self._captured) - self._written >= _FLUSH_EVERY
        ):
            self._flush_events()

    def _flush_events(self) -> None:
        """Encode and write every captured-but-unwritten event, batched.

        Encoding is deferred to flush time and batched into one write so
        the per-event subscriber stays cheap.
        """
        handle = self._events_handle
        if handle is None or self._written >= len(self._captured):
            return
        batch = self._captured[self._written :]
        self._written = len(self._captured)
        handle.write("\n".join(map(self._line, batch)) + "\n")
        handle.flush()

    def _line(self, event: Event) -> str:
        """``json.dumps(_encode_value(event.to_dict()))``, cheaply.

        An event with an int ``seq``, a finite float ``at`` and a payload
        of JSON scalars and lists of them (nearly every event) is one
        ``%``-format of its (kind, operator) template over its seq, at and
        encoded payload; an empty payload (operator start/end) never
        reaches the encoder.  Anything else takes the tagged encoding.
        """
        seq, at, payload = event.seq, event.at, event.payload
        if type(seq) is int and type(at) is float and at - at == 0.0:
            if not payload:
                body = "{}"
            elif all(map(_plain, payload.values())):
                body = _dumps(payload if type(payload) is dict else dict(payload))
            else:
                body = None
            if body is not None:
                kind, operator = event.kind, event.operator
                # ``_value_``, not the enum itself: Enum hashes in Python.
                key = (kind._value_, operator)
                template = self._templates.get(key)
                if template is None:
                    template = self._templates[key] = _line_template(kind, operator)
                if at is not self._at:  # ``_at`` keeps it alive: no id reuse
                    self._at, self._at_text = at, repr(at)
                return template % (seq, self._at_text, body)
        return _dumps(_encode_value(event.to_dict()))

    def _write_series_row(self, row: dict[str, Any]) -> None:
        handle = self._series_handle
        if handle is not None:
            handle.write(self._recorder.last_line + "\n")

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
        log = self._log
        if log is not None:
            log.unsubscribe(self._on_event)
        if self._recorder is not None and self._captured:
            self._recorder.sample(self._captured[-1].at, "final")
        self._flush_events()
        for handle in (self._events_handle, self._series_handle):
            if handle is not None:
                handle.flush()
                handle.close()
        self._events_handle = self._series_handle = None

        # Report + attribution must cover exactly this run's events.  When
        # the runner's live collector demonstrably saw the same window
        # (its universal per-kind event counter matches the captured
        # count), its already-accrued metrics are reused; otherwise the
        # captured events are replayed into a fresh collector.
        from repro.obs.report import build_report, build_run_report

        report = None
        collector = self._collector
        if collector is not None:
            seen = collector.registry.sum_counter("spear_events_total")
            if int(seen) == len(self._captured):
                report = build_report(collector, pricing=pricing)
        if report is None:
            replay = EventLog()
            replay.extend(self._captured)
            report = build_run_report(replay, pricing=pricing)
        _atomic_write_json(self.path / "report.json", report.to_dict())
        attribution = build_attribution(self._captured, pricing=pricing)
        _atomic_write_json(self.path / "attribution.json", attribution.to_dict())

        self.manifest["status"] = status
        self.manifest["event_count"] = len(self._captured)
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

    def report(self) -> RunReport:
        """The persisted :class:`RunReport` (finalized runs only)."""
        path = self.path / "report.json"
        if not path.exists():
            raise SpearError(
                f"{self.path}: no report.json (run status: {self.status})"
            )
        return RunReport.from_dict(json.loads(path.read_text(encoding="utf-8")))

    def attribution(self) -> AttributionReport:
        """The persisted :class:`AttributionReport` (finalized runs only)."""
        path = self.path / "attribution.json"
        if not path.exists():
            raise SpearError(
                f"{self.path}: no attribution.json (run status: {self.status})"
            )
        return AttributionReport.from_dict(
            json.loads(path.read_text(encoding="utf-8"))
        )

    def events(self) -> EventLog:
        """Reload the persisted event stream (lossless round-trip)."""
        from repro.runtime.tracing import import_events

        return import_events(self.path / "events.jsonl")

    def series(self) -> list[dict[str, Any]]:
        """The recorded time-series rows, oldest first."""
        path = self.path / "series.jsonl"
        if not path.exists():
            return []
        rows: list[dict[str, Any]] = []
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    rows.append(json.loads(line))
        return rows


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

