"""Execution-trace rendering: the event log as a readable timeline.

The structured event log (paper §6) powers introspection; this module
turns it into the human-facing views a developer debugging an adaptive
pipeline wants:

- :func:`render_timeline` — one line per semantic event, indented by
  operator nesting, with timestamps and key payload fields;
- :func:`export_events` / :func:`import_events` — the JSONL event codec
  the run ledger and the trace CLI read with.

Per-operator rollups (counts, wall time, unclosed spans) come from the
span tree in :mod:`repro.obs` (:func:`repro.obs.build_run_report`).
"""

from __future__ import annotations

import dataclasses
import importlib
import json
from enum import Enum
from pathlib import Path
from typing import Any

from repro.errors import SpearError
from repro.runtime.events import Event, EventKind, EventLog

__all__ = [
    "render_timeline",
    "export_events",
    "import_events",
]

#: events that open / close a nesting level.
_OPENERS = {EventKind.OPERATOR_START}
_CLOSERS = {EventKind.OPERATOR_END}

#: payload fields worth showing per event kind, in display order.
_DETAIL_FIELDS = {
    EventKind.RETRIEVE: ("source", "into", "prompt_based"),
    EventKind.GENERATE: ("prompt_key", "task", "confidence", "latency"),
    EventKind.REFINE: ("key", "action", "mode", "condition", "version"),
    EventKind.CHECK: ("condition", "outcome"),
    EventKind.MERGE: ("into", "strategy"),
    EventKind.DELEGATE: ("agent", "into"),
    EventKind.VIEW_EXPAND: ("view", "key"),
    EventKind.PLAN: ("chosen", "skipped", "risk", "refined"),
    EventKind.SHADOW: ("phase",),
    EventKind.BATCH: ("mode", "items", "failures", "workers", "elapsed", "throughput"),
    EventKind.ERROR: ("error", "message"),
}


def _format_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _details(event: Event) -> str:
    fields = _DETAIL_FIELDS.get(event.kind, ())
    parts = [
        f"{name}={_format_value(event.payload[name])}"
        for name in fields
        if event.payload.get(name) is not None
    ]
    return f" ({', '.join(parts)})" if parts else ""


def render_timeline(log: EventLog, *, include_lifecycle: bool = False) -> str:
    """Render the log as an indented timeline.

    Semantic events (generate, refine, check, ...) are always shown;
    operator start/end lifecycle events control indentation and are
    printed only when ``include_lifecycle`` is true.
    """
    lines: list[str] = []
    depth = 0
    for event in log:
        if event.kind in _CLOSERS:
            depth = max(depth - 1, 0)
            if include_lifecycle:
                lines.append(f"{event.at:8.2f}s  {'  ' * depth}</{event.operator}>")
            continue
        indent = "  " * depth
        if event.kind in _OPENERS:
            if include_lifecycle:
                lines.append(f"{event.at:8.2f}s  {indent}<{event.operator}>")
            depth += 1
            continue
        lines.append(
            f"{event.at:8.2f}s  {indent}{event.kind.value:<10} "
            f"{event.operator}{_details(event)}"
        )
    return "\n".join(lines)


#: marker key used to tag enum / dataclass payload values in JSONL exports.
_TAG = "__spear__"


def _type_spec(value: object) -> str:
    cls = type(value)
    return f"{cls.__module__}:{cls.__qualname__}"


#: modules whose types may be rebuilt from a trace file.  Trace files are
#: untrusted input (``spear stats`` / ``spear trace`` accept any path), so
#: resolving an arbitrary ``module:qualname`` and calling it would be
#: arbitrary code execution — only types from this package qualify.
_TRUSTED_PACKAGE = "repro"


def _resolve_type(spec: str, expected: str) -> type:
    module_name, _, qualname = spec.partition(":")
    if module_name != _TRUSTED_PACKAGE and not module_name.startswith(
        _TRUSTED_PACKAGE + "."
    ):
        raise SpearError(
            f"refusing to rebuild payload value of type {spec!r}: trace "
            f"files may only reference types from the "
            f"{_TRUSTED_PACKAGE!r} package"
        )
    try:
        obj: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError) as error:
        raise SpearError(
            f"cannot rebuild payload value of type {spec!r}: {error}"
        ) from error
    if expected == "enum":
        valid = isinstance(obj, type) and issubclass(obj, Enum)
    else:
        valid = isinstance(obj, type) and dataclasses.is_dataclass(obj)
    if not valid:
        raise SpearError(
            f"refusing to rebuild payload value of type {spec!r}: "
            f"not {'an enum' if expected == 'enum' else 'a dataclass'} type"
        )
    return obj


def _encode_value(value: Any) -> Any:
    """Encode enums and dataclasses losslessly; reject everything else.

    This walks the payload tree *before* ``json.dumps`` because str/int
    backed enums (``RefAction``, ``EventKind``…) are JSON-natives to the
    encoder and would silently degrade to bare strings otherwise.
    Anything outside JSON-natives / enums / dataclasses fails loudly
    rather than degrading to ``repr`` strings that :func:`import_events`
    cannot undo.
    """
    if isinstance(value, Enum):
        return {
            _TAG: "enum",
            "type": _type_spec(value),
            "value": _encode_value(value.value),
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            _TAG: "dataclass",
            "type": _type_spec(value),
            "fields": {
                field.name: _encode_value(getattr(value, field.name))
                for field in dataclasses.fields(value)
            },
        }
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(
                    f"event payload dict key {key!r} is not a string; "
                    "JSONL export requires string keys"
                )
        return {key: _encode_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_value(item) for item in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise TypeError(
        f"event payload value {value!r} ({type(value).__name__}) is not "
        "JSONL-exportable; use JSON types, enums, or dataclasses"
    )


def _object_hook(record: dict[str, Any]) -> Any:
    tag = record.get(_TAG)
    if tag == "enum":
        return _resolve_type(record["type"], "enum")(record["value"])
    if tag == "dataclass":
        return _resolve_type(record["type"], "dataclass")(**record["fields"])
    return record


def export_events(log: EventLog, path: str | Path) -> Path:
    """Write the log as JSON Lines (one event per line); returns the path.

    JSONL is the interchange format for offline analysis — ship a run's
    trace to a notebook, diff two runs, or feed ``spear stats`` /
    ``spear trace``.  Enum and dataclass payload values are encoded with
    a type tag so :func:`import_events` rebuilds them losslessly; other
    non-JSON values raise :class:`TypeError` instead of degrading silently.
    """
    target = Path(path)
    with target.open("w", encoding="utf-8") as handle:
        for event in log:
            handle.write(json.dumps(_encode_value(event.to_dict())))
            handle.write("\n")
    return target


def import_events(path: str | Path) -> EventLog:
    """Rebuild an :class:`EventLog` from a JSONL export.

    Sequence numbers are regenerated (append-only invariant); kinds,
    operators, timestamps and payloads — including tagged enum and
    dataclass values — are preserved.  An empty file or a malformed /
    truncated line raises :class:`SpearError` with the offending line
    number, so CLI callers can report it cleanly instead of leaking a
    ``JSONDecodeError`` traceback.
    """
    source = Path(path)
    log = EventLog()
    with source.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line, object_hook=_object_hook)
            except json.JSONDecodeError as error:
                raise SpearError(
                    f"{source}: line {line_number} is not valid JSON "
                    f"(truncated trace?): {error.msg}"
                ) from error
            if not isinstance(record, dict):
                raise SpearError(
                    f"{source}: line {line_number} is not an event record"
                )
            try:
                log.record(
                    EventKind(record["kind"]),
                    record["operator"],
                    at=float(record["at"]),
                    payload=record.get("payload", {}),
                )
            except (KeyError, ValueError, TypeError) as error:
                raise SpearError(
                    f"{source}: line {line_number} is not a valid event "
                    f"record: {error}"
                ) from error
    if len(log) == 0:
        raise SpearError(f"{source}: trace file contains no events")
    return log
