"""Prompt-lineage cost attribution: who paid for what, per prompt version.

Prompts are the first-class citizens of the paper; this module makes the
*bill* first-class too.  :func:`build_attribution` folds an event log into
an :class:`AttributionReport` that charges every generation's wall-time,
tokens, simulated dollars, retries, and cache savings to exactly one
``(prompt_key, version)`` bucket, then rolls the buckets up along the
refinement lineage (``key@v1 -> key@v2 -> ...`` as recorded by REFINE
events) so ``spear stats`` can answer "what did refining ``summarize@v3``
actually buy?" with a measured before/after utility line per refiner —
Table-3 style, but observed rather than planned.

Charging rules (token conservation is an invariant, not an aspiration):

- every GENERATE event charges its full token triple, latency, and cost
  to the ``(prompt_key, prompt_version)`` it carries — one bucket, once;
- RETRY / FAULT events (which fire inside the enclosing GEN span, before
  its GENERATE event exists) are buffered against the innermost open
  operator frame and resolved to that frame's prompt bucket when its
  GENERATE arrives; frames that close without generating flush to the
  ``"(unattributed)"`` bucket, so nothing is silently dropped;
- CACHE_HIT events credit ``saved_seconds`` split evenly across the
  footprint's prompt dependencies (each dependency also counts the hit).

All timestamps and aggregates derive from the virtual clock, so two runs
with the same seed produce byte-identical attribution reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.obs.report import Pricing
from repro.runtime.events import Event, EventKind, EventLog

__all__ = [
    "AttributionReport",
    "build_attribution",
    "UNATTRIBUTED",
]

#: bucket receiving charges that cannot be tied to a prompt version
#: (retries in a GEN that never completed, model calls outside GEN).
UNATTRIBUTED = "(unattributed)"

#: the folded kinds, bound once: an enum attribute read is a metaclass lookup.
_START, _END = EventKind.OPERATOR_START, EventKind.OPERATOR_END
_RETRY, _FAULT, _REFINE = EventKind.RETRY, EventKind.FAULT, EventKind.REFINE
_GENERATE, _CACHE_HIT = EventKind.GENERATE, EventKind.CACHE_HIT



def _bucket_key(prompt_key: str, version: int | None) -> str:
    if version is None:
        return prompt_key
    return f"{prompt_key}@v{version}"


def _empty_bucket() -> dict[str, Any]:
    return {
        "calls": 0,
        "wall_seconds": 0.0,
        "prompt_tokens": 0,
        "cached_tokens": 0,
        "output_tokens": 0,
        "cost_usd": 0.0,
        "retries": 0,
        "faults": 0,
        "backoff_seconds": 0.0,
        "cache_hits": 0,
        "cache_saved_seconds": 0.0,
        "confidence_sum": 0.0,
    }


@dataclass
class AttributionReport:
    """Per-(prompt_key, version) charges plus the lineage rollup.

    ``prompts`` maps ``"key@vN"`` (or :data:`UNATTRIBUTED`) to a charge
    bucket; ``lineage`` maps each prompt key to its observed version
    chain and per-key totals; ``refinements`` holds one before/after
    utility row per REFINE edge whose parent and child versions both
    generated at least once; ``totals`` repeats the conservation sums.
    """

    prompts: dict[str, dict[str, Any]] = field(default_factory=dict)
    lineage: dict[str, dict[str, Any]] = field(default_factory=dict)
    refinements: list[dict[str, Any]] = field(default_factory=list)
    totals: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form, stable key order, JSON-ready."""
        return {
            "prompts": self.prompts,
            "lineage": self.lineage,
            "refinements": self.refinements,
            "totals": self.totals,
        }

    def to_json(self, *, indent: int = 2) -> str:
        """The report as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "AttributionReport":
        """Rebuild from :meth:`to_dict` output (ledger reload)."""
        return cls(
            prompts=dict(data.get("prompts", {})),
            lineage=dict(data.get("lineage", {})),
            refinements=list(data.get("refinements", [])),
            totals=dict(data.get("totals", {})),
        )


def _finalize_bucket(bucket: dict[str, Any]) -> dict[str, Any]:
    calls = bucket["calls"]
    confidence_sum = bucket.pop("confidence_sum")
    out = {
        "calls": calls,
        "wall_seconds": round(bucket["wall_seconds"], 6),
        "prompt_tokens": bucket["prompt_tokens"],
        "cached_tokens": bucket["cached_tokens"],
        "output_tokens": bucket["output_tokens"],
        "cost_usd": round(bucket["cost_usd"], 6),
        "retries": bucket["retries"],
        "faults": bucket["faults"],
        "backoff_seconds": round(bucket["backoff_seconds"], 6),
        "cache_hits": bucket["cache_hits"],
        "cache_saved_seconds": round(bucket["cache_saved_seconds"], 6),
        "mean_latency": round(bucket["wall_seconds"] / calls, 6) if calls else 0.0,
        "mean_confidence": round(confidence_sum / calls, 6) if calls else 0.0,
    }
    return out


def build_attribution(
    log: "EventLog | Iterable[Event]",
    *,
    pricing: Pricing | None = None,
) -> AttributionReport:
    """Fold ``log`` (any iterable of events) into an :class:`AttributionReport`.

    Works on live logs and on :func:`repro.runtime.tracing.import_events`
    round-trips alike; the ledger calls this at finalization.
    """
    pricing = pricing if pricing is not None else Pricing()
    buckets: dict[str, dict[str, Any]] = {}
    #: per prompt key, the versions that generated, oldest first.
    versions_seen: dict[str, list[int]] = {}
    #: REFINE edges in log order: (key, new_version, action, mode, condition).
    refine_edges: list[tuple[str, int | None, str, str, Any]] = []
    #: operator frame stack as two parallel lists: each frame's operator
    #: label and the retry/fault charges it buffers until its GENERATE
    #: arrives (None until the frame buffers one).
    frame_ops: list[str] = []
    frame_pending: list[dict[str, Any] | None] = []

    def bucket(name: str) -> dict[str, Any]:
        found = buckets.get(name)
        if found is None:
            found = buckets[name] = _empty_bucket()
        return found

    def charge_pending(target: dict[str, Any], pending: dict[str, float]) -> None:
        target["retries"] += int(pending.get("retries", 0))
        target["faults"] += int(pending.get("faults", 0))
        target["backoff_seconds"] += pending.get("backoff_seconds", 0.0)

    def innermost_pending() -> dict[str, Any]:
        """The innermost frame's buffer, or the unattributed bucket."""
        if not frame_pending:
            return bucket(UNATTRIBUTED)
        pending = frame_pending[-1]
        if pending is None:
            pending = frame_pending[-1] = {}
        return pending

    for event in log:
        kind = event.kind
        if kind is _START:
            frame_ops.append(event.operator)
            frame_pending.append(None)
        elif kind is _END:
            # Unwind to the matching frame (unbalanced logs unwind one).
            while frame_ops:
                operator = frame_ops.pop()
                pending = frame_pending.pop()
                if pending:
                    charge_pending(bucket(UNATTRIBUTED), pending)
                if operator == event.operator:
                    break
        elif kind is _RETRY:
            entry = innermost_pending()
            entry["retries"] = entry.get("retries", 0) + 1
            delay = event.payload.get("delay")
            if isinstance(delay, (int, float)):
                entry["backoff_seconds"] = (
                    entry.get("backoff_seconds", 0.0) + float(delay)
                )
        elif kind is _FAULT:
            entry = innermost_pending()
            entry["faults"] = entry.get("faults", 0) + 1
        elif kind is _GENERATE:
            payload = event.payload
            prompt_key = str(payload.get("prompt_key", UNATTRIBUTED))
            version = payload.get("prompt_version")
            version = int(version) if version is not None else None
            name = _bucket_key(prompt_key, version)
            target = bucket(name)
            target["calls"] += 1
            latency = payload.get("latency")
            if isinstance(latency, (int, float)):
                target["wall_seconds"] += float(latency)
            p_tok = int(payload.get("prompt_tokens") or 0)
            c_tok = int(payload.get("cached_tokens") or 0)
            o_tok = int(payload.get("output_tokens") or 0)
            target["prompt_tokens"] += p_tok
            target["cached_tokens"] += c_tok
            target["output_tokens"] += o_tok
            target["cost_usd"] += pricing.cost(p_tok, c_tok, o_tok)
            confidence = payload.get("confidence")
            if isinstance(confidence, (int, float)):
                target["confidence_sum"] += float(confidence)
            if version is not None:
                chain = versions_seen.setdefault(prompt_key, [])
                if version not in chain:
                    chain.append(version)
            # Resolve the enclosing frame's buffered retries/faults.
            if frame_pending and frame_pending[-1]:
                charge_pending(target, frame_pending[-1])
                frame_pending[-1] = None
        elif kind is _CACHE_HIT:
            payload = event.payload
            deps = payload.get("prompt_versions")
            if not deps:
                deps = [[key, None] for key in payload.get("prompt_keys", [])]
            saved = float(payload.get("saved_seconds") or 0.0)
            names = [
                _bucket_key(str(dep[0]), dep[1] if dep[1] is None else int(dep[1]))
                for dep in deps
            ] or [UNATTRIBUTED]
            share = saved / len(names)
            for name in names:
                target = bucket(name)
                target["cache_hits"] += 1
                target["cache_saved_seconds"] += share
        elif kind is _REFINE:
            payload = event.payload
            refine_edges.append(
                (
                    str(payload.get("key", "?")),
                    (
                        int(payload["version"])
                        if payload.get("version") is not None
                        else None
                    ),
                    str(payload.get("action", "?")),
                    str(payload.get("mode", "?")),
                    payload.get("condition"),
                )
            )

    # Anything still buffered when the log ends (truncated run) must not
    # vanish: conserve it in the unattributed bucket.
    for pending in frame_pending:
        if pending:
            charge_pending(bucket(UNATTRIBUTED), pending)

    report = AttributionReport()
    for name in sorted(buckets):
        report.prompts[name] = _finalize_bucket(buckets[name])

    # -- lineage rollup ----------------------------------------------------
    for prompt_key in sorted(versions_seen):
        chain = sorted(versions_seen[prompt_key])
        rollup = _empty_bucket()
        rollup.pop("confidence_sum")
        for version in chain:
            charged = report.prompts[_bucket_key(prompt_key, version)]
            for field_name in rollup:
                if field_name in charged:
                    rollup[field_name] += charged[field_name]
        report.lineage[prompt_key] = {
            "versions": chain,
            "edges": [
                {
                    "to_version": new_version,
                    "action": action,
                    "mode": mode,
                    "condition": condition,
                }
                for key, new_version, action, mode, condition in refine_edges
                if key == prompt_key
            ],
            "totals": {
                name: round(value, 6) if isinstance(value, float) else value
                for name, value in rollup.items()
            },
        }

    # -- before/after utility per refinement edge --------------------------
    for key, new_version, action, mode, condition in refine_edges:
        if new_version is None:
            continue
        before = report.prompts.get(_bucket_key(key, new_version - 1))
        after = report.prompts.get(_bucket_key(key, new_version))
        if not before or not after or not before["calls"] or not after["calls"]:
            continue
        report.refinements.append(
            {
                "key": key,
                "from_version": new_version - 1,
                "to_version": new_version,
                "action": action,
                "mode": mode,
                "condition": condition,
                "before": {
                    "calls": before["calls"],
                    "mean_latency": before["mean_latency"],
                    "mean_confidence": before["mean_confidence"],
                    "cost_usd": before["cost_usd"],
                },
                "after": {
                    "calls": after["calls"],
                    "mean_latency": after["mean_latency"],
                    "mean_confidence": after["mean_confidence"],
                    "cost_usd": after["cost_usd"],
                },
                "delta": {
                    "mean_latency": round(
                        after["mean_latency"] - before["mean_latency"], 6
                    ),
                    "mean_confidence": round(
                        after["mean_confidence"] - before["mean_confidence"], 6
                    ),
                },
            }
        )

    # -- conservation totals ------------------------------------------------
    report.totals = {
        "attributed_calls": sum(b["calls"] for b in report.prompts.values()),
        "prompt_tokens": sum(b["prompt_tokens"] for b in report.prompts.values()),
        "cached_tokens": sum(b["cached_tokens"] for b in report.prompts.values()),
        "output_tokens": sum(b["output_tokens"] for b in report.prompts.values()),
        "cost_usd": round(
            sum(b["cost_usd"] for b in report.prompts.values()), 6
        ),
        "retries": sum(b["retries"] for b in report.prompts.values()),
        "faults": sum(b["faults"] for b in report.prompts.values()),
        "cache_hits": sum(b["cache_hits"] for b in report.prompts.values()),
        "cache_saved_seconds": round(
            sum(b["cache_saved_seconds"] for b in report.prompts.values()), 6
        ),
    }
    return report
