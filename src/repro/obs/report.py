"""The run report: one JSON-serializable summary of a whole execution.

A :class:`RunReport` is built *from* a collector's registry and span
forest — never recomputed from scratch — so the report a benchmark writes
to disk is numerically identical to the in-process metrics by
construction.  It rolls up:

- per-operator-kind invocation counts and wall-time quantiles;
- per-prompt generation counts, latency quantiles, token totals, cache
  hit ratios, and estimated dollar cost;
- run totals (events, calls, tokens, simulated seconds, cost);
- the top-k slowest spans;
- cache statistics from the model layer, when a model was attached.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.obs.collector import ObsCollector
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.runtime.events import EventLog

__all__ = ["Pricing", "RunReport", "build_report", "build_run_report"]


@dataclass(frozen=True)
class Pricing:
    """USD per 1M tokens, by token class.

    Defaults are an order-of-magnitude stand-in for small hosted models
    (the simulation has no real billing); pass your own for real costing.
    Cached prompt tokens are billed at a discount, as on every major API.
    """

    prompt_usd_per_1m: float = 0.60
    cached_usd_per_1m: float = 0.06
    output_usd_per_1m: float = 2.40

    def cost(self, prompt: float, cached: float, output: float) -> float:
        """Dollar cost of one token triple (cached ⊆ prompt)."""
        uncached = max(prompt - cached, 0.0)
        return (
            uncached * self.prompt_usd_per_1m
            + cached * self.cached_usd_per_1m
            + output * self.output_usd_per_1m
        ) / 1_000_000


def _hist_summary(hist: Histogram | None) -> dict[str, float]:
    if hist is None or hist.count == 0:
        return {"count": 0, "total": 0.0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
    return {
        "count": hist.count,
        "total": round(hist.sum, 6),
        "mean": round(hist.mean, 6),
        "p50": round(hist.quantile(0.50), 6),
        "p95": round(hist.quantile(0.95), 6),
        "p99": round(hist.quantile(0.99), 6),
    }


@dataclass
class RunReport:
    """Aggregated view of one run; ``to_dict``/``to_json`` for export."""

    operators: dict[str, dict[str, Any]] = field(default_factory=dict)
    generation: dict[str, dict[str, Any]] = field(default_factory=dict)
    model: dict[str, dict[str, Any]] = field(default_factory=dict)
    batches: dict[str, dict[str, Any]] = field(default_factory=dict)
    scheduler: dict[str, Any] = field(default_factory=dict)
    prefix_cache: dict[str, Any] = field(default_factory=dict)
    totals: dict[str, Any] = field(default_factory=dict)
    cache: dict[str, Any] = field(default_factory=dict)
    result_cache: dict[str, Any] = field(default_factory=dict)
    resilience: dict[str, Any] = field(default_factory=dict)
    slowest_spans: list[dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form, stable key order, JSON-ready."""
        return {
            "operators": self.operators,
            "generation": self.generation,
            "model": self.model,
            "batches": self.batches,
            "scheduler": self.scheduler,
            "prefix_cache": self.prefix_cache,
            "totals": self.totals,
            "cache": self.cache,
            "result_cache": self.result_cache,
            "resilience": self.resilience,
            "slowest_spans": self.slowest_spans,
        }

    def to_json(self, *, indent: int = 2) -> str:
        """The report as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunReport":
        """Rebuild a report from :meth:`to_dict` output (ledger reload).

        Unknown keys are ignored so newer ledgers still load under older
        readers; a reloaded report renders byte-identical ``spear stats``
        text to the in-process original.
        """
        return cls(
            operators=dict(data.get("operators", {})),
            generation=dict(data.get("generation", {})),
            model=dict(data.get("model", {})),
            batches=dict(data.get("batches", {})),
            scheduler=dict(data.get("scheduler", {})),
            prefix_cache=dict(data.get("prefix_cache", {})),
            totals=dict(data.get("totals", {})),
            cache=dict(data.get("cache", {})),
            result_cache=dict(data.get("result_cache", {})),
            resilience=dict(data.get("resilience", {})),
            slowest_spans=list(data.get("slowest_spans", [])),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        """Rebuild a report from a :meth:`to_json` document."""
        return cls.from_dict(json.loads(text))


#: family name -> its ``(labels, instrument)`` children, as collected.
Families = dict[str, list[tuple[dict[str, str], Any]]]


def _family_children(
    families: Families, name: str
) -> list[tuple[dict[str, str], Any]]:
    return families.get(name, [])


def _counter_by_label(
    families: Families, name: str, label: str
) -> dict[str, float]:
    return {
        labels.get(label, "?"): child.value
        for labels, child in _family_children(families, name)
        if isinstance(child, Counter)
    }


def build_report(
    collector: ObsCollector,
    *,
    top_k: int = 5,
    pricing: Pricing | None = None,
) -> RunReport:
    """Roll a collector's registry + spans up into a :class:`RunReport`."""
    pricing = pricing if pricing is not None else Pricing()
    registry = collector.registry
    # One collect() for the whole report, not one per family read.
    families: Families = {
        name: samples for name, _kind, _help, samples in registry.collect()
    }
    report = RunReport()

    # -- per-operator-kind rollups -----------------------------------------
    invocations = _counter_by_label(
        families, "spear_operator_invocations_total", "operator"
    )
    errors = _counter_by_label(families, "spear_operator_errors_total", "operator")
    wall_hists = {
        labels.get("operator", "?"): child
        for labels, child in _family_children(families, "spear_operator_wall_seconds")
        if isinstance(child, Histogram)
    }
    for op in sorted(set(invocations) | set(wall_hists)):
        report.operators[op] = {
            "invocations": int(invocations.get(op, 0)),
            "errors": int(errors.get(op, 0)),
            "wall_seconds": _hist_summary(wall_hists.get(op)),
        }

    # -- per-prompt generation rollups -------------------------------------
    calls = _counter_by_label(families, "spear_gen_calls_total", "prompt")
    prompt_tokens = _counter_by_label(families, "spear_prompt_tokens_total", "prompt")
    cached_tokens = _counter_by_label(families, "spear_cached_tokens_total", "prompt")
    output_tokens = _counter_by_label(families, "spear_output_tokens_total", "prompt")
    latency_hists = {
        labels.get("prompt", "?"): child
        for labels, child in _family_children(families, "spear_gen_latency_seconds")
        if isinstance(child, Histogram)
    }
    for prompt in sorted(set(calls) | set(latency_hists)):
        p_tok = prompt_tokens.get(prompt, 0.0)
        c_tok = cached_tokens.get(prompt, 0.0)
        o_tok = output_tokens.get(prompt, 0.0)
        report.generation[prompt] = {
            "calls": int(calls.get(prompt, 0)),
            "latency_seconds": _hist_summary(latency_hists.get(prompt)),
            "prompt_tokens": int(p_tok),
            "cached_tokens": int(c_tok),
            "output_tokens": int(o_tok),
            "cache_hit_ratio": round(c_tok / p_tok, 4) if p_tok else 0.0,
            "cost_usd": round(pricing.cost(p_tok, c_tok, o_tok), 6),
        }

    # -- model layer (listener counters + pull gauges) ---------------------
    model_calls = _counter_by_label(families, "spear_model_gen_calls_total", "model")
    model_prompt = _counter_by_label(families, "spear_model_prompt_tokens_total", "model")
    model_cached = _counter_by_label(families, "spear_model_cached_tokens_total", "model")
    model_output = _counter_by_label(families, "spear_model_output_tokens_total", "model")
    model_latency = {
        labels.get("model", "?"): child
        for labels, child in _family_children(
            families, "spear_model_gen_latency_seconds"
        )
        if isinstance(child, Histogram)
    }
    for name in sorted(set(model_calls) | set(model_latency)):
        p_tok = model_prompt.get(name, 0.0)
        c_tok = model_cached.get(name, 0.0)
        o_tok = model_output.get(name, 0.0)
        report.model[name] = {
            "calls": int(model_calls.get(name, 0)),
            "latency_seconds": _hist_summary(model_latency.get(name)),
            "prompt_tokens": int(p_tok),
            "cached_tokens": int(c_tok),
            "output_tokens": int(o_tok),
            "cache_hit_ratio": round(c_tok / p_tok, 4) if p_tok else 0.0,
            "cost_usd": round(pricing.cost(p_tok, c_tok, o_tok), 6),
        }

    # -- batch runs (sequential / parallel runners) ------------------------
    batch_runs = _counter_by_label(families, "spear_batch_runs_total", "mode")
    batch_items = _counter_by_label(families, "spear_batch_items_total", "mode")
    batch_failures = _counter_by_label(
        families, "spear_batch_failures_total", "mode"
    )
    batch_elapsed = {
        labels.get("mode", "?"): child
        for labels, child in _family_children(
            families, "spear_batch_elapsed_seconds"
        )
        if isinstance(child, Histogram)
    }
    batch_throughput = {
        labels.get("mode", "?"): child
        for labels, child in _family_children(families, "spear_batch_throughput")
        if isinstance(child, Gauge)
    }
    batch_workers = {
        labels.get("mode", "?"): child
        for labels, child in _family_children(families, "spear_batch_workers")
        if isinstance(child, Gauge)
    }
    for mode in sorted(set(batch_runs) | set(batch_elapsed)):
        throughput = batch_throughput.get(mode)
        workers = batch_workers.get(mode)
        report.batches[mode] = {
            "runs": int(batch_runs.get(mode, 0)),
            "items": int(batch_items.get(mode, 0)),
            "failures": int(batch_failures.get(mode, 0)),
            "elapsed_seconds": _hist_summary(batch_elapsed.get(mode)),
            "throughput": round(throughput.value, 4) if throughput else 0.0,
            "workers": int(workers.value) if workers else 1,
        }

    # -- continuous-batching scheduler ---------------------------------------
    sched_steps = registry.sum_counter("spear_sched_steps_total")
    if sched_steps:
        step_size = next(
            (
                child
                for _labels, child in _family_children(
                    families, "spear_sched_step_size"
                )
                if isinstance(child, Histogram)
            ),
            None,
        )
        step_tokens = next(
            (
                child
                for _labels, child in _family_children(
                    families, "spear_sched_step_tokens"
                )
                if isinstance(child, Histogram)
            ),
            None,
        )
        queue_depth = next(
            (
                child.value
                for _labels, child in _family_children(
                    families, "spear_sched_queue_depth"
                )
                if isinstance(child, Gauge)
            ),
            0.0,
        )
        waits = {
            labels.get("class", "?"): child
            for labels, child in _family_children(
                families, "spear_sched_wait_seconds"
            )
            if isinstance(child, Histogram)
        }
        report.scheduler = {
            "steps": int(sched_steps),
            "preemptions": int(
                registry.sum_counter("spear_sched_preemptions_total")
            ),
            "forced": int(registry.sum_counter("spear_sched_forced_total")),
            "queue_depth": round(queue_depth, 6),
            "step_size": _hist_summary(step_size),
            "step_tokens": _hist_summary(step_tokens),
            "wait_seconds": {
                name: _hist_summary(hist) for name, hist in sorted(waits.items())
            },
        }

    # -- prefix cache (radix tier + intra-step trunk dedup) ------------------
    dedup_total = registry.sum_counter("spear_prefix_dedup_tokens_total")
    step_dedup = next(
        (
            child
            for _labels, child in _family_children(
                families, "spear_prefix_step_dedup_tokens"
            )
            if isinstance(child, Histogram)
        ),
        None,
    )
    groups_hist = next(
        (
            child
            for _labels, child in _family_children(
                families, "spear_prefix_groups_per_step"
            )
            if isinstance(child, Histogram)
        ),
        None,
    )
    radix_gauges: dict[str, dict[str, float]] = {}
    for gauge_name in (
        "spear_prefix_cache_nodes",
        "spear_prefix_cache_leaves",
        "spear_prefix_cache_pinned_blocks",
    ):
        for labels, child in _family_children(families, gauge_name):
            if isinstance(child, Gauge):
                bucket = radix_gauges.setdefault(labels.get("model", "?"), {})
                bucket[
                    gauge_name.removeprefix("spear_prefix_cache_")
                ] = round(child.value, 6)
    if dedup_total or step_dedup is not None or radix_gauges:
        report.prefix_cache = {
            "dedup_tokens_total": int(dedup_total),
            "step_dedup_tokens": _hist_summary(step_dedup),
            "groups_per_step": _hist_summary(groups_hist),
            "radix": radix_gauges,
        }

    # -- cache gauges -------------------------------------------------------
    for gauge_name in (
        "spear_kv_cache_blocks",
        "spear_kv_cache_hit_rate",
        "spear_kv_cache_evictions_total",
    ):
        for labels, child in _family_children(families, gauge_name):
            if isinstance(child, Gauge):
                bucket = report.cache.setdefault(labels.get("model", "?"), {})
                bucket[gauge_name.removeprefix("spear_")] = round(child.value, 6)

    # -- operator result cache ---------------------------------------------
    rc_hits = _counter_by_label(
        families, "spear_result_cache_hits_total", "operator"
    )
    rc_saved = _counter_by_label(
        families, "spear_result_cache_saved_seconds_total", "operator"
    )
    if rc_hits or rc_saved:
        report.result_cache["by_operator"] = {
            op: {
                "hits": int(rc_hits.get(op, 0)),
                "saved_seconds": round(rc_saved.get(op, 0.0), 6),
            }
            for op in sorted(set(rc_hits) | set(rc_saved))
        }
    for gauge_name in (
        "spear_result_cache_entries",
        "spear_result_cache_hit_rate",
        "spear_result_cache_invalidations_total",
        "spear_result_cache_evictions_total",
    ):
        for _labels, child in _family_children(families, gauge_name):
            if isinstance(child, Gauge):
                report.result_cache[
                    gauge_name.removeprefix("spear_result_cache_")
                ] = round(child.value, 6)

    # -- resilience (faults / retries / breakers / degraded serving) --------
    faults = _counter_by_label(families, "spear_faults_injected_total", "kind")
    failures = _counter_by_label(families, "spear_model_failures_total", "model")
    retries = _counter_by_label(families, "spear_retries_total", "model")
    degraded = _counter_by_label(families, "spear_degraded_runs_total", "target")
    backoff = {
        labels.get("model", "?"): child
        for labels, child in _family_children(
            families, "spear_retry_backoff_seconds"
        )
        if isinstance(child, Histogram)
    }
    breaker_state = {
        labels.get("model", "?"): child.value
        for labels, child in _family_children(families, "spear_breaker_state")
        if isinstance(child, Gauge)
    }
    breaker_transitions = _counter_by_label(
        families, "spear_breaker_transitions_total", "model"
    )
    if faults or failures or retries or degraded or breaker_state:
        state_names = {0.0: "closed", 1.0: "half_open", 2.0: "open"}
        report.resilience = {
            "faults_injected": {
                kind: int(count) for kind, count in sorted(faults.items())
            },
            "faults_injected_total": int(sum(faults.values())),
            "failures_by_model": {
                name: int(count) for name, count in sorted(failures.items())
            },
            "retries_by_model": {
                name: int(count) for name, count in sorted(retries.items())
            },
            "retries_total": int(sum(retries.values())),
            "backoff_seconds": {
                name: _hist_summary(hist)
                for name, hist in sorted(backoff.items())
            },
            "breakers": {
                name: {
                    "state": state_names.get(value, "?"),
                    "transitions": int(breaker_transitions.get(name, 0)),
                }
                for name, value in sorted(breaker_state.items())
            },
            "degraded_runs": {
                target: int(count) for target, count in sorted(degraded.items())
            },
            "degraded_runs_total": int(sum(degraded.values())),
        }

    # -- totals -------------------------------------------------------------
    total_prompt = registry.sum_counter("spear_prompt_tokens_total")
    total_cached = registry.sum_counter("spear_cached_tokens_total")
    total_output = registry.sum_counter("spear_output_tokens_total")
    report.totals = {
        "events": int(registry.sum_counter("spear_events_total")),
        "operator_invocations": int(
            registry.sum_counter("spear_operator_invocations_total")
        ),
        "gen_calls": int(registry.sum_counter("spear_gen_calls_total")),
        "prompt_tokens": int(total_prompt),
        "cached_tokens": int(total_cached),
        "output_tokens": int(total_output),
        "cache_hit_ratio": (
            round(total_cached / total_prompt, 4) if total_prompt else 0.0
        ),
        "cost_usd": round(
            pricing.cost(total_prompt, total_cached, total_output), 6
        ),
        "model_gen_calls": int(
            registry.sum_counter("spear_model_gen_calls_total")
        ),
        "errors": int(registry.sum_counter("spear_operator_errors_total")),
        "result_cache_hits": int(
            registry.sum_counter("spear_result_cache_hits_total")
        ),
        "result_cache_saved_seconds": round(
            registry.sum_counter("spear_result_cache_saved_seconds_total"), 6
        ),
    }

    # -- slowest spans ------------------------------------------------------
    # Copies, not finish(): reports may be generated mid-run (live scrape),
    # and closing the live span stack would orphan every event that follows.
    for span in collector.spans.slowest(top_k):
        report.slowest_spans.append(
            {
                "operator": span.operator,
                "start": round(span.start, 4),
                "wall": round(span.wall, 4),
                "gen_calls": span.gen_calls,
                "prompt_tokens": span.prompt_tokens,
                "cached_tokens": span.cached_tokens,
                "output_tokens": span.output_tokens,
                "complete": span.complete,
            }
        )
    return report


def build_run_report(
    log: EventLog,
    *,
    top_k: int = 5,
    pricing: Pricing | None = None,
    model: Any = None,
) -> RunReport:
    """Offline path: replay a (possibly imported) event log into a report.

    Pass ``model`` to also fold in model-layer cache statistics, as the
    live :class:`ObsCollector` would.
    """
    collector = ObsCollector()
    if model is not None:
        collector.attach_model(model)
    collector.replay(log)
    return build_report(collector, top_k=top_k, pricing=pricing)
