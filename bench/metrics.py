"""The metric catalogue: every name the benchmark may print, with its unit.

``BENCHMARK.json`` mirrors this module (``bench/tests`` checks they agree).
A name starts with ``host_`` (real ``perf_counter`` time, speed-corrected
by the harness), ``sim_`` (the virtual clock the paper reports in) or is
clock-free; layer metrics are ``<layer>.<what>``.
"""

from __future__ import annotations

from bench import trace

#: name -> (unit, better, bound).  The bound is the share of the baseline
#: median by which the metric may worsen; ``0.0`` means the value must
#: repeat exactly (``sim_*``) or stay at zero (``failed_share``).
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "host_items_per_s": ("1/s", "higher", 0.25),
    "host_op_p50_ms": ("ms", "lower", 0.25),
    "host_op_p90_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "sim_items_per_s": ("1/sim-s", "higher", 0.0),
    "sim_latency_p50_s": ("sim-s", "lower", 0.0),
    "sim_latency_p99_s": ("sim-s", "lower", 0.0),
    "failed_share": ("ratio", "lower", 0.0),
}

#: The end-to-end metrics every workload defines and none can report as
#: zero: the subset the PR driver gates (its contract wants each gated
#: metric on each workload).  The others are gated by ``--compare``.
DRIVER_GATED = ("setup_s", "host_items_per_s", "peak_rss_mb")

#: counters read from public snapshots, name -> (unit, better).
_COUNTERS: dict[str, tuple[str, str]] = {
    "runtime.scheduler.steps": ("count", "lower"),
    "runtime.scheduler.mean_step_size": ("count", "higher"),
    "runtime.scheduler.forced_admissions": ("count", "lower"),
    "runtime.scheduler.preemptions": ("count", "lower"),
    "runtime.scheduler.dedup_tokens": ("count", "higher"),
    "runtime.scheduler.wait_p50_s": ("sim-s", "lower"),
    "runtime.scheduler.wait_p99_s": ("sim-s", "lower"),
    "runtime.scheduler.utilization": ("ratio", "higher"),
    "llm.radix_cache.lookups": ("count", "lower"),
    "llm.radix_cache.hit_rate": ("ratio", "higher"),
    "llm.radix_cache.evictions": ("count", "lower"),
    "llm.radix_cache.resident_blocks": ("count", "lower"),
    "llm.model.gen_calls": ("count", "lower"),
    "llm.model.prompt_tokens": ("count", "lower"),
    "llm.model.cached_tokens": ("count", "higher"),
    "llm.model.output_tokens": ("count", "lower"),
    "runtime.result_cache.hits": ("count", "higher"),
    "runtime.result_cache.misses": ("count", "lower"),
    "runtime.result_cache.hit_rate": ("ratio", "higher"),
    "runtime.result_cache.invalidations": ("count", "lower"),
    "runtime.result_cache.saved_sim_s": ("sim-s", "higher"),
    "runtime.events.events": ("count", "lower"),
    "runtime.events.host_us_per_event": ("us", "lower"),
    "obs.ledger.bytes_written": ("B", "lower"),
    "obs.ledger.files": ("count", "lower"),
    "runtime.parallel.host_growth_ratio": ("ratio", "lower"),
    "serve.server.submitted": ("count", "higher"),
    "serve.server.served": ("count", "higher"),
    "serve.server.shed": ("count", "lower"),
    "serve.server.errors": ("count", "lower"),
    "serve.server.queue_wait_p50_ms": ("ms", "lower"),
    "serve.server.queue_wait_p99_ms": ("ms", "lower"),
    "serve.server.host_latency_p99_ms": ("ms", "lower"),
    "serve.server.gen_lateness_p99_ms": ("ms", "lower"),
    "serve.server.elapsed_skew_s": ("sim-s", "lower"),
    "dl.parse_ms_p50": ("ms", "lower"),
    "dl.compile_ms_p50": ("ms", "lower"),
    "dl.source_kb_per_s": ("KB/s", "higher"),
    "analysis.cold_ms_p50": ("ms", "lower"),
    "analysis.warm_us_p50": ("us", "lower"),
    "analysis.cache_hits": ("count", "higher"),
    "analysis.cache_misses": ("count", "lower"),
    "analysis.diagnostics": ("count", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
    "trace.missing_targets": ("count", "lower"),
}

#: per layer, from the traced run (see ``bench/trace.py``).
SPAN_FIELDS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "share": ("ratio", "lower"),
}

PER_LAYER: dict[str, tuple[str, str]] = {
    **{
        f"{layer}.{what}": spec
        for layer in trace.LAYERS
        for what, spec in SPAN_FIELDS.items()
    },
    **{f"driver.{what}": SPAN_FIELDS[what] for what in ("self_s", "cpu_s", "share")},
    **_COUNTERS,
}


def driver_per_layer() -> dict[str, tuple[str, str]]:
    """What ``BENCHMARK.json`` lists under ``per_layer`` (at most 128).

    The end-to-end metrics the driver cannot gate ride along, so its
    record still shows them; ``share`` is derivable from ``self_s`` and
    is listed for the residual only.
    """
    listed = {
        name: (unit, better)
        for name, (unit, better, _) in END_TO_END.items()
        if name not in DRIVER_GATED
    }
    for name, spec in PER_LAYER.items():
        if not name.endswith(".share") or name == "driver.share":
            listed[name] = spec
    return listed


def unit_of(name: str) -> str:
    return END_TO_END[name][0] if name in END_TO_END else PER_LAYER[name][0]
