"""Span tracer installed around each layer's public entry points.

The wrappers live here, outside ``src/``: a traced run patches the
targets named in :data:`LAYERS`, records one span per call into
per-thread in-memory lists, and restores the originals afterwards.
Targets are resolved lazily; one that no longer exists is skipped and
counted (``trace.missing_targets``), never fatal — deleting a legacy
twin cannot break the benchmark.

A span is ``[name, layer, start_ns, end_ns, parent, tag, self_ns,
cpu_self_ns]``.  ``parent`` indexes the same thread's span list (-1 for
a root).  ``self_ns`` is the span's duration minus the part its child
spans cover; it includes time the thread spent blocked (on the GIL, a
lock or a condition).  ``cpu_self_ns`` is the same subtraction on the
thread's CPU clock, so it counts only time the thread actually ran.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

#: layer -> ``module:qualname`` of the entry points other layers call.
LAYERS: dict[str, tuple[str, ...]] = {
    "dl": (
        "repro.dl.parser:parse",
        "repro.dl.compiler:compile_program",
    ),
    "analysis": (
        "repro.analysis.check:check_program",
        "repro.analysis.check:check_pipeline",
        "repro.analysis.cache:CheckCache.check",
    ),
    "runtime.executor": (
        "repro.runtime.executor:Executor.run",
        "repro.runtime.executor:Executor.new_state",
        "repro.runtime.batch:BatchRunner.run",
    ),
    "runtime.parallel": ("repro.runtime.parallel:ParallelBatchRunner.run",),
    "runtime.incremental": ("repro.runtime.incremental:RefinementLoop.run",),
    "core.operators": (
        "repro.core.algebra:Operator.apply",
        "repro.core.state:ExecutionState.fork",
        "repro.core.state:ExecutionState.render_prompt",
    ),
    "runtime.result_cache": (
        "repro.core.operators:GEN.footprint",
        "repro.runtime.result_cache:ResultCache.lookup",
        "repro.runtime.result_cache:ResultCache.recorder",
        "repro.runtime.result_cache:ResultCache.insert",
        "repro.runtime.result_cache:ResultCache.invalidate_prompt",
        "repro.runtime.result_cache:CachedDelta.replay",
        "repro.runtime.result_cache:_Recording.delta",
    ),
    "runtime.scheduler": (
        "repro.runtime.scheduler:GenScheduler.open_lane",
        "repro.runtime.scheduler:GenScheduler.configure_lane",
        "repro.runtime.scheduler:GenScheduler.submit",
        "repro.runtime.scheduler:GenScheduler.close_lane",
        "repro.runtime.scheduler:fold_sched_events",
    ),
    "llm.model": (
        "repro.llm.model:SimulatedLLM.generate",
        "repro.llm.model:SimulatedLLM.prepare",
        "repro.llm.model:SimulatedLLM.execute_task",
        "repro.llm.model:SimulatedLLM.record_result",
    ),
    "llm.tokenizer": (
        "repro.llm.tokenizer:Tokenizer.encode",
        "repro.llm.tokenizer:Tokenizer.count",
    ),
    "llm.features": ("repro.llm.features:extract_features",),
    "llm.radix_cache": (
        "repro.llm.radix_cache:RadixPrefixCache.lookup_and_insert",
        "repro.llm.radix_cache:RadixPrefixCache.match_prefix",
        "repro.llm.radix_cache:RadixPrefixCache.insert",
        "repro.llm.radix_cache:RadixPrefixCache.pin",
        "repro.llm.radix_cache:RadixPrefixCache.unpin",
    ),
    "llm.latency": (
        "repro.llm.latency:estimate_latency",
        "repro.llm.latency:estimate_continuous_step",
    ),
    "runtime.events": (
        "repro.runtime.events:EventLog.emit",
        "repro.runtime.events:EventLog.record",
        "repro.runtime.events:EventLog.extend",
    ),
    "obs.collector": (
        "repro.obs.collector:ObsCollector.on_event",
        "repro.obs.collector:ObsCollector.on_generation",
    ),
    "obs.ledger": (
        "repro.obs.ledger:RunLedger.open",
        "repro.obs.ledger:RunLedger._on_event",
        "repro.obs.ledger:RunLedger.finalize",
    ),
    "serve.server": (
        "repro.serve.server:SpearServer.register_pipeline",
        "repro.serve.server:SpearServer.submit",
        "repro.serve.server:SpearServer.start",
        "repro.serve.server:SpearServer.shutdown",
        "repro.serve.server:SpearServer._execute_entry",
        "repro.serve.session:TenantSession.execute",
    ),
}

#: worker threads whose whole life is one layer's glue code, by name prefix.
THREAD_ROOTS = {"spear-lane-": "runtime.parallel"}

#: targets that know the request they serve: the id is read from their
#: arguments, so worker-side spans join the driver's submit span.
TAG_FROM_ARGS: dict[str, Callable[..., Any]] = {
    "repro.serve.server:SpearServer._execute_entry": (
        lambda server, entry: entry.request.request_id
    ),
}

_tag = threading.local()


@contextlib.contextmanager
def tagged(tag: str) -> Iterator[None]:
    """Stamp spans opened by this thread with an item/request id."""
    previous = getattr(_tag, "value", None)
    _tag.value = tag
    try:
        yield
    finally:
        _tag.value = previous


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (thread name, spans), one entry per thread that recorded a span.
        self.threads: list[tuple[str, list[list[Any]]]] = []
        self.missing: list[str] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for target in targets:
                try:
                    self._patch(target, layer)
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(target)
        run = threading.Thread.run
        tracer = self

        def traced_run(thread: threading.Thread) -> None:
            for prefix, layer in THREAD_ROOTS.items():
                if thread.name.startswith(prefix):
                    return tracer._wrap(run, prefix + "*", layer, None)(thread)
            return run(thread)

        self._set(threading.Thread, "run", traced_run)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _patch(self, target: str, layer: str) -> None:
        module_name, _, qualname = target.partition(":")
        owner: Any = importlib.import_module(module_name)
        *path, name = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[name] if path else getattr(owner, name)
        wrapper = self._wrap(original, qualname, layer, TAG_FROM_ARGS.get(target))
        if path:
            self._set(owner, name, wrapper)
            return
        # A module-level function is imported by name elsewhere
        # (``from repro.llm.latency import estimate_latency``); rebind
        # every alias so the call sites see the wrapper too.
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith(("repro", "bench")):
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, alias, wrapper)

    # -- recording -----------------------------------------------------------

    def _state(self) -> tuple[list[list[Any]], list[list[int]]]:
        spans: list[list[Any]] = []
        self._local.state = state = (spans, [])
        with self._lock:
            self.threads.append((threading.current_thread().name, spans))
        return state

    def _wrap(
        self, fn: Callable[..., Any], name: str, layer: str,
        tag_from_args: Callable[..., Any] | None,
    ) -> Callable[..., Any]:
        local = self._local
        clock, cpu_clock = time.perf_counter_ns, time.thread_time_ns

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            spans, stack = getattr(local, "state", None) or self._state()
            parent = stack[-1][0] if stack else -1
            if tag_from_args is not None:
                tag = tag_from_args(*args, **kwargs)
            else:
                tag = getattr(_tag, "value", None)
                if tag is None and parent >= 0:
                    tag = spans[parent][5]
            span = [name, layer, 0, 0, parent, tag, 0, 0]
            frame = [len(spans), 0, 0]
            spans.append(span)
            stack.append(frame)
            cpu_start = cpu_clock()
            span[2] = start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = end = clock()
                cpu = cpu_clock() - cpu_start
                stack.pop()
                span[6] = end - start - frame[1]
                span[7] = cpu - frame[2]
                if stack:
                    stack[-1][1] += end - start
                    stack[-1][2] += cpu

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # -- reporting -----------------------------------------------------------

    def layer_table(self, main_wall_s: float, main_cpu_s: float) -> dict[str, float]:
        """``L.calls`` / ``L.self_s`` / ``L.cpu_s`` / ``L.share`` per layer.

        ``share`` is of all thread-seconds: the main thread's traced wall
        plus, for every other thread, the time it spent inside spans.
        ``driver`` is what no span covers on the main thread — the
        benchmark's own residual.
        """
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        cpu_ns: dict[str, int] = defaultdict(int)
        main = threading.main_thread().name
        total_ns = main_wall_s * 1e9
        covered_ns = covered_cpu_ns = 0
        for thread, spans in self.threads:
            for _, layer, start, end, parent, _, own, cpu in spans:
                calls[layer] += 1
                self_ns[layer] += own
                cpu_ns[layer] += cpu
                if parent < 0 and thread != main:
                    total_ns += end - start
                if thread == main:
                    covered_ns += own
                    covered_cpu_ns += cpu
        self_ns["driver"] = int(main_wall_s * 1e9) - covered_ns
        cpu_ns["driver"] = int(main_cpu_s * 1e9) - covered_cpu_ns
        table: dict[str, float] = {}
        for layer in [*LAYERS, "driver"]:
            if layer != "driver" and not calls[layer]:
                continue
            if layer != "driver":
                table[f"{layer}.calls"] = calls[layer]
            table[f"{layer}.self_s"] = self_ns[layer] / 1e9
            table[f"{layer}.cpu_s"] = cpu_ns[layer] / 1e9
            table[f"{layer}.share"] = self_ns[layer] / total_ns
        return table

    def inclusive_ns(self, layer: str) -> int:
        """Time inside ``layer``'s outermost spans, children included."""
        return sum(
            end - start
            for _, spans in self.threads
            for _, own, start, end, parent, *_ in spans
            if own == layer and (parent < 0 or spans[parent][1] != layer)
        )

    def dump(self) -> dict[str, Any]:
        return {
            "fields": [
                "name", "layer", "start_ns", "end_ns", "parent", "tag",
                "self_ns", "cpu_self_ns",
            ],
            "missing_targets": self.missing,
            "threads": [
                {"thread": name, "spans": spans} for name, spans in self.threads
            ],
        }
