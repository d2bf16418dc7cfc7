"""Concurrent batch execution on the continuous-batching GEN engine.

The paper's runtime (§6) sits on a vLLM-style serving stack: many
per-item pipelines run concurrently and their generation calls are
batched into shared engine steps.  :class:`ParallelBatchRunner` is that
engine for the reproduction:

- items are assigned **round-robin** to ``workers`` lanes (lane ``i``
  runs items ``i, i+W, i+2W, …``), so the item→lane mapping is a pure
  function of the workload;
- each lane is a resumable computation on the calling thread — a
  generator over its items' :meth:`~repro.core.algebra.Operator.steps`
  — with its **own virtual clock** and its own private event log, so
  span brackets never interleave across lanes;
- a lane runs until it yields a model call on its lane model, which
  parks it on the :class:`~repro.runtime.scheduler.GenScheduler`.  Once
  every open lane is parked the engine steps, and the lanes whose calls
  finished resume in lane order.  A call to any other model (a
  resilience fallback backend) is answered on the spot.  The engine's
  admission policy, prefix grouping and step pricing are described in
  :mod:`repro.runtime.scheduler` and configured in one place,
  ``RuntimeOptions(scheduler=SchedulerConfig(...), priority=…,
  deadline_s=…)``.

Determinism: item outputs are produced by the model's deterministic task
engine from the prompt alone, engine-step composition is a pure function
of the workload's virtual-clock state (quiescence admission, see
:mod:`repro.runtime.scheduler`), item→lane assignment is static and the
lanes run in a fixed order — so per-item outputs are identical to the
sequential :class:`~repro.runtime.batch.BatchRunner`'s, and the step
trace repeats exactly, run after run.

After the run, each lane's event stream is folded into the base state's
log bracketed by ``LANE[i]`` spans, the engine's step trace is folded as
``SCHED`` events, a ``BATCH`` summary event is recorded, and the base
clock is advanced to the merged lane time.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.runtime.batch import (
    BatchResult,
    bind_item,
    cache_delta,
    collect_item_result,
    emit_batch_event,
)
from repro.runtime.clock import VirtualClock
from repro.runtime.events import EventKind, EventLog
from repro.runtime.executor import strict_check
from repro.runtime.options import RuntimeOptions
from repro.runtime.scheduler import GenScheduler, SchedulerConfig, fold_sched_events

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import Pipeline
    from repro.core.state import ExecutionState

__all__ = ["ParallelBatchRunner"]


def _resume_order(lane_ids: Iterable[int]) -> list[int]:
    """The order in which runnable lanes resume: lane order.

    Nothing else depends on it: the engine prepares and admits by lane id,
    so any order composes the same steps (tests permute it to check).
    """
    return sorted(lane_ids)


def _per_item(value: Any, item: Any) -> Any:
    """Resolve a per-item scheduling attribute (constant or callable)."""
    return value(item) if callable(value) else value


class ParallelBatchRunner:
    """Runs a pipeline over items on concurrent worker lanes.

    Drop-in for :class:`~repro.runtime.batch.BatchRunner` with the same
    ``bind`` / ``on_error`` contract plus:

    Args:
        workers: number of lanes.  The effective lane count is
            ``min(workers, len(items))``.
        options: shared :class:`~repro.runtime.options.RuntimeOptions`;
            its ``scheduler`` configures the
            :class:`~repro.runtime.scheduler.GenScheduler` (``None`` for
            the defaults, or a
            :class:`~repro.runtime.scheduler.SchedulerConfig` tuning the
            watermark/token-budget/batch-size policy;
            ``SchedulerConfig(max_batch=1)`` is the no-coalescing arm),
            its ``priority`` / ``deadline_s`` set per-item scheduling
            attributes (constants or callables ``item -> value``), its
            ``metrics`` instruments lanes/queues/engine steps, its
            ``result_cache`` and ``resilience`` are attached to the base
            state when that state has none (per-lane breaker state is
            shared safely: forked item states carry the same runtime).
        isolate_prompts: fork items with private prompt stores (see
            :meth:`ExecutionState.fork`); use when the pipeline refines
            prompts per item and lanes must not observe each other.
    """

    def __init__(
        self,
        base_state: "ExecutionState",
        *,
        bind: "Callable[[ExecutionState, Any], None] | None" = None,
        on_error: str = "raise",
        workers: int = 4,
        options: "RuntimeOptions | None" = None,
        isolate_prompts: bool = False,
    ) -> None:
        if on_error not in ("raise", "collect"):
            raise ValueError(f"on_error must be 'raise' or 'collect': {on_error!r}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if options is None:
            options = RuntimeOptions()
        config = options.scheduler
        if config is None:
            config = SchedulerConfig()
        elif not isinstance(config, SchedulerConfig):
            raise TypeError(
                "RuntimeOptions.scheduler must be a SchedulerConfig or None, "
                f"got {config!r}"
            )
        #: the engine configuration every run of this runner uses.
        self._scheduler_config = config
        self.options = options
        self.base_state = base_state
        if bind is None:
            bind = bind_item
        if options.result_cache is not None and base_state.result_cache is None:
            base_state.result_cache = options.result_cache
            options.result_cache.subscribe_to(
                base_state.events, base_state.prompts
            )
        if options.resilience is not None and base_state.resilience is None:
            base_state.resilience = options.resilience
        self.bind = bind
        self.on_error = on_error
        self.workers = workers
        self.metrics = options.metrics
        self.isolate_prompts = isolate_prompts
        #: the :class:`~repro.runtime.scheduler.GenScheduler` of the most
        #: recent run (introspection/tests); None when the base state
        #: has no model.
        self.last_batcher: GenScheduler | None = None

    # -- the run --------------------------------------------------------------

    def run(
        self,
        pipeline: "Pipeline",
        *,
        items: "Iterable[Any] | Sequence[Any] | None" = None,
    ) -> BatchResult:
        """Execute ``pipeline`` once per item across the worker lanes.

        With ``RuntimeOptions(ledger_dir=...)`` the whole batch is one
        ledger run on the base state; lane events land in it when they
        are folded back at completion.
        """
        if items is None:
            items = []
        from repro.obs.ledger import describe_options, describe_pipeline, ledger_scope

        with ledger_scope(
            self.options,
            self.base_state,
            manifest=lambda: {
                "runner": "ParallelBatchRunner",
                "pipeline": describe_pipeline(pipeline),
                "workers": self.workers,
                "options": describe_options(self.options),
            },
            registry=self.metrics,
            collector=self.options.collector,
        ):
            return self._run_batch(pipeline, items)

    def _run_batch(
        self, pipeline: "Pipeline", items: "Iterable[Any] | Sequence[Any]"
    ) -> BatchResult:
        if self.options.strict:
            # Against the base state, before any lane starts: ``bind``
            # fills per-item context (open_context), and the runtime
            # mapping carries the concurrency shape so the interference
            # analyzers (SPEAR161/163) see the batch as it will run.
            strict_check(
                pipeline,
                self.base_state,
                open_context=True,
                runtime={
                    "scheduler": True,
                    "priority": self.options.priority,
                    "deadline_s": self.options.deadline_s,
                    "lanes": self.workers,
                    "shared_prompts": not self.isolate_prompts,
                },
                metrics=self.metrics,
            )
        items = list(items)
        if not items:
            batch = BatchResult(workers=0)
            emit_batch_event(
                self.base_state, batch, mode="parallel",
                runner="ParallelBatchRunner",
            )
            return batch

        lanes = min(self.workers, len(items))
        base = self.base_state
        start = base.clock.now
        lane_clocks = [VirtualClock(start) for _ in range(lanes)]
        lane_logs = [EventLog() for _ in range(lanes)]

        cache = base.result_cache
        cache_before = cache.snapshot() if cache is not None else None
        if cache is not None and not self.isolate_prompts:
            # Lane refinements of the *shared* store must invalidate live;
            # with isolated per-item stores the fold-back path suffices
            # (the cache's store-bound guard rejects clone versions).
            for lane_log in lane_logs:
                cache.subscribe_to(lane_log, base.prompts)

        batcher = self._make_batcher()
        lane_models: list[Any] = []
        for lane_id in range(lanes):
            if batcher is not None:
                lane_models.append(
                    batcher.open_lane(lane_id, lane_clocks[lane_id])
                )
            else:
                lane_models.append(base.model)

        results: list[Any] = [None] * len(items)
        errors: list[tuple[int, Exception]] = []
        stopped = False

        def lane_steps(lane_id: int) -> Any:
            # Everything — including this setup — runs under the finally
            # that closes the lane: a lane that dies between open_lane
            # and its first submit must still shrink the admission set,
            # or its peers would never reach quiescence.
            nonlocal stopped
            try:
                lane_clock = lane_clocks[lane_id]
                lane_log = lane_logs[lane_id]
                lane_model = lane_models[lane_id]
                for index in range(lane_id, len(items), lanes):
                    if stopped:
                        break
                    item = items[index]
                    if batcher is not None:
                        batcher.configure_lane(
                            lane_id,
                            priority=_per_item(self.options.priority, item),
                            deadline_s=_per_item(self.options.deadline_s, item),
                        )
                    item_state = base.fork(
                        share_prompts=not self.isolate_prompts
                    )
                    item_state.clock = lane_clock
                    item_state.events = lane_log
                    item_state.model = lane_model
                    item_start = lane_clock.now
                    error: Exception | None = None
                    try:
                        # bind runs inside the error policy, matching the
                        # sequential runner.
                        self.bind(item_state, item)
                        item_state = yield from pipeline.steps(item_state)
                    except Exception as exc:  # noqa: BLE001 - routed by policy
                        error = exc
                        if self.on_error == "raise":
                            errors.append((index, exc))
                            stopped = True
                            break
                    results[index] = collect_item_result(
                        item, item_state, lane_clock.now - item_start, error
                    )
            except Exception as exc:  # noqa: BLE001 - lane infrastructure failure
                errors.append((-1, exc))
                stopped = True
            finally:
                if batcher is not None:
                    batcher.close_lane(lane_id)

        self._run_lanes(
            [lane_steps(lane_id) for lane_id in range(lanes)],
            lane_models,
            batcher,
        )

        if errors and self.on_error == "raise":
            errors.sort(key=lambda pair: pair[0])
            raise errors[0][1]

        end = max(clock.now for clock in lane_clocks)
        batch = BatchResult(
            items=[result for result in results if result is not None],
            elapsed=end - start,
            workers=lanes,
        )

        self._fold_lane_events(lane_logs, lane_clocks, start)
        if batcher is not None:
            fold_sched_events(self.base_state.events, batcher)
        # Later sequential work continues after the batch completed.
        base.clock.advance_to(end)
        self._observe(batch, lane_clocks, start)

        extra: dict[str, Any] = {
            # what a sequential run would pay: the sum of lane times.
            "serialized_elapsed": sum(clock.now - start for clock in lane_clocks),
        }
        batch.cache = cache_delta(cache, cache_before)
        if batch.cache:
            extra.update(
                result_cache_hits=int(batch.cache["hits"]),
                result_cache_misses=int(batch.cache["misses"]),
                result_cache_saved_seconds=batch.cache["saved_seconds"],
            )
        if batcher is not None:
            stats = batcher.snapshot()
            extra.update(
                gen_batches=int(stats["flushes"]),
                batched_calls=int(stats["batched_calls"]),
                largest_batch=int(stats["largest_batch"]),
                mean_batch_size=stats["mean_batch_size"],
                sched_steps=int(stats["steps"]),
                sched_preemptions=int(stats["preemptions"]),
                sched_forced=int(stats["forced"]),
                sched_mean_wait=stats["mean_wait"],
            )
        emit_batch_event(
            base, batch, mode="parallel", runner="ParallelBatchRunner",
            extra=extra,
        )
        return batch

    # -- helpers --------------------------------------------------------------

    @staticmethod
    def _run_lanes(
        lanes: list[Any], lane_models: list[Any], engine: GenScheduler | None
    ) -> None:
        """Drive every lane generator to completion on this thread.

        A lane runs until it yields a call on its own lane model, which
        parks it on the engine, or until it ends.  Once no lane is ready,
        every open lane is parked and the engine has stepped; the lanes
        whose calls are done resume in :func:`_resume_order`.  Each
        resumes with its ``answer``: the call's result is sent in, or its
        error thrown in at the yield.
        """
        ready = deque(
            (lane_id, lambda: None) for lane_id in _resume_order(range(len(lanes)))
        )
        parked: dict[int, Any] = {}
        while ready:
            lane_id, answer = ready.popleft()
            lane, lane_model = lanes[lane_id], lane_models[lane_id]
            while True:
                try:
                    try:
                        reply = answer()
                    except Exception as error:  # noqa: BLE001 - raised at the yield
                        call = lane.throw(error)
                    else:
                        call = lane.send(reply)
                except StopIteration:
                    break
                if engine is not None and call.model is lane_model:
                    parked[lane_id] = engine.submit(
                        lane_id, call.prompt, max_tokens=call.max_tokens,
                        use_cache=call.use_cache,
                    )
                    break
                answer = call.answer
            if not ready:
                for lane_id in _resume_order(parked):
                    if parked[lane_id].done:
                        request = parked.pop(lane_id)
                        ready.append((lane_id, partial(engine.finish, request)))
                if parked and not ready:
                    raise RuntimeError(f"lanes {sorted(parked)} parked, no step due")

    def _make_batcher(self) -> GenScheduler | None:
        """A fresh engine per run (lane registration is per-run)."""
        engine = None
        if self.base_state.model is not None:
            engine = GenScheduler(
                self.base_state.model,
                config=self._scheduler_config,
                metrics=self.metrics,
            )
        self.last_batcher = engine
        return engine

    def _fold_lane_events(
        self,
        lane_logs: list[EventLog],
        lane_clocks: list[VirtualClock],
        start: float,
    ) -> None:
        """Move each lane's private log into the base log as a LANE span.

        Lane streams are appended whole, one lane after another, so span
        nesting stays well-formed (each lane's events are already a
        well-bracketed sequence on its own clock).  The events move rather
        than being copied: the base log renumbers them in place and each
        lane log is left empty.
        """
        events = self.base_state.events
        for lane_id, lane_log in enumerate(lane_logs):
            events.record(
                EventKind.OPERATOR_START,
                f"LANE[{lane_id}]",
                at=start,
            )
            events.absorb(lane_log)
            events.record(
                EventKind.OPERATOR_END,
                f"LANE[{lane_id}]",
                at=lane_clocks[lane_id].now,
            )

    def _observe(
        self, batch: BatchResult, lane_clocks: list[VirtualClock], start: float
    ) -> None:
        if self.metrics is None:
            return
        self.metrics.gauge(
            "spear_batch_workers", "Lanes used by the last batch run.",
            mode="parallel",
        ).set(float(batch.workers))
        lane_hist = self.metrics.histogram(
            "spear_lane_elapsed_seconds",
            "Per-lane simulated elapsed time of a parallel batch run.",
        )
        for clock in lane_clocks:
            lane_hist.observe(clock.now - start)
