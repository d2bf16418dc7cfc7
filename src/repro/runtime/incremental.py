"""Incremental re-execution for the refinement loop (paper §5, Table 3).

The classic adaptive-pipeline shape: run the pipeline, inspect the
outcome, refine one prompt, run again.  Without reuse every iteration
pays for the whole pipeline; with the operator-level result cache
(:mod:`repro.runtime.result_cache`) a refinement invalidates exactly the
transitive dependents of the edited prompt, so each re-run executes only
the dependent suffix — upstream stages splice their memoized ``(C, M)``
deltas back in at ~zero simulated cost.

:class:`RefinementLoop` packages that pattern: it drives an
:class:`~repro.runtime.executor.Executor` through ``run → refine → run``
rounds, collects per-iteration cache activity from the executor's
:class:`~repro.runtime.executor.RunResult`, and reports the savings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.algebra import Condition, Operator
    from repro.core.pipeline import Pipeline
    from repro.core.state import ExecutionState
    from repro.runtime.executor import Executor, RunResult
    from repro.runtime.options import RuntimeOptions

__all__ = ["IterationReport", "LoopReport", "RefinementLoop"]

#: Chooses the refinement for iteration ``i`` (0-based, applied *after*
#: run ``i``); return None to stop refining early.
RefinerFn = Callable[["ExecutionState", int], "Operator | None"]


@dataclass(frozen=True)
class IterationReport:
    """One run of the pipeline inside the loop."""

    iteration: int
    elapsed: float
    cache_hits: int
    cache_misses: int
    invalidations: int
    saved_seconds: float
    #: prompt key the refiner edited after this run (None on the last).
    refined_key: str | None = None


@dataclass
class LoopReport:
    """Outcome of a full refinement loop."""

    iterations: list[IterationReport] = field(default_factory=list)
    final: "RunResult | None" = None

    @property
    def total_elapsed(self) -> float:
        """Simulated seconds across every iteration's pipeline run."""
        return sum(report.elapsed for report in self.iterations)

    @property
    def total_saved_seconds(self) -> float:
        """Simulated seconds the result cache saved across the loop."""
        return sum(report.saved_seconds for report in self.iterations)

    @property
    def cache_hits(self) -> int:
        return sum(report.cache_hits for report in self.iterations)

    @property
    def cache_misses(self) -> int:
        return sum(report.cache_misses for report in self.iterations)

    def output(self, label: str) -> Any:
        """Shared result protocol: final value of ``C[label]``.

        Reads from the last iteration's :class:`RunResult`, i.e. the
        refined pipeline's output; None before any iteration ran.
        """
        if self.final is None:
            return None
        return self.final.output(label)

    @property
    def cache(self) -> dict[str, float]:
        """Shared result protocol: cache totals across the loop."""
        return {
            "hits": float(self.cache_hits),
            "misses": float(self.cache_misses),
            "invalidations": float(
                sum(report.invalidations for report in self.iterations)
            ),
            "saved_seconds": self.total_saved_seconds,
        }

    @property
    def report(self) -> dict[str, Any]:
        """Shared result protocol: one JSON-ready summary of the run."""
        payload = self.to_dict()
        payload["runner"] = "loop"
        return payload

    def to_dict(self) -> dict[str, Any]:
        """Serialize for benchmark reports."""
        return {
            "iterations": [
                {
                    "iteration": report.iteration,
                    "elapsed": report.elapsed,
                    "cache_hits": report.cache_hits,
                    "cache_misses": report.cache_misses,
                    "invalidations": report.invalidations,
                    "saved_seconds": report.saved_seconds,
                    "refined_key": report.refined_key,
                }
                for report in self.iterations
            ],
            "total_elapsed": self.total_elapsed,
            "total_saved_seconds": self.total_saved_seconds,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }


class RefinementLoop:
    """Run → refine → re-run, with cache-driven incremental re-execution.

    Args:
        executor: the executor to run iterations on (attach a
            :class:`~repro.runtime.result_cache.ResultCache` to it to get
            incremental re-runs; without one the loop still works, it
            just re-executes everything each round).
        pipeline: the pipeline to (re-)run each iteration.
        refiners: either a sequence of operators (usually REF) applied
            one per iteration boundary, or a callable
            ``(state, iteration) → Operator | None``.  The loop performs
            ``len(refiners) + 1`` runs for a sequence (refine between
            consecutive runs), or keeps running until the callable
            returns None / ``max_iterations`` is reached.
        stop: optional :class:`~repro.core.algebra.Condition`; when it
            holds after a run, the loop ends without further refinement.
        max_iterations: hard cap on pipeline runs (safety for callables).
        options: shared :class:`~repro.runtime.options.RuntimeOptions`
            used to build the loop's executor when ``executor`` is None;
            passing both is an error.
    """

    def __init__(
        self,
        executor: "Executor | None" = None,
        pipeline: "Pipeline | None" = None,
        *,
        refiners: "Sequence[Operator] | RefinerFn",
        stop: "Condition | None" = None,
        max_iterations: int = 16,
        options: "RuntimeOptions | None" = None,
    ) -> None:
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
        if pipeline is None:
            raise TypeError("RefinementLoop requires a pipeline")
        if executor is None:
            from repro.runtime.executor import Executor
            from repro.runtime.options import RuntimeOptions

            self.executor = Executor(
                options=options if options is not None else RuntimeOptions()
            )
        elif options is not None:
            raise TypeError(
                "RefinementLoop: pass either executor= or options=, not both"
            )
        else:
            self.executor = executor
        self.pipeline = pipeline
        self.refiners = refiners
        self.stop = stop
        self.max_iterations = max_iterations

    def _refiner_for(
        self, state: "ExecutionState", iteration: int
    ) -> "Operator | None":
        if callable(self.refiners):
            return self.refiners(state, iteration)
        if iteration < len(self.refiners):
            return self.refiners[iteration]
        return None

    def run(self, *, state: "ExecutionState") -> LoopReport:
        """Drive the loop to completion on ``state``; returns the report.

        A refinement loop edits one state's prompts in place, so there is
        no item fan-out — pass ``items=`` to the batch runners instead.

        With ``RuntimeOptions(ledger_dir=...)`` on the executor, the
        *whole* loop is one ledger run: every iteration's events — and
        the REFINE events between iterations — land in a single
        ``runs/<run_id>/`` directory (the per-run scope inside
        ``Executor.run`` is reentrant and defers to this one).
        """
        with self.executor._ledger_scope(
            state,
            pipeline=self.pipeline,
            runner="RefinementLoop",
            max_iterations=self.max_iterations,
        ):
            return self._run_loop(state)

    def _run_loop(self, state: "ExecutionState") -> LoopReport:
        report = LoopReport()
        for iteration in range(self.max_iterations):
            result = self.executor.run(self.pipeline, state=state)
            state = result.state
            refiner = None
            if self.stop is None or not self.stop(state):
                refiner = self._refiner_for(state, iteration)
            refined_key = getattr(refiner, "key", None) if refiner else None
            run_report = IterationReport(
                iteration=iteration,
                elapsed=result.elapsed,
                cache_hits=int(result.cache.get("hits", 0)),
                cache_misses=int(result.cache.get("misses", 0)),
                invalidations=0,
                saved_seconds=float(result.cache.get("saved_seconds", 0.0)),
                refined_key=refined_key,
            )
            report.final = result
            if refiner is None:
                report.iterations.append(run_report)
                break
            # The REF emits a REFINE event on this state's log; a cache
            # subscribed to it invalidates the edited key's transitive
            # dependents right here, before the next run.  The refinement
            # happens between executor.run windows, so its invalidation
            # count is measured here and attributed to this iteration.
            cache = state.result_cache
            before = cache.snapshot()["invalidations"] if cache is not None else 0
            state = refiner.apply(state)
            after = cache.snapshot()["invalidations"] if cache is not None else 0
            report.iterations.append(
                IterationReport(
                    iteration=run_report.iteration,
                    elapsed=run_report.elapsed,
                    cache_hits=run_report.cache_hits,
                    cache_misses=run_report.cache_misses,
                    invalidations=int(after - before),
                    saved_seconds=run_report.saved_seconds,
                    refined_key=refined_key,
                )
            )
        return report
