"""The five canonical workloads.

Each workload answers the same five questions for the harness: what are
the inputs for this seed, what is the reference answer, how is fresh
state built, what happens in one timed repetition, and how many of the
outputs are wrong.  The system under test is driven through
``repro.api`` names only, plus ``repro.dl.parse``/``compile_program``,
``repro.analysis.CheckCache`` and ``repro.llm.radix_cache.RadixPrefixCache``.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import repro.api as spear
from repro import dl
from repro.analysis import CheckCache
from repro.llm.radix_cache import RadixPrefixCache

from bench import gen, trace

OUT_DIR = Path(__file__).resolve().parent / "out"
LANES = 16


@dataclass
class Run:
    """What one repetition measured (host) and observed (everything else)."""

    #: operations attempted inside the timed region, and its wall time.
    items: int
    host_s: float
    #: item failures + errors + sheds (wrong outputs are added by verify).
    failed: int
    #: compared with the reference by :meth:`Workload.wrong`.
    outputs: Any
    #: ``sim_*`` values: pure functions of (workload, seed).
    sim: dict[str, float] = field(default_factory=dict)
    #: simulated makespan, for the workloads with lanes (utilization's base).
    sim_makespan_s: float | None = None
    #: per-operation host latencies, where the workload has operations.
    op_ms: list[float] = field(default_factory=list)
    #: layer counters read from public snapshots after the run.
    layers: dict[str, float] = field(default_factory=dict)
    #: sent/ok/failed per phase.
    phases: dict[str, dict[str, int]] = field(default_factory=dict)


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _model_layers(snapshots: list[dict[str, Any]]) -> dict[str, float]:
    """``llm.model.*`` and ``llm.radix_cache.*`` summed over model snapshots."""
    total = lambda key: sum(s[key] for s in snapshots)  # noqa: E731
    kv = [s["kv_cache"] for s in snapshots]
    layers = {
        "llm.model.gen_calls": total("calls"),
        "llm.model.prompt_tokens": total("total_prompt_tokens"),
        "llm.model.cached_tokens": total("total_cached_tokens"),
        "llm.model.output_tokens": total("total_output_tokens"),
    }
    lookups = sum(k["lookups"] for k in kv)
    if lookups:
        layers.update(
            {
                "llm.radix_cache.lookups": lookups,
                "llm.radix_cache.hit_rate": sum(k["cached_tokens"] for k in kv)
                / sum(k["prompt_tokens"] for k in kv),
                "llm.radix_cache.evictions": sum(k["evictions"] for k in kv),
                "llm.radix_cache.resident_blocks": sum(k["blocks"] for k in kv),
            }
        )
    return layers


def _result_cache_layers(snapshots: list[dict[str, float]]) -> dict[str, float]:
    total = lambda key: sum(s[key] for s in snapshots)  # noqa: E731
    lookups = total("hits") + total("misses")
    if not lookups:
        return {}
    return {
        "runtime.result_cache.hits": total("hits"),
        "runtime.result_cache.misses": total("misses"),
        "runtime.result_cache.hit_rate": total("hits") / lookups,
        "runtime.result_cache.invalidations": total("invalidations"),
        "runtime.result_cache.saved_sim_s": total("saved_seconds"),
    }


class Workload:
    name: str
    why: str
    #: full sizes; ``--tiny`` and the warm-up divide every entry.
    size: dict[str, int]
    #: simulated batch width, for the workloads that have one.
    lanes: int | None = None
    #: the traced run also times the workload at 1/this size, to report
    #: how host cost per item grows with batch size.
    growth_divisor: int | None = None

    def inputs(self, seed: int, size: dict[str, int]) -> Any:
        raise NotImplementedError

    def digest(self, inputs: Any) -> str:
        raise NotImplementedError

    def reference(self, inputs: Any) -> tuple[Any, float | None]:
        """The known-good outputs and, where one exists, ``sim_sequential_s``."""
        raise NotImplementedError

    def setup(self, inputs: Any) -> Any:
        raise NotImplementedError

    def run(self, ctx: Any) -> Run:
        raise NotImplementedError

    def wrong(self, outputs: Any, reference: Any) -> int:
        return sum(1 for got, want in zip(outputs, reference) if got != want) + abs(
            len(outputs) - len(reference)
        )

    def close(self, ctx: Any) -> None:
        """Release what :meth:`setup` opened."""


# -- table3_wide / hol_mixed: one batch over 16 simulated lanes ---------------


class _BatchWorkload(Workload):
    lanes = LANES
    prompts: dict[str, str]
    pipeline = spear.Pipeline(
        [spear.GEN("summary", prompt="map_p"), spear.GEN("neg", prompt="filter_p")]
    )

    def digest(self, inputs: Any) -> str:
        return gen.digest([self.prompts, inputs[1]])

    def kv_cache(self) -> Any:
        return None

    def options(self) -> spear.RuntimeOptions:
        return spear.RuntimeOptions()

    def _state(self, inputs: Any) -> spear.ExecutionState:
        corpus, _ = inputs
        llm = spear.SimulatedLLM(gen.PROFILE, kv_cache=self.kv_cache())
        llm.bind_tweets(corpus)
        state = spear.ExecutionState(model=llm, clock=llm.clock)
        for key, text in self.prompts.items():
            state.prompts.create(key, text)
        return state

    @staticmethod
    def _outputs(batch: Any) -> list[tuple[Any, Any]]:
        return [
            (result.context.get("summary"), result.context.get("neg"))
            for result in batch.items
        ]

    def reference(self, inputs: Any) -> tuple[Any, float | None]:
        state = self._state(inputs)
        executor = spear.Executor(
            options=spear.RuntimeOptions(model=state.model, clock=state.clock)
        )
        batch = executor.run(self.pipeline, items=inputs[1], state=state)
        return self._outputs(batch), batch.elapsed

    def setup(self, inputs: Any) -> Any:
        state = self._state(inputs)
        runner = spear.ParallelBatchRunner(
            state, workers=LANES, on_error="collect", options=self.options()
        )
        return runner, state, inputs[1]

    def latency_items(self, batch: Any) -> list[Any]:
        return batch.items

    def run(self, ctx: Any) -> Run:
        runner, state, items = ctx
        start = time.perf_counter()
        batch = runner.run(self.pipeline, items=items)
        host_s = time.perf_counter() - start

        elapsed = [result.elapsed for result in self.latency_items(batch)]
        engine = runner.last_batcher
        snap = engine.snapshot()
        waits = [m.wait for record in engine.steps for m in record.members]
        layers = {
            "runtime.scheduler.steps": snap["steps"],
            "runtime.scheduler.mean_step_size": snap["mean_batch_size"],
            "runtime.scheduler.forced_admissions": snap["forced"],
            "runtime.scheduler.preemptions": snap["preemptions"],
            "runtime.scheduler.dedup_tokens": snap["dedup_tokens"],
            "runtime.scheduler.wait_p50_s": percentile(waits, 0.50),
            "runtime.scheduler.wait_p99_s": percentile(waits, 0.99),
            "runtime.events.events": len(state.events),
            **_model_layers([state.model.snapshot()]),
        }
        return Run(
            items=len(items),
            host_s=host_s,
            failed=len(batch.failures()),
            outputs=self._outputs(batch),
            sim={
                "sim_items_per_s": len(items) / batch.elapsed,
                "sim_latency_p50_s": percentile(elapsed, 0.50),
                "sim_latency_p99_s": percentile(elapsed, 0.99),
            },
            sim_makespan_s=batch.elapsed,
            layers=layers,
            phases={
                "batch": {
                    "sent": len(items),
                    "ok": len(items) - len(batch.failures()),
                    "failed": len(batch.failures()),
                }
            },
        )


class Table3Wide(_BatchWorkload):
    name = "table3_wide"
    why = (
        "paper Table-3 Map->Filter over a shared 102-word scaffold on 16 "
        "lanes: radix match path, prefix grouping/dedup, scheduler lock, "
        "model simulation; no result cache, no obs persistence"
    )
    size = {"tweets": 1200}
    growth_divisor = 3
    prompts = gen.WIDE_PROMPTS

    def inputs(self, seed: int, size: dict[str, int]) -> Any:
        return gen.tweet_items(size["tweets"], seed)


class HolMixed(_BatchWorkload):
    name = "hol_mixed"
    why = (
        "item-unique 400-word leads on 3 of 4 items, every 4th interactive: "
        "no cross-item prefix reuse, radix insert/evict path, head-of-line "
        "blocking of short interactive calls behind long bulk prefills"
    )
    size = {"tweets": 600}
    prompts = gen.HOL_PROMPTS

    def inputs(self, seed: int, size: dict[str, int]) -> Any:
        return gen.hol_items(size["tweets"], seed)

    def kv_cache(self) -> Any:
        return RadixPrefixCache(capacity_blocks=2048)

    def options(self) -> spear.RuntimeOptions:
        interactive = lambda item: not item["lead"]  # noqa: E731
        return spear.RuntimeOptions(
            priority=lambda item: "interactive" if interactive(item) else "bulk",
            deadline_s=lambda item: 2.0 if interactive(item) else None,
        )

    def latency_items(self, batch: Any) -> list[Any]:
        return [result for result in batch.items if not result.item["lead"]]


# -- refine_loop: result cache + collector + ledger, sequential ---------------


class RefineLoop(Workload):
    name = "refine_loop"
    why = (
        "Map->Enrich->Digest->Filter x 5 iterations, APPEND refiner on the "
        "filter prompt: result-cache footprints/lookups/invalidation and "
        "event->collector->ledger persistence; scheduler and radix bypassed"
    )
    size = {"tweets": 200}
    iterations = 5

    def inputs(self, seed: int, size: dict[str, int]) -> Any:
        return gen.tweet_items(size["tweets"], seed)

    def digest(self, inputs: Any) -> str:
        return gen.digest([gen.REFINE_PROMPTS, gen.REFINEMENT_HINTS, inputs[1]])

    def _loop(self, inputs: Any, **services: Any) -> tuple[Any, Any]:
        corpus, items = inputs
        llm = spear.SimulatedLLM(gen.PROFILE, enable_prefix_cache=False)
        llm.bind_tweets(corpus)
        state = spear.ExecutionState(model=llm, clock=llm.clock)
        for key, text in gen.REFINE_PROMPTS.items():
            state.prompts.create(key, text)
        operators = []
        for index, item in enumerate(items):
            # ``summary`` is overwritten per item and feeds the digest
            # prompt; the per-item labels keep every item's outputs in
            # the final context, so the byte-identity check covers them all.
            operators += [
                spear.GEN("summary", prompt="map_p", extra=item),
                spear.GEN(f"keywords_{index}", prompt="enrich_p", extra=item),
                spear.GEN(f"takeaway_{index}", prompt="digest_p"),
                spear.GEN(
                    f"verdict_{index}", prompt="filter_p", extra=item, max_tokens=8
                ),
            ]
        refiners = [
            spear.REF("APPEND", hint, key="filter_p", function_name=f"f_focus_{i}")
            for i, hint in enumerate(gen.REFINEMENT_HINTS[: self.iterations - 1])
        ]
        executor = spear.Executor(
            options=spear.RuntimeOptions(model=llm, clock=llm.clock, **services)
        )
        loop = spear.RefinementLoop(
            executor,
            spear.Pipeline(operators, name="refine_loop"),
            refiners=refiners,
            max_iterations=self.iterations,
        )
        return loop, state

    @staticmethod
    def _freeze(state: Any) -> str:
        """A byte-exact serialisation of the final (C, M) pair."""
        context = {key: repr(state.context[key]) for key in state.context.keys()}
        metadata = {key: repr(state.metadata[key]) for key in state.metadata.keys()}
        return json.dumps({"C": context, "M": metadata}, sort_keys=True)

    def reference(self, inputs: Any) -> tuple[Any, float | None]:
        loop, state = self._loop(inputs)
        report = loop.run(state=state)
        return [self._freeze(report.final.state), True], report.total_elapsed

    def setup(self, inputs: Any) -> Any:
        OUT_DIR.mkdir(exist_ok=True)
        ledger_dir = Path(tempfile.mkdtemp(prefix="ledger-", dir=OUT_DIR))
        cache = spear.ResultCache(capacity=1 << 16)
        loop, state = self._loop(
            inputs,
            result_cache=cache,
            collector=spear.ObsCollector(),
            ledger_dir=ledger_dir,
            series_interval=5.0,
        )
        return loop, state, cache, ledger_dir, len(inputs[1])

    def run(self, ctx: Any) -> Run:
        loop, state, cache, ledger_dir, tweets = ctx
        start = time.perf_counter()
        report = loop.run(state=state)
        host_s = time.perf_counter() - start

        final = report.final.state
        persisted = spear.Ledger(ledger_dir).latest().report().totals
        in_process = spear.build_run_report(final.events).totals
        # The one total no event carries: the live collector counts it
        # from a model listener, so the replay above cannot.
        in_process["model_gen_calls"] = final.model.snapshot()["calls"]
        ledger_ok = persisted == in_process
        files = [path for path in ledger_dir.rglob("*") if path.is_file()]
        items = tweets * self.iterations
        return Run(
            items=items,
            host_s=host_s,
            failed=0,
            outputs=[self._freeze(final), ledger_ok],
            sim={
                "sim_items_per_s": items / report.total_elapsed,
            },
            layers={
                **_result_cache_layers([cache.snapshot()]),
                **_model_layers([final.model.snapshot()]),
                "runtime.events.events": len(final.events),
                "obs.ledger.bytes_written": sum(p.stat().st_size for p in files),
                "obs.ledger.files": len(files),
            },
            phases={"loop": {"sent": items, "ok": items, "failed": 0}},
        )

    def close(self, ctx: Any) -> None:
        shutil.rmtree(ctx[3], ignore_errors=True)


# -- serve_mixed: 16 tenants, closed drain then open Poisson arrivals ---------


class ServeMixed(Workload):
    name = "serve_mixed"
    why = (
        "SpearServer, 16 tenants, 2 workers: the only workload with arrivals, "
        "admission, per-tenant partitions and partial reuse (~30% repeats); "
        "many tiny runs through the executor the batch workloads use once"
    )
    size = {"corpus": 256, "drain_per_tenant": 64, "open_requests": 180}
    names = tuple(f"tenant-{index:02d}" for index in range(16))
    open_rate = 150.0
    pipeline_name = "summarize_filter"

    def inputs(self, seed: int, size: dict[str, int]) -> Any:
        corpus, items = gen.tweet_items(size["corpus"], seed)
        drain = gen.tenant_bursts(
            len(self.names), size["drain_per_tenant"], len(items), seed
        )
        arrivals = gen.poisson_arrivals(
            size["open_requests"], self.open_rate, len(self.names), len(items), seed
        )
        return corpus, items, drain, arrivals

    def digest(self, inputs: Any) -> str:
        return gen.digest([gen.WIDE_PROMPTS, *inputs[1:]])

    def reference(self, inputs: Any) -> tuple[Any, float | None]:
        """The standalone tweet -> (summary, neg) map: the Table-3 oracle."""
        return Table3Wide().reference(inputs[:2])[0], None

    def setup(self, inputs: Any) -> Any:
        corpus, items, drain, arrivals = inputs
        server = spear.SpearServer(
            profile=gen.PROFILE,
            binder=lambda llm: llm.bind_tweets(corpus),
            workers=2,
            shed=spear.ShedPolicy(queue_limit=64),
        )
        server.register_pipeline(
            self.pipeline_name, _BatchWorkload.pipeline, prompts=gen.WIDE_PROMPTS
        )
        for index, name in enumerate(self.names):
            interactive = index % 4 == 0
            server.add_tenant(
                name,
                priority="interactive" if interactive else None,
                deadline_s=5.0 if interactive else None,
            )
        return server, items, drain, arrivals

    def _submit(
        self, server: Any, items: list, tenant: int, tweet: int, request_id: str
    ) -> Any:
        request = spear.ServeRequest(
            tenant=self.names[tenant],
            pipeline=self.pipeline_name,
            context=items[tweet],
            request_id=request_id,
        )
        with trace.tagged(request_id):
            return server.submit(request)

    def run(self, ctx: Any) -> Run:
        server, items, drain, arrivals = ctx
        names = self.names
        shed = {"drain": 0, "open": 0}

        # Phase drain (closed, saturating): the whole backlog is queued
        # against the stopped pool, so admission sees it at once.
        futures: list[tuple[int, Any]] = []
        for tenant, tweet in drain:
            try:
                future = self._submit(
                    server, items, tenant, tweet, f"drain-{len(futures)}"
                )
            except spear.RateLimitError:
                shed["drain"] += 1
            else:
                futures.append((tweet, future))
        start = time.perf_counter()
        server.start()
        drained = [(tweet, future.result()) for tweet, future in futures]
        drain_s = time.perf_counter() - start
        # Two workers racing for a session lock may run a tenant's next
        # two requests in either order (see README, findings).  That moves
        # the last float digits of every clock reading after them, so the
        # simulated times here are summed exactly and kept to the
        # simulated nanosecond.
        sim_elapsed = [round(r.report["elapsed"], 9) for _, r in drained]
        makespan = round(
            max(
                math.fsum(
                    r.report["elapsed"] for _, r in drained if r.tenant == name
                )
                for name in names
            ),
            9,
        )

        # Phase open: one generator thread, fixed-rate Poisson schedule;
        # each request is timed from when it was *due*, so a stall shows
        # up in every later request's latency.
        done_at: dict[int, float] = {}
        lateness: list[float] = []
        opened: list[tuple[int, float, Any]] = []
        epoch = time.perf_counter()
        for index, (due, tenant, tweet) in enumerate(arrivals):
            delay = epoch + due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lateness.append(max(0.0, time.perf_counter() - epoch - due))
            try:
                future = self._submit(server, items, tenant, tweet, f"open-{index}")
            except spear.RateLimitError:
                shed["open"] += 1
                continue
            future.add_done_callback(
                lambda _, index=index: done_at.__setitem__(
                    index, time.perf_counter() - epoch
                )
            )
            opened.append((tweet, due, future))
        open_responses = [(tweet, future.result()) for tweet, _, future in opened]
        server.shutdown()

        responses = drained + open_responses
        ok = [response for _, response in responses if response.ok]
        op_ms = [
            (done_at[index] - due) * 1e3
            for index, (due, _, _) in enumerate(arrivals)
            if index in done_at
        ]
        sessions = [server.session(name) for name in names]
        waits_ms = [response.queue_wait * 1e3 for response in ok]

        def phase(name: str, sent: int, answered: list) -> dict[str, int]:
            good = sum(1 for _, response in answered if response.ok)
            return {"sent": sent, "ok": good, "failed": sent - good, "shed": shed[name]}

        return Run(
            items=len(drain),
            host_s=drain_s,
            failed=len(drain) + len(arrivals) - len(ok),
            outputs=[
                (tweet, response.output("summary"), response.output("neg"))
                for tweet, response in responses
                if response.ok
            ],
            sim={
                "sim_items_per_s": len(drained) / makespan,
                "sim_latency_p50_s": percentile(sim_elapsed, 0.50),
                "sim_latency_p99_s": percentile(sim_elapsed, 0.99),
            },
            op_ms=op_ms,
            layers={
                "serve.server.submitted": len(drain) + len(arrivals),
                "serve.server.served": len(ok),
                "serve.server.shed": shed["drain"] + shed["open"],
                "serve.server.errors": len(responses) - len(ok),
                "serve.server.queue_wait_p50_ms": percentile(waits_ms, 0.50),
                "serve.server.queue_wait_p99_ms": percentile(waits_ms, 0.99),
                "serve.server.host_latency_p99_ms": percentile(op_ms, 0.99),
                "serve.server.gen_lateness_p99_ms": percentile(lateness, 0.99) * 1e3,
                "serve.server.elapsed_skew_s": sum(r.elapsed for r in ok)
                - sum(r.report["elapsed"] for r in ok),
                "runtime.events.events": len(server.events)
                + sum(len(session.state.events) for session in sessions),
                **_model_layers([session.model.snapshot() for session in sessions]),
                **_result_cache_layers(
                    [session.executor.result_cache.snapshot() for session in sessions]
                ),
            },
            phases={
                "drain": phase("drain", len(drain), drained),
                "open": phase("open", len(arrivals), open_responses),
            },
        )

    def wrong(self, outputs: Any, reference: Any) -> int:
        return sum(
            1 for tweet, summary, neg in outputs if (summary, neg) != reference[tweet]
        )

    def close(self, ctx: Any) -> None:
        ctx[0].shutdown()


# -- check_cold: parse -> compile -> check, no model --------------------------


class CheckCold(Workload):
    name = "check_cold"
    why = (
        "seeded SPEAR-DL programs (5-60 stages, one third with a known "
        "injected defect) through parse -> compile -> check cold, then one "
        "warm CheckCache: dl + analysis only, the bypass for runtime changes"
    )
    size = {"programs": 160}

    def inputs(self, seed: int, size: dict[str, int]) -> Any:
        return gen.dl_programs(size["programs"], seed)

    def digest(self, inputs: Any) -> str:
        return gen.digest(inputs)

    def reference(self, inputs: Any) -> tuple[Any, float | None]:
        """The generator's known answers; never the checker's own output."""
        return [
            ([defect] if defect else [], [defect] if defect in _ERRORS else [], True)
            for _, defect in inputs
        ], None

    def setup(self, inputs: Any) -> Any:
        return [source for source, _ in inputs], CheckCache(maxsize=4 * len(inputs))

    def run(self, ctx: Any) -> Run:
        sources, cache = ctx
        parse_ms, compile_ms, check_ms, op_ms = [], [], [], []
        compiled_programs, cold = [], []
        diagnostics = 0
        start = time.perf_counter()
        for index, source in enumerate(sources):
            with trace.tagged(f"program-{index}"):
                t0 = time.perf_counter()
                program = dl.parse(source)
                t1 = time.perf_counter()
                compiled = dl.compile_program(program)
                t2 = time.perf_counter()
                result = spear.check_program(program)
                t3 = time.perf_counter()
            parse_ms.append((t1 - t0) * 1e3)
            compile_ms.append((t2 - t1) * 1e3)
            check_ms.append((t3 - t2) * 1e3)
            op_ms.append((t3 - t0) * 1e3)
            compiled_programs.append(compiled)
            cold.append(result)
            diagnostics += len(result)
        host_s = time.perf_counter() - start

        # Warm: every pipeline through one CheckCache twice; the first
        # pass populates it, the second must hit and return the same
        # diagnostics as the cold check (minus the program-level codes).
        warm_us, outputs = [], []
        for compiled, result in zip(compiled_programs, cold):
            env = {"views": compiled.views}
            same = True
            for name, pipeline in sorted(compiled.pipelines.items()):
                cache.check(pipeline, name=name, **env)
                t0 = time.perf_counter()
                warm = cache.check(pipeline, name=name, **env)
                warm_us.append((time.perf_counter() - t0) * 1e6)
                same = same and _codes(warm) == _codes(result, program_level=False)
            found = {d.code for d in result}
            outputs.append(
                (
                    sorted(found & set(gen.DEFECT_CODES)),
                    sorted({d.code for d in result.errors}),
                    same,
                )
            )
        kb = sum(len(source) for source in sources) / 1024
        return Run(
            items=len(sources),
            host_s=host_s,
            failed=0,
            outputs=outputs,
            op_ms=op_ms,
            layers={
                "dl.parse_ms_p50": percentile(parse_ms, 0.50),
                "dl.compile_ms_p50": percentile(compile_ms, 0.50),
                "dl.source_kb_per_s": kb / (sum(parse_ms) + sum(compile_ms)) * 1e3,
                "analysis.cold_ms_p50": percentile(check_ms, 0.50),
                "analysis.warm_us_p50": percentile(warm_us, 0.50),
                "analysis.cache_hits": cache.hits,
                "analysis.cache_misses": cache.misses,
                "analysis.diagnostics": diagnostics,
            },
            phases={
                "cold": {"sent": len(sources), "ok": len(sources), "failed": 0}
            },
        )


#: of the injected codes, the ones whose severity is ``error``.
_ERRORS = ("SPEAR101", "SPEAR111")
#: diagnostics only ``check_program`` can raise (views, suppressions).
_PROGRAM_LEVEL = ("SPEAR122", "SPEAR199")


def _codes(result: Any, *, program_level: bool = True) -> list[str]:
    return sorted(
        d.render() for d in result if program_level or d.code not in _PROGRAM_LEVEL
    )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (Table3Wide(), HolMixed(), RefineLoop(), ServeMixed(), CheckCold())
}
