"""The incremental re-check cache: hits, invalidation, metrics, identity."""

import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    CheckCache,
    cached_check_state,
    check_pipeline,
    fingerprint_check,
)
from repro.core import (
    CHECK,
    GEN,
    REF,
    RET,
    VIEW,
    Condition,
    Pipeline,
    RefAction,
    ViewRegistry,
)
from repro.core.state import ExecutionState
from repro.llm.model import SimulatedLLM
from repro.obs.metrics import MetricsRegistry
from repro.runtime.executor import Executor
from repro.runtime.options import RuntimeOptions


def pipeline(text: str = "Answer briefly. ") -> Pipeline:
    return Pipeline(
        [
            REF(RefAction.CREATE, text, key="qa"),
            GEN("answer", prompt="qa"),
        ]
    )


class TestFingerprint:
    def test_stable_across_equal_builds(self):
        assert fingerprint_check(pipeline()) == fingerprint_check(pipeline())

    def test_sensitive_to_pipeline_structure(self):
        assert fingerprint_check(pipeline()) != fingerprint_check(
            pipeline("A different template. ")
        )

    def test_sensitive_to_environment(self):
        base = fingerprint_check(pipeline())
        assert base != fingerprint_check(pipeline(), prompts={"qa": "x"})
        assert base != fingerprint_check(pipeline(), context=("notes",))
        assert base != fingerprint_check(pipeline(), open_context=True)
        assert base != fingerprint_check(
            pipeline(), runtime={"scheduler": True}
        )

    def test_sensitive_to_condition_text(self):
        def guarded(threshold: float) -> Pipeline:
            return Pipeline(
                [
                    REF(RefAction.CREATE, "Answer. ", key="qa"),
                    CHECK(
                        Condition.metadata_below("confidence", threshold),
                        then=GEN("redo", prompt="qa"),
                    ),
                    GEN("answer", prompt="qa"),
                ]
            )

        assert fingerprint_check(guarded(0.5)) != fingerprint_check(
            guarded(0.9)
        )

    def test_digest_memo_detects_operator_list_mutation(self):
        # The per-object digest memo must not serve a stale structural
        # hash after the operator list itself changes.
        target = pipeline()
        before = fingerprint_check(target)
        assert fingerprint_check(target) == before  # memoized path
        target.operators.append(GEN("extra", prompt="qa"))
        assert fingerprint_check(target) != before

    def test_digest_memo_shared_by_equal_pipelines(self):
        # Memoizing the first object must not stop a distinct-but-equal
        # build (which walks the structure fresh) from converging.
        first, second = pipeline(), pipeline()
        assert first is not second
        assert fingerprint_check(first) == fingerprint_check(second)


class TestCheckCache:
    def test_second_check_is_a_hit_with_the_same_result(self):
        cache = CheckCache()
        first = cache.check(pipeline())
        second = cache.check(pipeline())
        assert second is first
        assert (cache.hits, cache.misses) == (1, 1)

    def test_changed_pipeline_misses(self):
        cache = CheckCache()
        cache.check(pipeline())
        cache.check(pipeline("Changed. "))
        assert (cache.hits, cache.misses) == (0, 2)

    def test_changed_runtime_misses(self):
        cache = CheckCache()
        cache.check(pipeline())
        cache.check(pipeline(), runtime={"lanes": 4, "shared_prompts": True})
        assert (cache.hits, cache.misses) == (0, 2)

    def test_lru_eviction_is_bounded(self):
        cache = CheckCache(maxsize=2)
        for text in ("a", "b", "c"):
            cache.check(pipeline(f"Template {text}. "))
        assert len(cache) == 2
        # "a" was evicted, so re-checking it misses again.
        cache.check(pipeline("Template a. "))
        assert cache.misses == 4

    def test_metrics_counters(self):
        metrics = MetricsRegistry()
        cache = CheckCache()
        cache.check(pipeline(), metrics=metrics)
        cache.check(pipeline(), metrics=metrics)
        cache.check(pipeline(), metrics=metrics)
        assert metrics.get("spear_check_cache_misses_total").value == 1
        assert metrics.get("spear_check_cache_hits_total").value == 2

    def test_warm_result_matches_cold_byte_for_byte(self):
        cache = CheckCache()
        cold = check_pipeline(pipeline(), runtime={"scheduler": True})
        cache.check(pipeline(), runtime={"scheduler": True})
        warm = cache.check(pipeline(), runtime={"scheduler": True})
        assert warm.render() == cold.render()
        assert warm.to_json() == cold.to_json()

    def test_warm_recheck_ten_times_faster_than_cold(self):
        """Best-of-N host time on a branchy 4-stage pipeline: the minima
        hold still under scheduler jitter where means drift."""
        ops = [
            RET("notes", into="material"),
            REF(RefAction.CREATE, "Answer from: {material}. ", key="qa"),
        ]
        for stage in range(4):
            ops.append(GEN(f"answer_{stage}", prompt="qa"))
            ops.append(
                CHECK(
                    Condition.metadata_below("confidence", 0.7),
                    then=REF(
                        RefAction.APPEND,
                        f"Refine pass {stage}: cite evidence.",
                        key=f"refine_{stage}",
                    ),
                )
            )
        ops.append(GEN("final", prompt="qa"))
        branchy = Pipeline(ops, name="branchy")
        env = {"runtime": {"scheduler": True, "deadline_s": 300.0}}
        cold_times = []
        for __ in range(5):
            start = time.perf_counter()
            cold = check_pipeline(branchy, **env)
            cold_times.append(time.perf_counter() - start)
        cache = CheckCache()
        warm = cache.check(branchy, **env)
        warm_times = []
        for __ in range(10):
            start = time.perf_counter()
            for __ in range(20):
                warm = cache.check(branchy, **env)
            warm_times.append((time.perf_counter() - start) / 20)
        assert [d.render() for d in warm] == [d.render() for d in cold]
        assert (cache.hits, cache.misses) == (200, 1)
        assert min(cold_times) / min(warm_times) >= 10.0


class TestCachedCheckState:
    def test_sees_prompt_store_changes(self):
        cache = CheckCache()
        state = ExecutionState()
        state.prompts.create("qa", "Answer briefly. ")
        target = Pipeline([GEN("answer", prompt="qa")])
        first = cached_check_state(target, state, cache=cache)
        assert not first.with_code("SPEAR101")
        # A different state without the prompt must not reuse the entry.
        missing = cached_check_state(target, ExecutionState(), cache=cache)
        assert missing.with_code("SPEAR101")
        assert cache.misses == 2

    def test_view_pipeline_still_hits_after_a_run(self):
        """Running a VIEW pipeline leaves the state's view registry, and
        so its check fingerprint, as it was."""
        views = ViewRegistry()
        views.define("base", "Summarize the material.")
        executor = Executor(
            options=RuntimeOptions(
                model=SimulatedLLM("qwen2.5-7b-instruct"), views=views
            )
        )
        state = executor.new_state()
        target = Pipeline([VIEW("base", key="qa"), GEN("answer", prompt="qa")])
        cache = CheckCache()
        cached_check_state(target, state, cache=cache)
        cached_check_state(target, state, cache=cache)
        assert (cache.hits, cache.misses) == (1, 1)
        executor.run(target)
        cached_check_state(target, state, cache=cache)
        assert (cache.hits, cache.misses) == (2, 1)


# ---------------------------------------------------------------------------
# Property: for randomized pipelines and runtimes, a warm cache returns
# diagnostics byte-identical to a cold analysis.

texts = st.sampled_from(
    ("Answer briefly. ", "Cite evidence. ", "Summarize: {notes} ")
)
thresholds = st.sampled_from((0.5, 0.7, 0.9))
runtimes = st.sampled_from(
    (
        None,
        {"scheduler": True},
        {"lanes": 4, "shared_prompts": True},
        {"serve": True},
        {"scheduler": True, "deadline_s": 0.001},
    )
)


@settings(max_examples=30, deadline=None)
@given(
    text=texts,
    threshold=thresholds,
    refine=st.booleans(),
    runtime=runtimes,
)
def test_warm_cache_is_byte_identical_to_cold(text, threshold, refine, runtime):
    ops = [
        REF(RefAction.CREATE, text, key="qa"),
        GEN("draft", prompt="qa"),
    ]
    if refine:
        ops.append(
            CHECK(
                Condition.metadata_below("confidence", threshold),
                then=REF(RefAction.APPEND, "Be specific.", key="qa"),
            )
        )
    ops.append(GEN("answer", prompt="qa"))
    target = Pipeline(ops)
    env = {"runtime": runtime} if runtime is not None else {}

    cold = check_pipeline(target, **env)
    cache = CheckCache()
    cache.check(target, **env)
    warm = cache.check(target, **env)
    assert cache.hits == 1
    assert warm.render() == cold.render()
    assert warm.to_json() == cold.to_json()
