"""The incremental re-check cache: hits, invalidation, metrics, identity."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.cache as check_cache
from repro.analysis import (
    CheckCache,
    cached_check_state,
    check_pipeline,
    fingerprint_check,
)
from repro.analysis.cache import _describe, _Opaque
from repro.core import (
    CHECK,
    GEN,
    REF,
    RET,
    VIEW,
    Condition,
    FunctionOperator,
    Pipeline,
    RefAction,
    ViewRegistry,
)
from repro.core.entry import CompiledTemplate, StaticChunk
from repro.core.state import ExecutionState
from repro.llm.model import SimulatedLLM
from repro.obs.metrics import MetricsRegistry
from repro.runtime.executor import Executor
from repro.runtime.options import RuntimeOptions
from repro.runtime.result_cache import ResultCache


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


class _Addresses:
    """Stands in for ``id`` inside :mod:`repro.analysis.cache`.

    The object last passed to :meth:`reuse` presents one fixed address, so
    each replacement presents the address of the object it replaced: the
    collision an allocator makes only sometimes (it depends on heap
    layout, so on ``PYTHONHASHSEED``) happens every time.  The address is
    a live anchor's, which no other object can hold and no walk meets.
    """

    def __init__(self) -> None:
        self._anchor = object()
        self._presented: dict[int, int] = {}

    def __call__(self, obj: object) -> int:
        return self._presented.get(id(obj), id(obj))

    def reuse(self, new: object) -> None:
        self._presented = {id(new): id(self._anchor)}


@pytest.fixture
def addresses(monkeypatch):
    fake = _Addresses()
    monkeypatch.setattr(check_cache, "id", fake, raising=False)
    return fake


class TestRecycledAddresses:
    """A new object at a freed one's address never inherits its digest."""

    def test_operator_replaced_in_place_at_a_recycled_address(self, addresses):
        texts = ("Answer briefly. ", "Cite evidence. ", "Summarize: {notes} ")
        expected = {text: fingerprint_check(pipeline(text)) for text in texts}
        target = pipeline()
        addresses.reuse(target.operators[0])
        reused = False
        for round_ in range(200):
            text = texts[round_ % 3]  # never the text just replaced
            previous = addresses(target.operators[0])
            target.operators[0] = None
            target.operators[0] = REF(RefAction.CREATE, text, key="qa")
            addresses.reuse(target.operators[0])
            assert fingerprint_check(target) == expected[text]
            reused |= addresses(target.operators[0]) == previous
        assert reused, "no operator took the address of the one it replaced"

    def test_callables_are_keyed_by_code_not_address(self, addresses):
        def body(kind: int):
            if kind:
                return lambda state: state
            return lambda state: None

        fingerprints: dict[int, set[str]] = {0: set(), 1: set()}
        seen: dict[int, set[int]] = {0: set(), 1: set()}
        for round_ in range(200):
            kind = round_ % 2
            fn = body(kind)
            addresses.reuse(fn)
            seen[kind].add(addresses(fn))
            fingerprints[kind].add(
                fingerprint_check(Pipeline([FunctionOperator(fn, label="F")]))
            )
            del fn  # freed here: the next closure presents its address
        assert seen[0] & seen[1], "no address was reused across kinds"
        assert len(fingerprints[0]) == len(fingerprints[1]) == 1
        assert fingerprints[0] != fingerprints[1]

    def test_defaults_and_closure_cells_distinguish_callables(self):
        def closing(value):
            return lambda state: value

        def defaulting(value):
            def body(state, value=value):
                return value

            return body

        def fingerprint(fn) -> str:
            return fingerprint_check(Pipeline([FunctionOperator(fn, label="F")]))

        assert fingerprint(closing(1)) == fingerprint(closing(1))
        assert fingerprint(closing(1)) != fingerprint(closing(2))
        assert fingerprint(defaulting(1)) == fingerprint(defaulting(1))
        assert fingerprint(defaulting(1)) != fingerprint(defaulting(2))

    def test_slotted_values_are_keyed_by_content_not_address(self, addresses):
        texts = ("Answer {topic}. ", "Cite {source}. ", "Summarize: {notes} ")

        def fingerprint(template: CompiledTemplate) -> str:
            return fingerprint_check(pipeline(), runtime={"template": template})

        expected = {text: fingerprint(CompiledTemplate(text)) for text in texts}
        assert len(set(expected.values())) == len(texts)
        holder = [CompiledTemplate(texts[0])]
        addresses.reuse(holder[0])
        reused = False
        for round_ in range(200):
            text = texts[round_ % 3]  # never the text just replaced
            previous = addresses(holder[0])
            holder[0] = None
            holder[0] = CompiledTemplate(text)
            addresses.reuse(holder[0])
            assert fingerprint(holder[0]) == expected[text]
            reused |= addresses(holder[0]) == previous
        assert reused, "no template took the address of the one it replaced"

    def test_an_object_with_no_content_is_never_cached(self):
        opaque = object()  # neither a __dict__ nor slots
        with pytest.raises(_Opaque):
            _describe(opaque)
        assert fingerprint_check(pipeline(), runtime={"lock": opaque}) is None
        cache = CheckCache()
        for _ in range(2):
            result = cache.check(pipeline(), runtime={"lock": opaque})
            assert result.diagnostics == check_pipeline(
                pipeline(), runtime={"lock": opaque}
            ).diagnostics
        assert (cache.hits, cache.misses, len(cache)) == (0, 2, 0)

    def test_static_chunk_is_described_by_text_not_memo(self):
        cold, warm = StaticChunk("Answer briefly."), StaticChunk("Answer briefly.")
        warm.memo["tokens"] = (1, 2, 3)
        assert _describe(cold) == _describe(warm) == ("StaticChunk", "Answer briefly.")
        assert _describe(StaticChunk("Other.")) != _describe(cold)

    def test_slots_are_walked_over_the_mro(self):
        class Base:
            __slots__ = ("__hidden", "unset")

            def __init__(self, hidden):
                self.__hidden = hidden

        class Child(Base):
            __slots__ = "extra"

            def __init__(self, hidden, extra):
                super().__init__(hidden)
                self.extra = extra

        assert _describe(Child(1, "x")) == _describe(Child(1, "x"))
        assert _describe(Child(1, "x")) != _describe(Child(2, "x"))
        assert _describe(Child(1, "x")) != _describe(Child(1, "y"))
        assert "@" not in repr(_describe(CompiledTemplate("a {x} b")))

    def test_self_recursive_closure_is_described_once(self):
        def build():
            def walk(n):
                return walk(n - 1) if n else 0

            return walk

        description = repr(_describe(build()))
        assert description.count(".<locals>.walk'") == 1
        assert "<cycle>" in description

    def test_mutually_recursive_closures_fingerprint_promptly(self):
        def build(limit):
            def a(n):
                return b(n) + c(n) if n < limit else n

            def b(n):
                return a(n + 1) + c(n + 1)

            def c(n):
                return a(n + 2) + b(n + 2)

            return a

        def fingerprint(limit: int) -> str:
            operator = FunctionOperator(build(limit), label="F")
            return fingerprint_check(Pipeline([operator]))

        start = time.perf_counter()
        first = fingerprint(3)
        assert time.perf_counter() - start < 2.0
        assert fingerprint(3) == first
        assert fingerprint(4) != first


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

    def test_gen_pipeline_still_hits_after_a_cached_run(self):
        """A GEN's footprint memos are no part of its description: a
        pipeline re-walked after its GENs ran under a result cache hits."""
        executor = Executor(
            options=RuntimeOptions(
                model=SimulatedLLM(
                    "qwen2.5-7b-instruct", enable_prefix_cache=False
                ),
                result_cache=ResultCache(),
            )
        )
        state = executor.new_state()
        state.prompts.create("qa", "Answer briefly. ")
        gen = GEN("answer", prompt="qa")
        before = repr(_describe(Pipeline([gen]), 0, {}))
        cache = CheckCache()
        cached_check_state(Pipeline([gen]), state, cache=cache)
        executor.run(Pipeline([gen]), state=state.fork())
        assert gen._footprint is not None  # the run took a footprint
        assert repr(_describe(Pipeline([gen]), 0, {})) == before
        cached_check_state(Pipeline([gen]), state, cache=cache)
        assert (cache.hits, cache.misses) == (1, 1)


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
