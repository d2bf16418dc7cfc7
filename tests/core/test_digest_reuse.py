"""Digests computed once per value: the hazards of reusing them.

A value immutable by type keeps its ``stable_digest`` beside it in the
context, and a cached delta digests an immutable write only when an
invalidation walk needs it.  These tests pin that a remembered digest is
always the digest of the bound value, that in-place mutation of a
mutable input still misses, and that every digest string (the
``CACHE_HIT`` fingerprints included) is the one the eager definition
gives.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.runtime.result_cache as result_cache_module
from repro.core import GEN, Pipeline, RefAction
from repro.core.context import Context
from repro.core.footprint import Footprint, immutable_by_type, stable_digest
from repro.core.state import ExecutionState
from repro.data import make_tweet_corpus
from repro.llm.model import SimulatedLLM
from repro.runtime.events import EventKind
from repro.runtime.executor import Executor
from repro.runtime.options import RuntimeOptions
from repro.runtime.result_cache import ResultCache


def reference_digest(value):
    """``stable_digest`` as first defined: ``json.dumps`` per call."""
    try:
        payload = json.dumps(value, sort_keys=True, default=repr)
    except (TypeError, ValueError):
        payload = repr(value)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Point:
    x: int
    label: str


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([math.nan, -0.0, math.inf]),
    st.text(max_size=6),
)
IMMUTABLE = st.recursive(
    st.one_of(SCALARS, st.builds(Point, st.integers(), st.text(max_size=4))),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)
ANY = st.recursive(
    st.one_of(IMMUTABLE, st.sets(st.integers(), max_size=3)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
        st.dictionaries(st.integers(), inner, max_size=2),
    ),
    max_leaves=8,
)


class TestDigestDefinition:
    @settings(max_examples=300, deadline=None)
    @given(
        value=st.one_of(
            ANY,
            st.dictionaries(  # mixed key types: unsortable, so repr
                st.one_of(st.integers(), st.text(max_size=2)), SCALARS, max_size=3
            ),
        )
    )
    def test_stable_digest_is_the_eager_definition(self, value):
        assert stable_digest(value) == reference_digest(value)

    def test_a_self_containing_value_takes_the_repr_fallback(self):
        loop: list = [1]
        loop.append(loop)
        assert stable_digest(loop) == reference_digest(loop)

    @settings(max_examples=300, deadline=None)
    @given(
        operator=st.text(max_size=8),
        identity=st.one_of(st.text(max_size=8), st.integers()),
        model_key=st.one_of(
            st.none(),
            st.text(max_size=8),
            st.integers(),
            st.tuples(st.text(max_size=3)),
        ),
        prompt_deps=st.lists(
            st.tuples(
                st.text(max_size=4),
                st.one_of(st.integers(), st.booleans()),
                st.text(max_size=4),
                st.text(max_size=4),
            ),
            max_size=2,
        ).map(tuple),
        context_reads=st.lists(
            st.tuples(st.text(max_size=4), st.text(max_size=4)), max_size=3
        ).map(tuple),
    )
    def test_footprint_digest_is_the_digest_of_its_fields(
        self, operator, identity, model_key, prompt_deps, context_reads
    ):
        footprint = Footprint(operator, identity, model_key, prompt_deps, context_reads)
        assert footprint.digest == reference_digest(
            {
                "operator": operator,
                "identity": identity,
                "model": model_key,
                "prompts": prompt_deps,
                "reads": context_reads,
            }
        )


class TestRememberedDigests:
    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "mutate", "delete", "fork"]),
                st.sampled_from(["a", "b"]),
                ANY,
            ),
            max_size=12,
        )
    )
    def test_a_remembered_digest_is_always_the_bound_values(self, ops):
        context = Context()
        for op, key, value in ops:
            if op == "put":
                context.put(key, value)
            elif op == "mutate" and type(context.get(key)) is list:
                context[key].append(value)  # in place: the same object
            elif op == "delete" and key in context:
                del context[key]
            elif op == "fork":
                context = context.fork()
            # Every bound key is read after every step, so each later
            # step meets a remembered digest where one can be kept.
            for bound_key in context:
                assert context.digest(bound_key) == reference_digest(
                    context[bound_key]
                )
            for known, (bound, digest) in context.digests.items():
                assert bound is context[known]
                assert immutable_by_type(bound)
                assert digest == reference_digest(bound)

    def test_overwriting_a_key_drops_its_digest(self):
        context = Context()
        first = "first value"
        context.put("k", first)
        context.digest("k")
        assert "k" in context.digests
        context.put("k", first)  # the same object: still its digest
        assert context.digests["k"][0] is first
        context.put("k", "second value")
        assert "k" not in context.digests
        assert context.digest("k") == reference_digest("second value")
        del context["k"]
        assert "k" not in context.digests

    def test_mutable_values_are_digested_on_every_read(self):
        context = Context({"notes": ["a"]})
        before = context.digest("notes")
        context["notes"].append("b")
        assert context.digest("notes") != before
        assert "notes" not in context.digests

    def test_immutable_by_type(self):
        assert immutable_by_type(("a", 1, 2.5, None, (True,), Point(1, "p")))
        assert not immutable_by_type(("a", ["list"]))
        assert not immutable_by_type({"a": 1})
        assert not immutable_by_type(bytearray(b"x"))


NOTES_PROMPT = "Answer from the notes.\nNotes:\n{notes}"


def _state(notes):
    llm = SimulatedLLM("qwen2.5-7b-instruct", enable_prefix_cache=False)
    llm.bind_tweets(make_tweet_corpus(4, seed=7))
    state = ExecutionState(model=llm, clock=llm.clock)
    state.prompts.create("notes_p", NOTES_PROMPT)
    state.prompts.create("map_p", "Summarize the tweet.\nTweet:\n{tweet}")
    state.prompts.create("digest_p", "Summary:\n{summary}\nOne takeaway.")
    state.prompts.create("filter_p", "Negative? yes or no.\nTweet:\n{tweet}")
    state.context.put("notes", notes, producer="test")
    state.context.put("tweet", "the bus was late again", producer="test")
    return state


def _run(state, cache, pipeline):
    executor = Executor(
        options=RuntimeOptions(
            model=state.model, clock=state.clock, result_cache=cache
        )
    )
    return executor.run(pipeline, state=state)


def _hits(result):
    return [e.operator for e in result.events if e.kind is EventKind.CACHE_HIT]


class TestInPlaceMutationMisses:
    @settings(max_examples=25, deadline=None)
    @given(
        notes=st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=3),
        extra=st.text(min_size=1, max_size=6),
    )
    def test_a_stored_list_mutated_between_runs_misses(self, notes, extra):
        state, cache = _state(list(notes)), ResultCache()
        pipeline = Pipeline([GEN("answer", prompt="notes_p")])
        _run(state, cache, pipeline)
        assert _hits(_run(state, cache, pipeline)) == ['GEN["answer"]']
        state.context["notes"].append(extra)  # in place: same list object
        assert _hits(_run(state, cache, pipeline)) == []
        assert cache.misses == 2

    def test_params_mutated_in_place_miss(self):
        state, cache = _state(["n"]), ResultCache()
        pipeline = Pipeline([GEN("answer", prompt="notes_p")])
        _run(state, cache, pipeline)
        state.prompts["notes_p"].params["tone"] = "formal"
        assert _hits(_run(state, cache, pipeline)) == []
        state.prompts["notes_p"].params["tone"] = "casual"
        assert _hits(_run(state, cache, pipeline)) == []
        assert (cache.hits, cache.misses) == (0, 3)


class TestFingerprints:
    def test_cache_hit_fingerprints_are_the_eager_digests(self):
        state, cache = _state(["n"]), ResultCache()
        gens = [
            GEN("summary", prompt="map_p"),
            GEN("takeaway", prompt="digest_p", max_tokens=12),
            GEN("verdict", prompt="filter_p", extra={"tone": "dry"}),
        ]
        pipeline = Pipeline(gens)
        _run(state, cache, pipeline)
        hits = [
            e
            for e in _run(state, cache, pipeline).events
            if e.kind is EventKind.CACHE_HIT
        ]
        assert [e.operator for e in hits] == [gen.label for gen in gens]
        for gen, event in zip(gens, hits):
            entry = state.prompts[gen.prompt_key]
            roots = [name for name in entry.template.names if name not in gen.extra]
            identity = {
                "op": "GEN",
                "label": gen.label_key,
                "prompt": gen.prompt_key,
                "extra": gen.extra,
                "max_tokens": gen.max_tokens,
            }
            prompt = [
                gen.prompt_key,
                entry.version,
                reference_digest(entry.text),
                reference_digest(entry.params),
            ]
            expected = reference_digest(
                {
                    "operator": gen.label,
                    "identity": reference_digest(identity),
                    "model": state.model.result_cache_key,
                    "prompts": [prompt],
                    "reads": [
                        [root, reference_digest(state.context[root])] for root in roots
                    ],
                }
            )
            assert event.payload["fingerprint"] == expected


class TestLazyWriteDigests:
    def test_a_walk_digests_only_writes_some_entry_reads(self, monkeypatch):
        state, cache = _state(["n"]), ResultCache()
        pipeline = Pipeline(
            [
                GEN("summary", prompt="map_p"),
                GEN("takeaway", prompt="digest_p"),
                GEN("verdict", prompt="filter_p"),
            ]
        )
        _run(state, cache, pipeline)
        digested = []

        def counting(value):
            digested.append(value)
            return stable_digest(value)

        monkeypatch.setattr(result_cache_module, "stable_digest", counting)
        # verdict's writes (text and GenerationResult) feed no entry.
        entry = state.prompts["filter_p"]
        entry.record(RefAction.APPEND, entry.text + "\nBe strict.", function="f")
        assert cache.invalidate_prompt("filter_p", keep_version=entry.version) == 1
        assert digested == []
        # summary's text is read by takeaway's entry: that write alone is
        # digested, and the walk reaches the reader.
        entry = state.prompts["map_p"]
        entry.record(RefAction.APPEND, entry.text + "\nBe brief.", function="f")
        assert cache.invalidate_prompt("map_p", keep_version=entry.version) == 2
        assert digested == [state.context["summary"]]
