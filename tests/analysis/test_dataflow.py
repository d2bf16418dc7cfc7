"""The dataflow extractor: read/write sets for every core + derived operator."""

import pytest

from repro.analysis import AnalysisEnv, build_dataflow
from repro.core import (
    CHECK,
    DELEGATE,
    DIFF,
    EXPAND,
    GEN,
    MAP,
    MERGE,
    REF,
    RET,
    RETRY,
    SWITCH,
    VIEW,
    Condition,
    Pipeline,
    RefAction,
    ViewRegistry,
)
from repro.core.algebra import FunctionOperator
from repro.resilience import RetryPolicy


def graph_of(ops, **env_kwargs):
    return build_dataflow(Pipeline(list(ops)), AnalysisEnv(**env_kwargs))


class TestRet:
    def test_writes_into_slot(self):
        graph = graph_of([RET("notes", query="p1")])
        node = graph.node('RET["notes"]')
        assert node.kind == "RET"
        assert node.data["source"] == "notes"
        assert node.context_writes == ("notes",)

    def test_into_override_and_prompt_read(self):
        graph = graph_of(
            [RET("notes", prompt="qa", into="slot")],
            prompts={"qa": "Search for {topic}"},
        )
        node = graph.node('RET["notes"]')
        assert node.context_writes == ("slot",)
        assert node.prompt_reads == ("qa",)
        assert "topic" in node.template_params


class TestGen:
    def test_reads_prompt_and_template_slots(self):
        graph = graph_of(
            [GEN("answer", prompt="qa")],
            prompts={"qa": "Notes: {notes}\nFocus: {focus}"},
            context=("notes",),
        )
        node = graph.node('GEN["answer"]')
        assert node.prompt_reads == ("qa",)
        assert set(node.template_params) == {"notes", "focus"}
        assert node.unbound_params == ("focus",)
        assert "answer" in node.context_writes
        assert "answer__result" in node.context_writes
        assert "gen_calls" in node.metadata_writes
        assert "confidence" in node.metadata_writes

    def test_extra_literals_shadow_template_reads(self):
        graph = graph_of(
            [GEN("answer", prompt="qa", extra={"focus": "dosage"})],
            prompts={"qa": "Focus: {focus}"},
        )
        node = graph.node('GEN["answer"]')
        assert node.template_params == ()
        assert node.unbound_params == ()

    def test_missing_prompt_recorded(self):
        graph = graph_of([GEN("answer", prompt="ghost")])
        assert graph.node('GEN["answer"]').missing_prompts == ("ghost",)


class TestRef:
    def test_create_then_read_tracks_literal_text(self):
        graph = graph_of(
            [
                REF(RefAction.CREATE, "Hello {name}", key="qa"),
                GEN("answer", prompt="qa"),
            ]
        )
        gen = graph.node('GEN["answer"]')
        assert gen.missing_prompts == ()
        assert gen.template_params == ("name",)

    def test_append_combines_known_texts(self):
        graph = graph_of(
            [
                REF(RefAction.CREATE, "Base {a}", key="qa"),
                REF(RefAction.APPEND, "More {b}", key="qa"),
                GEN("answer", prompt="qa"),
            ]
        )
        gen = graph.node('GEN["answer"]')
        assert set(gen.template_params) == {"a", "b"}

    def test_callable_refiner_makes_text_dynamic(self):
        graph = graph_of(
            [
                REF(RefAction.CREATE, lambda state, text: "{x}", key="qa"),
                GEN("answer", prompt="qa"),
            ]
        )
        gen = graph.node('GEN["answer"]')
        # The text is unknowable, so no template reads are claimed.
        assert gen.template_params == ()
        assert gen.missing_prompts == ()

    def test_ref_reads_quality_signals(self):
        graph = graph_of([REF(RefAction.CREATE, "x", key="qa")])
        node = graph.nodes[0]
        assert "confidence" in node.metadata_reads
        assert "refinements" in node.metadata_writes


class TestCheck:
    def test_condition_reads_and_branch_is_conditional(self):
        then = REF(RefAction.APPEND, "more", key="qa")
        graph = graph_of(
            [
                REF(RefAction.CREATE, "base", key="qa"),
                CHECK(Condition.metadata_below("confidence", 0.7), then=then),
            ]
        )
        check = next(node for node in graph if node.kind == "CHECK")
        assert "confidence" in check.metadata_reads
        ref_nodes = [node for node in graph if node.kind == "REF"]
        assert ref_nodes[0].conditional is False
        assert ref_nodes[1].conditional is True

    def test_context_condition_reads_slot(self):
        graph = graph_of([CHECK(Condition.missing_context("orders"))])
        assert "orders" in graph.nodes[0].context_reads


class TestMerge:
    def test_reads_both_keys_writes_into(self):
        graph = graph_of(
            [MERGE("a", "b", into="m")], prompts={"a": "x", "b": "y"}
        )
        node = graph.nodes[0]
        assert set(node.prompt_reads) == {"a", "b"}
        assert node.prompt_writes == ("m",)
        assert node.missing_prompts == ()

    def test_missing_keys_recorded(self):
        graph = graph_of([MERGE("a", "b")])
        assert set(graph.nodes[0].missing_prompts) == {"a", "b"}


class TestDelegate:
    def test_payload_is_hard_context_read(self):
        graph = graph_of(
            [DELEGATE("validator", "answer", into="verdict")],
            context=("answer",),
        )
        node = graph.nodes[0]
        assert node.data["agent"] == "validator"
        assert node.context_reads == ("answer",)
        assert node.missing_context == ()
        assert node.context_writes == ("verdict",)
        assert "delegations" in node.metadata_writes

    def test_missing_payload_recorded(self):
        graph = graph_of([DELEGATE("validator", "ghost", into="verdict")])
        assert graph.nodes[0].missing_context == ("ghost",)


class TestExpand:
    def test_lowered_to_ref_write(self):
        graph = graph_of(
            [EXPAND("qa", "extra instruction")], prompts={"qa": "base"}
        )
        node = graph.nodes[0]
        assert node.kind == "REF"
        assert node.prompt_writes == ("qa",)


class TestRetry:
    def test_inner_op_marked_repeated(self):
        inner = GEN("answer", prompt="qa")
        retry = RETRY(
            inner,
            Condition.metadata_below("confidence", 0.5),
            refine=REF(RefAction.APPEND, "try again", key="qa"),
            policy=RetryPolicy(max_attempts=3),
        )
        graph = graph_of([retry], prompts={"qa": "text"})
        gen = graph.node('GEN["answer"]')
        assert gen.repeated is True
        refine = next(node for node in graph if node.kind == "REF")
        assert refine.conditional is True
        retry_node = next(node for node in graph if node.kind == "RETRY")
        assert retry_node.data["has_policy"] is True
        assert "confidence" in retry_node.metadata_reads

    def test_missing_policy_flagged_in_data(self):
        retry = RETRY(
            GEN("answer", prompt="qa"),
            Condition.metadata_below("confidence", 0.5),
        )
        graph = graph_of([retry], prompts={"qa": "text"})
        retry_node = next(node for node in graph if node.kind == "RETRY")
        assert retry_node.data["has_policy"] is False


class TestMap:
    def test_writes_every_key(self):
        graph = graph_of(
            [MAP(["p1", "p2"], lambda state, text: text.upper())],
            prompts={"p1": "a", "p2": "b"},
        )
        node = graph.nodes[0]
        assert node.kind == "MAP"
        assert set(node.prompt_writes) == {"p1", "p2"}


class TestSwitch:
    def test_cases_conditional_and_atoms_read(self):
        switch = SWITCH(
            cases=[
                (
                    Condition.metadata_below("confidence", 0.5),
                    REF(RefAction.CREATE, "low", key="qa"),
                ),
                (
                    Condition.context_contains("orders"),
                    REF(RefAction.CREATE, "high", key="qa"),
                ),
            ],
            default=REF(RefAction.CREATE, "default", key="qa"),
        )
        graph = graph_of([switch])
        node = next(n for n in graph if n.kind == "SWITCH")
        assert "confidence" in node.metadata_reads
        assert "orders" in node.context_reads
        assert all(n.conditional for n in graph if n.kind == "REF")


class TestView:
    def test_resolves_text_through_registry(self):
        views = ViewRegistry()
        views.define("base", "Answer about {topic}.", params=("topic",))
        graph = graph_of(
            [
                VIEW("base", key="qa", params={"topic": "dosage"}),
                GEN("answer", prompt="qa"),
            ],
            views=views,
        )
        view_node = next(n for n in graph if n.kind == "VIEW")
        assert view_node.prompt_writes == ("qa",)
        gen = graph.node('GEN["answer"]')
        # {topic} was consumed by the view params; nothing leaks through.
        assert gen.template_params == ()

    def test_leftover_placeholders_become_context_reads(self):
        views = ViewRegistry()
        views.define("base", "Notes:\n{notes}")
        graph = graph_of(
            [VIEW("base", key="qa"), GEN("answer", prompt="qa")],
            views=views,
        )
        gen = graph.node('GEN["answer"]')
        assert gen.template_params == ("notes",)

    def test_unknown_view_recorded_as_error(self):
        graph = graph_of([VIEW("ghost", key="qa")], views=ViewRegistry())
        node = graph.nodes[0]
        assert "view_error" in node.data
        assert "ghost" in node.data["view_error"]

    def test_analysis_does_not_warm_view_cache(self):
        views = ViewRegistry()
        views.define("base", "static text")
        graph_of([VIEW("base", key="qa")], views=views)
        assert views.get("base").version == 0
        assert views.names() == ["base"]


class TestDiff:
    def test_reads_versioned_keys_writes_into(self):
        graph = graph_of(
            [DIFF("qa@0", "qa", into="drift")], prompts={"qa": "text"}
        )
        node = graph.nodes[0]
        assert node.prompt_reads == ("qa",)
        assert node.context_writes == ("drift",)


class TestOpaque:
    def test_function_operator_sets_havoc(self):
        opaque = FunctionOperator(lambda state: state, "f_custom")
        graph = graph_of(
            [opaque, GEN("answer", prompt="ghost")],
        )
        assert graph.has_opaque
        gen = graph.node('GEN["answer"]')
        assert gen.under_havoc is True
        # Post-havoc missing claims are suppressed.
        assert gen.missing_prompts == ()


class TestGraphApi:
    def test_node_lookup_lists_available_labels(self):
        graph = graph_of([GEN("answer", prompt="qa")], prompts={"qa": "x"})
        with pytest.raises(KeyError) as excinfo:
            graph.node("nope")
        assert 'GEN["answer"]' in str(excinfo.value)

    def test_aggregate_sets(self):
        graph = graph_of(
            [
                RET("notes"),
                REF(RefAction.CREATE, "Notes: {notes}", key="qa"),
                GEN("answer", prompt="qa"),
            ]
        )
        assert graph.prompt_read_set() == {"qa"}
        assert graph.prompt_write_set() == {"qa"}
        assert "notes" in graph.context_read_set()
        assert {"notes", "answer", "answer__result"} <= graph.context_write_set()

    def test_as_footprint_speaks_cache_vocabulary(self):
        from repro.core.footprint import Footprint

        graph = graph_of(
            [GEN("answer", prompt="qa")], prompts={"qa": "Notes: {notes}"}
        )
        footprint = graph.node('GEN["answer"]').as_footprint()
        assert isinstance(footprint, Footprint)
        assert footprint.prompt_keys == ("qa",)
        assert "notes" in dict(footprint.context_reads)
        assert "answer" in footprint.context_writes

    def test_nested_pipeline_extends_path(self):
        inner = Pipeline([GEN("answer", prompt="qa")], name="inner")
        graph = graph_of([inner], prompts={"qa": "x"})
        assert graph.node('GEN["answer"]').path == ("inner",)
