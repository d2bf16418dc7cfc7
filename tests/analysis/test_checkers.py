"""The analyzer suite: one unit test per diagnostic code, plus fixtures."""

from pathlib import Path

import pytest

from repro.analysis import (
    CODE_CATALOG,
    CheckResult,
    Severity,
    check_pipeline,
    check_program,
)
from repro.core import (
    CHECK,
    DELEGATE,
    GEN,
    MERGE,
    REF,
    RET,
    RETRY,
    Condition,
    Pipeline,
    RefAction,
    ViewRegistry,
)

FIXTURES = Path(__file__).parent.parent / "fixtures" / "dl"


def codes(result: CheckResult) -> set[str]:
    return set(result.codes())


class TestPromptRefCodes:
    def test_spear101_undefined_prompt_ref(self):
        result = check_pipeline(Pipeline([GEN("answer", prompt="ghost")]))
        (finding,) = result.with_code("SPEAR101")
        assert finding.severity is Severity.ERROR
        assert "ghost" in finding.message

    def test_spear102_unbound_template_param(self):
        result = check_pipeline(
            Pipeline(
                [
                    REF(RefAction.CREATE, "Hello {nobody}", key="qa"),
                    GEN("answer", prompt="qa"),
                ]
            )
        )
        (finding,) = result.with_code("SPEAR102")
        assert "nobody" in finding.message

    def test_spear103_shadowed_template_param(self):
        result = check_pipeline(
            Pipeline(
                [
                    RET("notes", into="focus"),
                    REF(RefAction.CREATE, "Focus: {focus}", key="qa"),
                    GEN("answer", prompt="qa", extra={"focus": "dosage"}),
                ]
            )
        )
        (finding,) = result.with_code("SPEAR103")
        assert "focus" in finding.message

    def test_spear104_view_resolution_error(self):
        from repro.core import VIEW

        views = ViewRegistry()
        views.define("needs", "About {topic}", params=("topic",))
        result = check_pipeline(
            Pipeline([VIEW("needs", key="qa")]), views=views
        )
        (finding,) = result.with_code("SPEAR104")
        assert "topic" in finding.message


class TestContextCodes:
    def test_spear111_read_before_write(self):
        result = check_pipeline(
            Pipeline(
                [
                    REF(RefAction.CREATE, "Data: {late}", key="qa"),
                    GEN("answer", prompt="qa"),
                    RET("notes", into="late"),
                ]
            )
        )
        (finding,) = result.with_code("SPEAR111")
        assert "late" in finding.message
        assert 'RET["notes"]' in finding.message

    def test_spear112_dead_write(self):
        result = check_pipeline(
            Pipeline([RET("a", into="slot"), RET("b", into="slot")])
        )
        (finding,) = result.with_code("SPEAR112")
        assert finding.operator == 'RET["a"]'

    def test_conditional_write_is_not_dead(self):
        result = check_pipeline(
            Pipeline(
                [
                    RET("a", into="slot"),
                    CHECK(
                        Condition.metadata_below("confidence", 0.5),
                        then=RET("b", into="slot"),
                    ),
                ]
            )
        )
        assert not result.with_code("SPEAR112")


class TestUnusedCodes:
    def test_spear121_unused_prompt(self):
        result = check_pipeline(
            Pipeline([REF(RefAction.CREATE, "orphan", key="nobody_reads")])
        )
        (finding,) = result.with_code("SPEAR121")
        assert "nobody_reads" in finding.message

    def test_spear122_unused_view(self):
        source = """
view used() {
  \"\"\"text\"\"\"
}
view orphan() {
  \"\"\"never instantiated\"\"\"
}
pipeline p {
  VIEW["used", key="qa"]
  GEN["answer", prompt="qa"]
}
"""
        result = check_program(source)
        (finding,) = result.with_code("SPEAR122")
        assert "orphan" in finding.message
        assert finding.severity is Severity.INFO

    def test_base_of_used_view_counts_as_used(self):
        source = """
view base() {
  \"\"\"root text\"\"\"
}
view child() extends base {
  \"\"\"{base} plus more\"\"\"
}
pipeline p {
  VIEW["child", key="qa"]
  GEN["answer", prompt="qa"]
}
"""
        assert not check_program(source).with_code("SPEAR122")


class TestControlCodes:
    def test_spear131_merge_unwritten_key(self):
        result = check_pipeline(Pipeline([MERGE("ghost1", "ghost2")]))
        findings = result.with_code("SPEAR131")
        assert {finding.data["key"] for finding in findings} == {
            "ghost1",
            "ghost2",
        }

    def test_spear141_unbounded_retry(self):
        retry = RETRY(
            GEN("answer", prompt="qa"),
            Condition.metadata_below("confidence", 0.5),
        )
        result = check_pipeline(Pipeline([retry]), prompts={"qa": "x"})
        (finding,) = result.with_code("SPEAR141")
        assert "RetryPolicy" in finding.message

    def test_dl_retry_always_bounded(self):
        source = """
pipeline p {
  REF[CREATE, "text", key="qa"]
  RETRY[GEN["answer", prompt="qa"], M["confidence"] < 0.5]
}
"""
        assert not check_program(source).with_code("SPEAR141")

    def test_spear142_delegate_cycle(self):
        result = check_pipeline(
            Pipeline([DELEGATE("agent", "loop", into="loop")])
        )
        (finding,) = result.with_code("SPEAR142")
        assert "loop" in finding.message

    def test_spear143_unknown_agent(self):
        result = check_pipeline(
            Pipeline([DELEGATE("ghost", "x", into="y")]),
            context=("x",),
            agents=["validator"],
        )
        (finding,) = result.with_code("SPEAR143")
        assert "validator" in finding.message

    def test_spear144_unknown_source(self):
        result = check_pipeline(
            Pipeline([RET("ghost_source")]), sources=["notes"]
        )
        (finding,) = result.with_code("SPEAR144")
        assert "notes" in finding.message

    def test_registration_checks_skipped_when_unknown(self):
        result = check_pipeline(
            Pipeline([RET("anything"), DELEGATE("anyone", "anything", into="v")])
        )
        assert not result.with_code("SPEAR143")
        assert not result.with_code("SPEAR144")

    def test_spear145_deadline_without_scheduler(self):
        pipeline = Pipeline([GEN("answer", prompt="qa")])
        result = check_pipeline(
            pipeline,
            prompts={"qa": "x"},
            runtime={"scheduler": None, "deadline_s": 5.0},
        )
        (finding,) = result.with_code("SPEAR145")
        assert finding.severity is Severity.WARNING
        assert "deadline_s" in str(finding.data["configured"])

    def test_spear145_priority_without_scheduler(self):
        result = check_pipeline(
            Pipeline([GEN("answer", prompt="qa")]),
            prompts={"qa": "x"},
            runtime={"scheduler": False, "priority": "interactive"},
        )
        (finding,) = result.with_code("SPEAR145")
        assert finding.data["configured"] == ("priority",)

    def test_spear145_silent_when_scheduler_enabled(self):
        result = check_pipeline(
            Pipeline([GEN("answer", prompt="qa")]),
            prompts={"qa": "x"},
            runtime={"scheduler": True, "deadline_s": 5.0},
        )
        assert not result.with_code("SPEAR145")

    def test_spear145_skipped_when_runtime_unknown(self):
        result = check_pipeline(
            Pipeline([GEN("answer", prompt="qa")]), prompts={"qa": "x"}
        )
        assert not result.with_code("SPEAR145")

    def test_spear147_retired_serving_policy_is_silent(self):
        # Serving pools order admission by deadline/priority and have no
        # per-run engine to miss: neither code fires, and the retired
        # code keeps its catalog entry so suppressions still parse.
        result = check_pipeline(
            Pipeline([GEN("answer", prompt="qa")]),
            prompts={"qa": "x"},
            runtime={"serve": True, "deadline_s": 5.0, "priority": "bulk"},
        )
        assert not result.with_code("SPEAR145")
        assert not result.with_code("SPEAR147")
        assert CODE_CATALOG["SPEAR147"][2].startswith("Retired")

    def test_spear147_silent_without_serving_policy(self):
        result = check_pipeline(
            Pipeline([GEN("answer", prompt="qa")]),
            prompts={"qa": "x"},
            runtime={"serve": True, "scheduler": False},
        )
        assert not result.with_code("SPEAR147")

    def test_spear146_item_first_template(self):
        pipeline = Pipeline(
            [
                RET("notes", into="tweet"),
                REF(
                    RefAction.CREATE,
                    "Tweet: {tweet} Summarise the tweet in one neutral "
                    "sentence without hashtags.",
                    key="qa",
                ),
                GEN("answer", prompt="qa"),
            ]
        )
        (finding,) = check_pipeline(pipeline).with_code("SPEAR146")
        assert finding.severity is Severity.WARNING
        assert finding.data["placeholder"] == "tweet"
        assert finding.data["static_after"] > finding.data["static_before"]
        assert "before" in finding.data["fix_hint"]

    def test_spear146_instruction_first_is_clean(self):
        pipeline = Pipeline(
            [
                RET("notes", into="tweet"),
                REF(
                    RefAction.CREATE,
                    "Summarise the following tweet in one neutral sentence "
                    "without hashtags: {tweet}",
                    key="qa",
                ),
                GEN("answer", prompt="qa"),
            ]
        )
        assert not check_pipeline(pipeline).with_code("SPEAR146")

    def test_spear146_skipped_for_dynamic_templates(self):
        pipeline = Pipeline(
            [
                RET("notes", into="tweet"),
                REF(RefAction.CREATE, lambda entry, state: "x", key="qa"),
                GEN("answer", prompt="qa"),
            ]
        )
        assert not check_pipeline(pipeline).with_code("SPEAR146")


class TestReachabilityCodes:
    def test_spear148_metadata_check_never_fires(self):
        check = CHECK(
            Condition.metadata_above("never_written", 0.5),
            then=REF(RefAction.CREATE, "x", key="qa"),
        )
        result = check_pipeline(Pipeline([check]))
        (finding,) = result.with_code("SPEAR148")
        assert "never fire" in finding.message

    def test_run_once_idiom_not_flagged(self):
        # "orders" not in C guarding its own RET is the paper's standard
        # conditional-retrieval idiom; statically true but useful.
        check = CHECK(
            Condition.missing_context("orders"),
            then=RET("order_lookup", into="orders"),
        )
        assert not check_pipeline(Pipeline([check])).with_code("SPEAR148")

    def test_written_signal_is_unknowable(self):
        pipeline = Pipeline(
            [
                REF(RefAction.CREATE, "x", key="qa"),
                GEN("answer", prompt="qa"),
                CHECK(
                    Condition.metadata_below("confidence", 0.5),
                    then=REF(RefAction.APPEND, "more", key="qa"),
                ),
            ]
        )
        assert not check_pipeline(pipeline).with_code("SPEAR148")


class TestFixtures:
    def test_buggy_fixture_trips_many_distinct_codes(self):
        source = (FIXTURES / "buggy_pipeline.spear").read_text()
        result = check_program(source, filename="buggy_pipeline.spear")
        assert result.has_errors
        assert len(codes(result)) >= 6
        assert {
            "SPEAR101",
            "SPEAR102",
            "SPEAR111",
            "SPEAR112",
            "SPEAR121",
            "SPEAR122",
            "SPEAR131",
            "SPEAR142",
            "SPEAR146",
            "SPEAR148",
            "SPEAR172",
        } <= codes(result)

    def test_buggy_fixture_spans_point_into_the_file(self):
        source = (FIXTURES / "buggy_pipeline.spear").read_text()
        result = check_program(source, filename="buggy_pipeline.spear")
        for finding in result:
            assert finding.span is not None
            assert finding.span.file == "buggy_pipeline.spear"
            assert finding.span.line > 0
            assert finding.span.column > 0

    def test_clean_fixture_is_clean(self):
        source = (FIXTURES / "clean_pipeline.spear").read_text()
        result = check_program(source)
        assert len(result) == 0

    def test_syntax_error_becomes_spear001(self):
        result = check_program("pipeline p { GEN[", filename="broken.spear")
        (finding,) = result.with_code("SPEAR001")
        assert finding.span is not None
        assert finding.span.file == "broken.spear"

    def test_superscript_digit_becomes_spear001(self):
        # `²` passes str.isdigit() but int() rejects it; it must come back
        # as a syntax diagnostic, never as a ValueError.
        result = check_program('pipeline p { GEN["a", prompt="x", max_tokens=²] }')
        (finding,) = result.with_code("SPEAR001")
        assert "unexpected character '²'" in finding.message
        assert (finding.span.line, finding.span.column) == (1, 46)

    def test_compile_error_becomes_spear002(self):
        result = check_program('pipeline p { TELEPORT["x"] }')
        (finding,) = result.with_code("SPEAR002")
        assert "TELEPORT" in finding.message


class TestExamplesGate:
    EXAMPLES = Path(__file__).parent.parent.parent / "examples"

    def test_spear_dl_demo_source_checks_clean(self):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "spear_dl_demo_for_check", self.EXAMPLES / "spear_dl_demo.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        result = check_program(module.SOURCE)
        assert not result.has_errors
        assert len(result) == 0

    def test_spear_file_example_checks_clean(self):
        source = (self.EXAMPLES / "enoxaparin_qa.spear").read_text()
        result = check_program(source)
        assert not result.has_errors
        assert len(result) == 0


class TestDiagnosticFramework:
    def test_catalog_covers_every_emitted_code(self):
        source = (FIXTURES / "buggy_pipeline.spear").read_text()
        for finding in check_program(source):
            assert finding.code in CODE_CATALOG
            assert finding.name == CODE_CATALOG[finding.code][1]

    def test_with_code_rejects_unknown_codes_listing_catalog(self):
        with pytest.raises(KeyError) as excinfo:
            CheckResult().with_code("SPEAR999")
        assert "SPEAR101" in str(excinfo.value)

    def test_to_dict_round_trips_counts(self):
        source = (FIXTURES / "buggy_pipeline.spear").read_text()
        result = check_program(source)
        payload = result.to_dict()
        assert payload["errors"] == len(result.errors)
        assert len(payload["diagnostics"]) == len(result)
