"""Tests for the SPEAR-DL compiler: lowering to views and operators."""

import pytest

from repro.analysis.diagnostics import SourceSpan
from repro.core import CHECK, DELEGATE, GEN, MERGE, REF, RET, ExecutionState
from repro.core.derived import DIFF, VIEW
from repro.dl import compile_source
from repro.errors import DslCompileError


class TestViewCompilation:
    def test_views_registered(self):
        compiled = compile_source('view v(drug) { """use {drug}""" tags: t }')
        assert "v" in compiled.views
        assert compiled.views.expand("v", {"drug": "X"}) == "use X"
        assert compiled.views.with_tag("t") == ["v"]

    def test_extends_chain(self):
        compiled = compile_source(
            'view base() { """BASE""" }\nview child() extends base { """CHILD""" }'
        )
        assert compiled.views.expand("child") == "BASE\nCHILD"


class TestOperatorLowering:
    def test_all_core_operators_lower(self):
        source = """
        view v() { \"\"\"text\"\"\" }
        pipeline p {
          RET["src", query="q"]
          VIEW["v", key="qa"]
          REF[APPEND, "more", key="qa", mode="manual"]
          EXPAND["qa", "extra"]
          GEN["out", prompt="qa", max_tokens=10]
          CHECK[M["confidence"] < 0.7] -> REF[APPEND, "hint", key="qa"]
          MERGE["qa", "qa", into="merged"]
          DIFF["qa", "merged", into="d"]
          DELEGATE["agent", payload="out", into="score"]
        }
        """
        compiled = compile_source(source)
        ops = list(compiled.pipeline("p"))
        assert isinstance(ops[0], RET)
        assert isinstance(ops[1], VIEW)
        assert isinstance(ops[2], REF)
        assert isinstance(ops[4], GEN)
        assert isinstance(ops[5], CHECK)
        assert isinstance(ops[6], MERGE)
        assert isinstance(ops[7], DIFF)
        assert isinstance(ops[8], DELEGATE)

    def test_check_condition_text_matches_paper_notation(self):
        compiled = compile_source(
            'pipeline p { CHECK[M["confidence"] < 0.7] -> REF[APPEND, "h", key="qa"] }'
        )
        check = compiled.pipeline("p")[0]
        assert check.cond.text == 'M["confidence"] < 0.7'

    def test_check_greater_than_and_context_conditions(self):
        compiled = compile_source(
            'pipeline p { CHECK[M["retries"] > 2] CHECK["orders" not in C] }'
        )
        state = ExecutionState()
        state.metadata.set("retries", 3)
        assert compiled.pipeline("p")[0].cond(state)
        assert compiled.pipeline("p")[1].cond(state)

    def test_gen_without_prompt_rejected(self):
        with pytest.raises(DslCompileError):
            compile_source('pipeline p { GEN["out"] }')

    def test_ref_requires_key(self):
        with pytest.raises(DslCompileError):
            compile_source('pipeline p { REF[APPEND, "x"] }')

    def test_ref_unknown_action(self):
        with pytest.raises(DslCompileError):
            compile_source('pipeline p { REF[SHUFFLE, "x", key="qa"] }')

    def test_unknown_operator(self):
        with pytest.raises(DslCompileError) as excinfo:
            compile_source("pipeline p { TELEPORT[\"x\"] }")
        assert "TELEPORT" in str(excinfo.value)

    def test_view_must_exist(self):
        with pytest.raises(DslCompileError):
            compile_source('pipeline p { VIEW["ghost"] }')

    def test_arrow_only_after_check(self):
        with pytest.raises(DslCompileError):
            compile_source(
                'pipeline p { RET["x"] -> REF[APPEND, "y", key="qa"] }'
            )

    @pytest.mark.parametrize(
        "source, name",
        [
            ('pipeline p { check[M["confidence"] < 0.5] }', "check"),
            ('pipeline p { gen["a", prompt="qa"] }', "gen"),
            (
                'pipeline p { check[M["confidence"] < 0.5] -> REF[APPEND, "y", key="qa"] }',
                "check",
            ),
            (
                'pipeline p { RETRY[gen["a", prompt="qa"], M["confidence"] < 0.5] }',
                "gen",
            ),
            ('pipeline p { Gen["a", prompt="qa"] }', "Gen"),
        ],
    )
    def test_operator_names_resolve_exactly(self, source, name):
        # Statement, '->' statement and nested term: one answer for each.
        with pytest.raises(DslCompileError) as excinfo:
            compile_source(source)
        assert excinfo.value.message == f"unknown operator {name!r}"

    def test_every_lowerer_is_named_by_its_operator(self):
        from repro.dl.compiler import _LOWERERS

        assert set(_LOWERERS) == {
            "RET", "GEN", "REF", "EXPAND", "CHECK", "MERGE", "DELEGATE",
            "VIEW", "SELECT_VIEW", "FUSED_GEN", "RETRY", "DIFF",
        }

    def test_ret_unknown_kwargs_rejected(self):
        with pytest.raises(DslCompileError):
            compile_source('pipeline p { RET["x", frobnicate=1] }')

    def test_unknown_pipeline_lookup(self):
        compiled = compile_source("pipeline p { RET[\"x\"] }")
        with pytest.raises(DslCompileError):
            compiled.pipeline("q")


class TestEndToEnd:
    def test_full_clinical_pipeline_runs(self, state):
        source = """
        view med_summary(drug) {
          \"\"\"### Task
Summarize the patient's medication history and highlight any use of {drug}.
Notes:
{initial_notes}\"\"\"
        }
        pipeline qa {
          RET["initial_notes", query="p0001"]
          VIEW["med_summary", key="qa", params={drug: "Enoxaparin"}]
          GEN["answer_0", prompt="qa"]
          CHECK[M["confidence"] < 0.99] -> REF[APPEND, "Be specific about dosage.", key="qa"]
          GEN["answer_1", prompt="qa"]
          DELEGATE["validation_agent", payload="answer_1", into="evidence"]
        }
        """
        compiled = compile_source(source)
        # Adopt the compiled views into the fixture state.
        state._views = compiled.views
        final = compiled.pipeline("qa").apply(state)
        assert "answer_0" in final.C
        assert "answer_1" in final.C
        assert "evidence_score" in final.C["evidence"]
        assert final.prompts["qa"].version >= 1


class TestRetryLowering:
    def test_retry_compiles_and_runs(self, state, tweet_corpus):
        source = '''
        pipeline retrying {
          REF[CREATE, "Select the tweet only if its sentiment is negative. Respond with yes or no.\\nTweet:\\n{tweet}", key="qa"]
          RETRY[GEN["verdict", prompt="qa"], M["confidence"] < 0.99, refine=REF[APPEND, "Think carefully.", key="qa"], max_retries=1]
        }
        '''
        compiled = compile_source(source)
        state.context.put("tweet", tweet_corpus[0].text)
        final = compiled.pipeline("retrying").apply(state)
        assert "verdict" in final.C
        assert final.M["gen_calls"] >= 1

    def test_retry_requires_operator_first(self):
        with pytest.raises(DslCompileError):
            compile_source('pipeline p { RETRY["not an op", M["c"] < 1] }')

    def test_retry_requires_condition_second(self):
        with pytest.raises(DslCompileError):
            compile_source('pipeline p { RETRY[GEN["x", prompt="q"], "nope"] }')

    def test_retry_max_retries_must_be_int(self):
        with pytest.raises(DslCompileError):
            compile_source(
                'pipeline p { RETRY[GEN["x", prompt="q"], M["c"] < 1, max_retries="two"] }'
            )

    def test_nested_op_round_trips_through_formatter(self):
        from repro.dl import format_program, parse

        source = (
            'pipeline p { RETRY[GEN["x", prompt="q"], M["c"] < 0.5, '
            'refine=REF[APPEND, "t", key="q"], max_retries=3] }'
        )
        assert parse(format_program(parse(source))) == parse(source)


class TestListSyntaxAndOptimizerOps:
    def test_list_literals_parse(self):
        from repro.dl import parse

        program = parse('pipeline p { OP[items=["a", "b", 3]] }')
        assert program.pipeline("p").statements[0].op.kwargs["items"] == ["a", "b", 3]

    def test_list_round_trips_through_formatter(self):
        from repro.dl import format_program, parse

        source = 'pipeline p { OP[items=["a", "b", 3], flag=true] }'
        assert parse(format_program(parse(source))) == parse(source)

    def test_select_view_lowers_and_runs(self, state):
        source = '''
        view generic() { """### Task
Answer questions about the patient chart below.
Notes:
{notes}""" }
        view med_focused() { """### Task
Highlight any use of enoxaparin; be specific about dosage and timing.
Notes:
{notes}""" }
        pipeline p {
          SELECT_VIEW[candidates=["generic", "med_focused"], terms=["enoxaparin", "dosage", "timing"], key="qa"]
          GEN["answer", prompt="qa"]
        }
        '''
        from repro.dl import compile_source

        compiled = compile_source(source)
        state._views = compiled.views
        patient_notes = state.source("initial_notes")(state, "p0001")
        state.context.put("notes", patient_notes)
        final = compiled.pipeline("p").apply(state)
        assert final.metadata["selected_view"] == "med_focused"
        assert "answer" in final.C

    def test_select_view_validates_candidates(self):
        from repro.dl import compile_source

        with pytest.raises(DslCompileError):
            compile_source(
                'pipeline p { SELECT_VIEW[candidates=["ghost"], terms=["x"], key="qa"] }'
            )

    def test_fused_gen_lowers_and_runs(self, state, clinical_corpus):
        source = '''
        view chart_q(question) { """### Task
You are reviewing the chart of one patient.
Notes:
{notes}
Question: {question}""" }
        pipeline p {
          VIEW["chart_q", key="q1", params={question: "Highlight any use of Enoxaparin; be specific about dosage."}]
          VIEW["chart_q", key="q2", params={question: "Highlight any use of Enoxaparin; state the timing."}]
          FUSED_GEN[labels=["dosage", "timing"], prompts=["q1", "q2"]]
        }
        '''
        from repro.dl import compile_source

        compiled = compile_source(source)
        state._views = compiled.views
        patient = next(p for p in clinical_corpus if p.on_enoxaparin)
        state.context.put(
            "notes", "\n".join(note.text for note in patient.notes)
        )
        final = compiled.pipeline("p").apply(state)
        assert "dosage" in final.C and "timing" in final.C
        assert final.M["gen_calls"] == 1

    def test_fused_gen_validates_lengths(self):
        from repro.dl import compile_source

        with pytest.raises(DslCompileError):
            compile_source(
                'pipeline p { FUSED_GEN[labels=["a"], prompts=["q1", "q2"]] }'
            )


class TestSourceSpans:
    SOURCE = """pipeline spanned {
  REF[CREATE, "text", key="qa"]
  GEN["answer", prompt="qa"]
  CHECK[M["confidence"] < 0.5] -> REF[APPEND, "more", key="qa"]
}
"""

    def test_operators_carry_spans(self):
        compiled = compile_source(self.SOURCE, filename="spanned.spear")
        ops = compiled.pipeline("spanned").operators
        spans = [op.span for op in ops]
        assert all(span is not None for span in spans)
        assert [span.line for span in spans] == [2, 3, 4]
        assert all(span.file == "spanned.spear" for span in spans)
        assert all(span.column >= 3 for span in spans)

    def test_span_renders_file_line_col(self):
        compiled = compile_source(self.SOURCE, filename="spanned.spear")
        span = compiled.pipeline("spanned").operators[0].span
        assert span.render() == f"spanned.spear:{span.line}:{span.column}"

    def test_compile_error_carries_position(self):
        source = 'pipeline p {\n  TELEPORT["x"]\n}'
        with pytest.raises(DslCompileError) as excinfo:
            compile_source(source, filename="bad.spear")
        err = excinfo.value
        assert err.line == 2
        assert err.column == 3
        assert err.file == "bad.spear"
        assert str(err) == "bad.spear:2:3: unknown operator 'TELEPORT'"
        assert err.message == "unknown operator 'TELEPORT'"

    def test_compile_error_text_is_built_from_its_position(self):
        for kwargs, where in (
            ({"line": 2, "column": 3, "file": "a.spear"}, "a.spear:2:3"),
            ({"line": 2, "column": 3}, "<source>:2:3"),
            ({"line": 2, "file": "a.spear"}, "a.spear:2"),
        ):
            err = DslCompileError("boom", **kwargs)
            span = SourceSpan(
                file=kwargs.get("file"), line=kwargs["line"], column=kwargs.get("column", 0)
            )
            assert span.render() == where
            assert str(err) == f"{where}: boom"
            assert err.message == "boom"
        # Without a line there is no position to show.
        assert str(DslCompileError("boom", file="a.spear")) == "boom"

    def test_filename_defaults_to_source_placeholder(self):
        compiled = compile_source(self.SOURCE)
        span = compiled.pipeline("spanned").operators[0].span
        assert span.render().startswith("<source>:")


_SHARED_SOURCE = """
view base() { \"\"\"Answer from the record.\"\"\" }
view ask(topic) extends base { \"\"\"About {topic}?\"\"\" }
pipeline p {
  VIEW["ask", key="qa", params={topic: "dosage"}]
  GEN["out", prompt="qa"]
  CHECK[M["confidence"] < 0.7] -> REF[APPEND, "Cite the note.", key="qa"]
  GEN["ghost", prompt="missing"]
}
"""


class TestLowerOnce:
    """A program is lowered once per filename; every compile still hands
    out its own registry and pipelines."""

    def test_compiles_of_one_ast_are_independent(self):
        from repro.dl import compile_program, parse

        program = parse(_SHARED_SOURCE)
        first, second = compile_program(program), compile_program(program)
        assert first.views is not second.views
        assert first.pipelines["p"] is not second.pipelines["p"]
        # The operators are lowered once and shared.
        assert first.pipelines["p"].operators == second.pipelines["p"].operators
        first.pipelines["p"].operators.append(GEN("extra", prompt="qa"))
        first.views.define("ask", "Changed {topic}", params=("topic",))
        assert len(second.pipelines["p"].operators) == 4
        assert second.views.expand("ask", {"topic": "x"}) == (
            "Answer from the record.\nAbout x?"
        )
        assert len(compile_program(program).pipelines["p"].operators) == 4

    def test_check_after_compile_matches_check_of_the_source(self):
        from repro.analysis import check_program
        from repro.dl import compile_program, parse

        program = parse(_SHARED_SOURCE)
        compile_program(program)
        after_compile = [d.render() for d in check_program(program)]
        assert after_compile == [d.render() for d in check_program(_SHARED_SOURCE)]
        assert any("SPEAR101" in line for line in after_compile)

    def test_each_filename_stamps_its_own_spans(self):
        from repro.dl import compile_program, parse

        program = parse(_SHARED_SOURCE)
        for filename in ("a.spear", "b.spear", None, "a.spear"):
            compiled = compile_program(program, filename=filename)
            spans = {op.span for op in compiled.pipelines["p"].operators}
            assert {span.file for span in spans} == {filename}
        assert set(program._lowerings) == {"a.spear", "b.spear", None}

    def test_passed_views_are_lowered_against_each_time(self):
        from repro.core.views import ViewRegistry
        from repro.dl import compile_program, parse

        program = parse('pipeline p { VIEW["outer", key="qa"] }')
        with pytest.raises(DslCompileError):
            compile_program(program, views=ViewRegistry())
        views = ViewRegistry()
        views.define("outer", "Outer text.")
        compiled = compile_program(program, views=views)
        assert compiled.views is views
        assert program._lowerings == {}

    def test_the_memo_is_no_part_of_the_program(self):
        import copy
        import pickle

        from repro.dl import compile_program, format_program, parse

        program = parse(_SHARED_SOURCE)
        fresh = parse(_SHARED_SOURCE)
        before = repr(program)
        compile_program(program)
        assert program._lowerings
        assert program == fresh
        assert repr(program) == before
        assert format_program(program) == format_program(fresh)
        restored = pickle.loads(pickle.dumps(program))
        assert restored == program
        assert "_lowerings" not in vars(restored)
        assert "_lowerings" not in vars(copy.deepcopy(program))
