"""Path-sensitive abstract interpretation: dead arms, forked states, joins.

The walker (:mod:`repro.analysis.absint`) forks the abstract state per
CHECK/SWITCH arm, refines it with the arm's condition, skips
statically-dead arms, and joins the per-arm post-states.  Compared with
threading one state through every arm, this both *kills false
positives* (findings inside arms that cannot run) and *gains precision*
(one arm's writes never leak into a sibling arm's state).  Forks share
the immutable per-key prompt states, so the copy-on-write tests at the
end pin that a fork never sees a later write and that keys no arm
writes are never rebuilt.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    AnalysisEnv,
    PathSensitiveWalker,
    build_dataflow,
    check_pipeline,
    check_program,
)
from repro.analysis import absint, dataflow
from repro.analysis.dataflow import _PromptState
from repro.core import (
    CHECK,
    DELEGATE,
    GEN,
    REF,
    RET,
    SWITCH,
    Condition,
    Pipeline,
    RefAction,
)

FIXTURES = Path(__file__).parent.parent / "fixtures" / "dl"

#: codes prone to branch-related false positives: deciding a branch
#: statically may only ever *remove* these.
FP_PRONE = {"SPEAR112", "SPEAR121"}


def keyed(result) -> set[tuple[str, str | None]]:
    return {(d.code, d.operator) for d in result}


def dead_arm_pipeline() -> Pipeline:
    # M["never_signal"] is never written, so `> 0.5` is statically
    # false: the arm cannot run.
    return Pipeline(
        [
            REF(RefAction.CREATE, "base", key="qa"),
            GEN("a", prompt="qa"),
            CHECK(
                Condition.metadata_above("never_signal", 0.5),
                then=REF(RefAction.CREATE, "dump", key="debug_scratch"),
            ),
        ]
    )


class TestDeadArms:
    def test_dead_arm_nodes_are_marked_unreachable(self):
        graph = build_dataflow(dead_arm_pipeline(), AnalysisEnv())
        unreachable = [node.label for node in graph if node.unreachable]
        assert unreachable == ["REF[CREATE, f_literal]"]

    def test_dead_arm_findings_are_killed(self):
        result = check_pipeline(dead_arm_pipeline())
        # The dead branch itself is still reported ...
        assert result.codes() == ["SPEAR148"]
        # ... but the unused-prompt FP on the arm's body is gone.
        assert not result.with_code("SPEAR121")

    def test_dead_arm_node_keeps_its_write_set(self):
        # The node is materialized with its writes (SPEAR148 anchors on
        # the arm), but the write never reaches the live state: no
        # reachable writer, so no unused-prompt finding.
        graph = build_dataflow(dead_arm_pipeline(), AnalysisEnv())
        (writer,) = graph.prompt_writers["debug_scratch"]
        assert writer.unreachable
        assert writer.prompt_writes == ("debug_scratch",)
        assert not check_pipeline(dead_arm_pipeline()).with_code("SPEAR121")

    def test_switch_arms_after_first_static_match_are_dead(self):
        # The first case is statically true (missing metadata reads as
        # 0), so the later arms can never be selected.
        pipeline = Pipeline(
            [
                REF(RefAction.CREATE, "base", key="qa"),
                SWITCH(
                    [
                        (
                            Condition.metadata_below("confidence", 0.5),
                            GEN("low", prompt="qa"),
                        ),
                        (
                            Condition.metadata_above("confidence", 0.9),
                            REF(
                                RefAction.CREATE,
                                "orphan",
                                key="never_read",
                            ),
                        ),
                    ]
                ),
            ]
        )
        result = check_pipeline(pipeline)
        assert not result.with_code("SPEAR121")
        graph = build_dataflow(pipeline, AnalysisEnv())
        assert any(node.unreachable for node in graph)


class TestCrossArmIsolation:
    def test_sibling_arm_does_not_see_other_arms_writes(self):
        # Arm 1 creates "detail"; arm 2 reads it.  The arms are
        # mutually exclusive, so arm 2's read is an undefined-prompt
        # error — which only a forked per-arm state can see.
        pipeline = Pipeline(
            [
                REF(RefAction.CREATE, "base", key="qa"),
                GEN("a", prompt="qa"),
                SWITCH(
                    [
                        (
                            Condition.metadata_below("confidence", 0.5),
                            REF(RefAction.CREATE, "x", key="detail"),
                        ),
                        (
                            Condition.metadata_above("confidence", 0.9),
                            GEN("b", prompt="detail"),
                        ),
                    ]
                ),
            ]
        )
        (finding,) = check_pipeline(pipeline).with_code("SPEAR101")
        assert finding.operator == 'GEN["b"]'
        graph = build_dataflow(pipeline, AnalysisEnv())
        assert graph.node('GEN["b"]').missing_prompts == ("detail",)

    def test_write_on_all_paths_is_definite_after_join(self):
        result = check_pipeline(
            Pipeline(
                [
                    RET("probe", into="gate"),
                    CHECK(
                        Condition.context_contains("gate"),
                        then=RET("notes", into="slot"),
                        orelse=RET("other", into="slot"),
                    ),
                    REF(RefAction.CREATE, "Data: {slot}", key="qa"),
                    GEN("ans", prompt="qa"),
                ]
            )
        )
        assert not result.with_code("SPEAR111")
        assert not result.with_code("SPEAR102")


class TestBranchyFixture:
    """The demonstrated FP kill on the shipped DL fixtures, pinned."""

    def setup_method(self):
        self.source = (FIXTURES / "branchy_pipeline.spear").read_text()

    def test_path_sensitive_kills_dead_arm_unused_prompt(self):
        sensitive = check_program(self.source)
        # The dead arm's "debug_scratch" key is never read, but the arm
        # cannot run: no SPEAR121, only the dead-branch report itself.
        assert not sensitive.with_code("SPEAR121")
        assert sensitive.with_code("SPEAR148")
        assert sensitive.codes() == ["SPEAR148", "SPEAR153"]

    def test_fp_prone_findings_are_a_subset(self):
        # A walk threading one state through both arms also reported
        # ("SPEAR121", 'REF[CREATE, f_literal]') here; none survive.
        sensitive = keyed(check_program(self.source))
        assert {k for k in sensitive if k[0] in FP_PRONE} == set()

    def test_buggy_fixture_fp_prone_subset(self):
        source = (FIXTURES / "buggy_pipeline.spear").read_text()
        sensitive = keyed(check_program(source))
        # Both are true positives outside any branch.
        assert {k for k in sensitive if k[0] in FP_PRONE} == {
            ("SPEAR112", 'RET["notes"]'),
            ("SPEAR121", "REF[CREATE, f_literal]"),
        }


# ---------------------------------------------------------------------------
# Property: on random branchy pipelines, deciding a branch statically only
# ever *removes* FP-prone findings.  The baseline swaps every condition for
# one the walker cannot decide, so every arm stays live.

SLOTS = ("alpha", "beta")


def _arm(kind: str, arg) -> object:
    if kind == "ret":
        return RET("notes", into=arg)
    if kind == "append":
        return REF(RefAction.APPEND, f"More about {arg}.", key="qa")
    return REF(RefAction.CREATE, f"Aside on {arg}.", key=f"aside_{arg}")


arm_step = st.tuples(
    st.sampled_from(("ret", "append", "create")), st.sampled_from(SLOTS)
)
conditions = st.sampled_from(
    (
        ("below", "confidence", 0.7),
        ("above", "confidence", 0.9),
        ("above", "never_signal", 0.5),
        ("contains", "alpha", None),
    )
)

#: ``confidence`` is definitely written by the leading GEN, so the
#: walker can never decide this condition.
UNDECIDED = ("below", "confidence", 0.7)


def _condition(spec) -> Condition:
    kind, name, threshold = spec
    if kind == "below":
        return Condition.metadata_below(name, threshold)
    if kind == "above":
        return Condition.metadata_above(name, threshold)
    return Condition.context_contains(name)


branches = st.lists(
    st.tuples(conditions, arm_step, st.one_of(st.none(), arm_step)),
    min_size=1,
    max_size=4,
)


def _branchy(branches, tail_gen: bool, *, decide: bool) -> Pipeline:
    ops = [
        REF(RefAction.CREATE, "Answer briefly. ", key="qa"),
        GEN("draft", prompt="qa"),
    ]
    for condition, then_spec, else_spec in branches:
        ops.append(
            CHECK(
                _condition(condition if decide else UNDECIDED),
                then=_arm(*then_spec),
                orelse=_arm(*else_spec) if else_spec else None,
            )
        )
    if tail_gen:
        ops.append(GEN("answer", prompt="qa"))
    return Pipeline(ops)


@settings(max_examples=40, deadline=None)
@given(branches=branches, tail_gen=st.booleans())
def test_path_sensitivity_only_removes_fp_prone_findings(branches, tail_gen):
    baseline = _branchy(branches, tail_gen, decide=False)
    assert not any(
        node.unreachable for node in build_dataflow(baseline, AnalysisEnv())
    )
    decided = keyed(check_pipeline(_branchy(branches, tail_gen, decide=True)))
    undecided = keyed(check_pipeline(baseline))
    assert {k for k in decided if k[0] in FP_PRONE} <= undecided


# ---------------------------------------------------------------------------
# Copy-on-write abstract state.


def _walk(walker: PathSensitiveWalker, operator) -> None:
    walker.walk(operator, conditional=False, repeated=False, path=())


class TestCopyOnWrite:
    def test_prompt_state_is_immutable(self):
        state = _PromptState(frozenset({"text"}))
        with pytest.raises(AttributeError):
            state.texts = None
        with pytest.raises(AttributeError):
            state.definite = False

    def test_then_arm_writes_join_to_maybe_and_leave_the_snapshot_alone(self):
        walker = PathSensitiveWalker(AnalysisEnv())
        _walk(walker, REF(RefAction.CREATE, "base", key="qa"))
        _walk(walker, GEN("draft", prompt="qa"))
        before = walker._snapshot()
        saved = {key: tuple(info) for key, info in before.prompts.items()}
        saved_context = dict(before.context)
        saved_metadata = dict(before.metadata)

        then = Pipeline(
            [
                RET("notes", into="slot"),  # a context slot
                DELEGATE("reviewer", "slot", into="review"),  # a signal
                REF(RefAction.APPEND, "more", key="qa"),  # an existing key
                REF(RefAction.CREATE, "aside", key="aside"),  # a new key
            ]
        )
        # `confidence` is definite after GEN: the condition is undecided.
        _walk(walker, CHECK(Condition.metadata_below("confidence", 0.7), then=then))

        assert walker.context["slot"] == "maybe"
        assert walker.metadata["delegations"] == "maybe"
        assert walker.prompts["aside"].definite is False
        assert walker.prompts["qa"].texts == frozenset({"base", "base\nmore"})
        # The pre-branch snapshot still holds exactly what it held.
        assert {k: tuple(v) for k, v in before.prompts.items()} == saved
        assert before.prompts["qa"].texts == frozenset({"base"})
        assert before.context == saved_context
        assert before.metadata == saved_metadata

    def test_untouched_keys_are_shared_across_the_join(self):
        walker = PathSensitiveWalker(AnalysisEnv(prompts={"a": "A", "b": "B"}))
        _walk(walker, GEN("draft", prompt="a"))
        shared = walker.prompts["b"]
        _walk(
            walker,
            CHECK(
                Condition.metadata_below("confidence", 0.7),
                then=REF(RefAction.APPEND, "more", key="a"),
            ),
        )
        assert walker.prompts["b"] is shared

    def test_state_constructions_grow_with_writes_not_checks_times_keys(
        self, monkeypatch
    ):
        keys, checks = 50, 200
        constructed = 0
        real = dataflow._PromptState

        def counting(*args, **kwargs):
            nonlocal constructed
            constructed += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(dataflow, "_PromptState", counting)
        monkeypatch.setattr(absint, "_PromptState", counting)
        prompts = {f"k{index}": f"text {index}" for index in range(keys)}
        ops = [GEN("draft", prompt="k0")]
        for index in range(checks):
            ops.append(
                CHECK(
                    Condition.metadata_below("confidence", 0.7),
                    then=REF(RefAction.APPEND, "more", key=f"k{index % keys}"),
                )
            )
        build_dataflow(Pipeline(ops), AnalysisEnv(prompts=prompts))
        # One state per initial key, then one per write and one per join
        # of the written key; the other 49 keys are shared, never rebuilt.
        assert constructed <= keys + 2 * checks
