"""Property test: static read sets over-approximate runtime footprints.

The soundness contract of the dataflow extractor is one-directional: for
any pipeline it can fully see (literal refinements, no opaque operators),
every context slot an operator *actually* reads during execution must
already appear in the statically extracted read set.  We generate random
but valid-by-construction pipelines, execute them against a simulated
model, and compare the runtime :class:`Footprint` claims against the
graph.  The prefix cache is disabled because ``GEN.footprint`` opts out
of cacheability (returns None) while kv-cache state can leak into its
signals.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import AnalysisEnv, build_dataflow
from repro.core import CHECK, GEN, REF, RET, Condition, Pipeline, RefAction
from repro.core.state import ExecutionState
from repro.llm.model import SimulatedLLM

SLOTS = ("alpha", "beta", "gamma")
GEN_LABELS = ("draft", "answer")
PLACEHOLDER_POOL = SLOTS + GEN_LABELS


def fresh_state() -> ExecutionState:
    state = ExecutionState(
        model=SimulatedLLM("qwen2.5-7b-instruct", enable_prefix_cache=False)
    )
    state.register_source(
        "seed", lambda state, query: f"seed:{query}", pure=True
    )
    return state


def template_text(placeholders: list[str]) -> str:
    parts = ["Consider the evidence."]
    parts.extend(f"{name}: {{{name}}}" for name in placeholders)
    return "\n".join(parts)


placeholders = st.lists(
    st.sampled_from(PLACEHOLDER_POOL), max_size=2, unique=True
)

ret_step = st.tuples(st.just("ret"), st.sampled_from(SLOTS))
append_step = st.tuples(st.just("append"), placeholders)
gen_step = st.tuples(st.just("gen"), st.sampled_from(GEN_LABELS))
check_step = st.tuples(st.just("check"), placeholders)

steps = st.lists(
    st.one_of(ret_step, append_step, gen_step, check_step),
    min_size=1,
    max_size=6,
)


def build_pipeline(seed_placeholders: list[str], tail) -> Pipeline:
    ops = [REF(RefAction.CREATE, template_text(seed_placeholders), key="qa")]
    for kind, arg in tail:
        if kind == "ret":
            ops.append(RET("seed", query=f"lookup-{arg}", into=arg))
        elif kind == "append":
            ops.append(REF(RefAction.APPEND, template_text(arg), key="qa"))
        elif kind == "gen":
            ops.append(GEN(arg, prompt="qa"))
        elif kind == "check":
            ops.append(
                CHECK(
                    Condition.metadata_below("confidence", 0.9),
                    then=REF(RefAction.APPEND, template_text(arg), key="qa"),
                )
            )
    return Pipeline(ops)


@settings(max_examples=40, deadline=None)
@given(seed_placeholders=placeholders, tail=steps)
# Five CHECK arms fan the key past the text limit; the APPEND after them
# must still claim its own placeholder.
@example(
    seed_placeholders=[],
    tail=[
        ("check", []),
        ("check", []),
        ("check", []),
        ("check", []),
        ("check", ["alpha"]),
        ("append", ["beta"]),
        ("gen", "draft"),
    ],
)
def test_static_reads_superset_runtime_reads(seed_placeholders, tail):
    pipeline = build_pipeline(seed_placeholders, tail)
    graph = build_dataflow(pipeline, AnalysisEnv())
    static_reads = graph.context_read_set()

    state = fresh_state()
    runtime_reads: set[str] = set()
    for operator in pipeline.operators:
        footprint = operator.footprint(state)
        if footprint is not None:
            runtime_reads.update(key for key, _ in footprint.context_reads)
        state = operator.apply(state)

    assert runtime_reads <= static_reads, (
        f"runtime read {sorted(runtime_reads - static_reads)} "
        f"not claimed statically (static set: {sorted(static_reads)})"
    )


@settings(max_examples=20, deadline=None)
@given(seed_placeholders=placeholders, tail=steps)
def test_static_writes_cover_runtime_write_claims(seed_placeholders, tail):
    pipeline = build_pipeline(seed_placeholders, tail)
    graph = build_dataflow(pipeline, AnalysisEnv())
    static_writes = graph.context_write_set()

    state = fresh_state()
    runtime_writes: set[str] = set()
    for operator in pipeline.operators:
        footprint = operator.footprint(state)
        if footprint is not None:
            runtime_writes.update(footprint.context_writes)
        state = operator.apply(state)

    assert runtime_writes <= static_writes
