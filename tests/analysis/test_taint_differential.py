"""Differential test: SPEAR153's one-pass taint against the per-set walk.

``check_cache_defeating_refiner`` counts every refined key set's
dependent steps in one forward pass that carries a bitmask per prompt
key and context slot.  ``reference_taint.reference_dependent_steps`` is
the walk it replaced, one pass per key set.  For every key set a node
writes (refiner sets and the rest), in every pipeline of the analysis
fixtures, the DL fixtures, seeded bench programs and generated branchy
pipelines, the two must count the same steps.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bench import gen
from repro.analysis import AnalysisEnv, build_dataflow
from repro.analysis.costs import _CONTROL_KINDS, _dependent_step_counts
from repro.cli import _collect_py_targets, _compiled_graphs
from repro.core import (
    CHECK,
    GEN,
    MAP,
    REF,
    RET,
    RETRY,
    Condition,
    Pipeline,
    RefAction,
)
from repro.dl import compile_program, parse
from tests.analysis.reference_taint import reference_dependent_steps
from tests.analysis.test_property import SLOTS, placeholders, template_text

FIXTURES = Path(__file__).parent.parent / "fixtures"


def assert_counts_match_reference(graph) -> int:
    steps = [
        node
        for node in graph
        if not node.unreachable and node.kind not in _CONTROL_KINDS
    ]
    writes = (frozenset(node.prompt_writes) for node in graph if node.prompt_writes)
    key_sets = list(dict.fromkeys(writes))
    expected = [reference_dependent_steps(steps, keys) for keys in key_sets]
    assert _dependent_step_counts(steps, key_sets) == expected
    return len(key_sets)


def _dl_graphs(source: str):
    compiled = compile_program(parse(source))
    for name, pipeline in sorted(compiled.pipelines.items()):
        yield build_dataflow(pipeline, AnalysisEnv(views=compiled.views), name=name)


@pytest.mark.parametrize(
    "path", sorted((FIXTURES / "analysis").glob("*.py")), ids=lambda path: path.name
)
def test_analysis_fixtures(path):
    for name, artefact, env in _collect_py_targets(path):
        for _, graph, _ in _compiled_graphs(artefact, env, name):
            assert_counts_match_reference(graph)


@pytest.mark.parametrize(
    "path", sorted((FIXTURES / "dl").glob("*.spear")), ids=lambda path: path.name
)
def test_dl_fixtures(path):
    for graph in _dl_graphs(path.read_text()):
        assert_counts_match_reference(graph)


@pytest.mark.parametrize("seed", [7, 11, 13])
def test_seeded_bench_programs(seed):
    key_sets = 0
    for source, _ in gen.dl_programs(20, seed):
        for graph in _dl_graphs(source):
            key_sets += assert_counts_match_reference(graph)
    assert key_sets > 100  # the programs refine many distinct key sets


KEYS = ("qa", "qb", "qc")

ref_step = st.tuples(
    st.sampled_from(("create", "append", "map")), st.sampled_from(KEYS), placeholders
)
gen_step = st.tuples(st.just("gen"), st.sampled_from(KEYS), st.sampled_from(SLOTS))
ret_step = st.tuples(st.just("ret"), st.sampled_from(KEYS), st.sampled_from(SLOTS))
leaf_step = st.one_of(ref_step, gen_step, ret_step)
branch_step = st.tuples(
    st.sampled_from(("check", "retry")),
    st.lists(leaf_step, min_size=1, max_size=3),
    st.sampled_from(SLOTS),
)
steps = st.lists(st.one_of(leaf_step, branch_step), min_size=1, max_size=12)


def _operator(step):
    kind, key, arg = step
    if kind == "create":
        return REF(RefAction.CREATE, template_text(arg), key=key)
    if kind == "append":
        return REF(RefAction.APPEND, template_text(arg), key=key)
    if kind == "map":
        return MAP([key], lambda state, text: text, action=RefAction.APPEND)
    if kind == "gen":
        return GEN(arg, prompt=key)
    return RET("seed", prompt=key, into=arg)


def build_branchy(tail) -> Pipeline:
    ops = [REF(RefAction.CREATE, template_text([]), key=key) for key in KEYS]
    for step in tail:
        if step[0] == "check":
            body = Pipeline([_operator(inner) for inner in step[1]])
            ops.append(CHECK(Condition.context_contains(step[2]), then=body))
        elif step[0] == "retry":
            body = Pipeline([_operator(inner) for inner in step[1]])
            refine = REF(RefAction.APPEND, template_text([step[2]]), key="qb")
            condition = Condition.metadata_below("confidence", 0.8)
            ops.append(RETRY(body, condition, refine=refine, max_retries=2))
        else:
            ops.append(_operator(step))
    return Pipeline(ops)


@settings(max_examples=150, deadline=None)
@given(tail=steps)
def test_generated_branchy_pipelines(tail):
    assert_counts_match_reference(build_dataflow(build_branchy(tail), AnalysisEnv()))
