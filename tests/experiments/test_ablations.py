"""The paper's §5 ablations and the semantic planner, as plain assertions.

Each group reruns one optimisation against its naive alternative on the
simulated substrate (virtual clock, seeded corpora) and asserts who wins:

- GEN fusion vs sequential GENs, with and without prefix caching;
- priority-aware context packing vs naive head truncation;
- cost-based refinement planning vs applying every refiner;
- predictive refinement vs reactive retry;
- the prefix cache's share of the refinement speedup, and block size;
- cost-based view selection vs a poor starting view;
- the semantic layer's adaptive fusion plan vs fixed policies.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import CHECK, GEN, REF, Condition, ExecutionState, RefAction
from repro.core.derived import EXPAND, VIEW
from repro.core.views import ViewRegistry
from repro.data.clinical import make_clinical_corpus
from repro.data.tweets import make_tweet_corpus
from repro.eval.metrics import prf_from_sets
from repro.experiments.common import build_views, compose_item_prompt
from repro.llm.model import SimulatedLLM
from repro.llm.packing import Fragment, pack_fragments
from repro.llm.profiles import get_profile
from repro.llm.radix_cache import RadixPrefixCache
from repro.llm.tokenizer import Tokenizer
from repro.optimizer.gen_fusion import FusedGen
from repro.optimizer.planner import CandidateRefiner, RefinementPlanner
from repro.optimizer.predictive import HeuristicRiskModel, PredictiveRefine
from repro.optimizer.view_selection import refine_missing_terms, select_view
from repro.semantic import SemanticExecutor, SemanticQuery

# ---------------------------------------------------------------------------
# GEN fusion vs sequential GENs.  Without a prefix cache fusion wins (one
# overhead, the shared scaffold prefilled once); with the cache on, the
# duplicated scaffold is nearly free and fusion saves calls, not latency.

FUSION_PATIENTS = 20

_QUESTIONS = (
    ("dosage", "Highlight any use of Enoxaparin; be specific about dosage."),
    ("timing", "Highlight any use of Enoxaparin; state the timing."),
    ("indication", "Why was Enoxaparin administered? State the indication."),
)


def _fusion_run(fused: bool, cached: bool) -> tuple[float, int]:
    """All patients' three questions; returns (simulated seconds, calls)."""
    corpus = make_clinical_corpus(FUSION_PATIENTS, seed=11)
    llm = SimulatedLLM(enable_prefix_cache=cached)
    llm.bind_clinical(corpus)
    for patient in corpus:
        state = ExecutionState(model=llm, clock=llm.clock)
        state.context.put("notes", "\n".join(note.text for note in patient.notes))
        state.views.define(
            "chart_question",
            "### Task\nYou are reviewing the chart of one patient.\n"
            "Notes:\n{notes}\nQuestion: {question}",
            params=("question",),
        )
        for label, question in _QUESTIONS:
            state = VIEW(
                "chart_question",
                key=f"q_{label}",
                params={"question": question},
            ).apply(state)
        if fused:
            FusedGen([(label, f"q_{label}") for label, __ in _QUESTIONS]).apply(state)
        else:
            for label, __ in _QUESTIONS:
                state = GEN(label, prompt=f"q_{label}").apply(state)
    return llm.total_latency, llm.calls


def test_sequential_gens_make_one_call_per_question():
    __, calls = _fusion_run(fused=False, cached=False)
    assert calls == 3 * FUSION_PATIENTS


def test_fusion_wins_without_prefix_cache():
    fused_seconds, fused_calls = _fusion_run(fused=True, cached=False)
    sequential_seconds, __ = _fusion_run(fused=False, cached=False)
    assert fused_calls == FUSION_PATIENTS
    assert fused_seconds < sequential_seconds


def test_fusion_with_prefix_cache_saves_calls_not_latency():
    fused_seconds, fused_calls = _fusion_run(fused=True, cached=True)
    sequential_seconds, sequential_calls = _fusion_run(fused=False, cached=True)
    assert fused_calls == sequential_calls / 3
    # With prefix caching, fusion's latency edge shrinks to within 20%.
    assert fused_seconds < sequential_seconds * 1.2


# ---------------------------------------------------------------------------
# Priority-aware context packing vs naive head truncation under a window
# that fits about one note: packing keeps the structured orders and the
# discharge summary where the dosage evidence lives.

PACKING_PATIENTS = 25
PACKING_INSTRUCTION = (
    "Highlight any use of Enoxaparin. Be specific about dosage and timing.\nNotes:\n"
)
PACKING_BUDGET = 60


def _chart_fragments(patient) -> list[Fragment]:
    """Fragments in retrieval order, dosage evidence last: the worst case
    for head truncation."""
    by_kind = {note.kind: note for note in patient.notes}
    fragments = [
        Fragment(f"LAB: {lab.test} = {lab.value}", priority=0, name=lab.lab_id)
        for lab in patient.labs
    ]
    for kind, priority in (
        ("radiology_report", 1),
        ("nursing_note", 1),
        ("discharge_summary", 2),
    ):
        note = by_kind[kind]
        fragments.append(Fragment(note.text, priority=priority, name=note.note_id))
    fragments.extend(
        Fragment(
            f"ORDER: {order.medication} {order.dosage} {order.frequency}",
            priority=3,
            name=order.order_id,
        )
        for order in patient.orders
    )
    return fragments


def _dosage_accuracy(policy: str) -> float:
    """Fraction of treated patients whose answer reports the true dosage."""
    corpus = make_clinical_corpus(
        PACKING_PATIENTS, seed=11, missing_orders_fraction=0.0
    )
    tokenizer = Tokenizer()
    window = PACKING_BUDGET + tokenizer.count(PACKING_INSTRUCTION) + 64
    profile = replace(get_profile("qwen2.5-7b-instruct"), context_window=window)
    llm = SimulatedLLM(profile)
    llm.bind_clinical(corpus)
    treated = [patient for patient in corpus if patient.on_enoxaparin]
    correct = 0
    for patient in treated:
        fragments = _chart_fragments(patient)
        if policy == "packed":
            context = pack_fragments(fragments, PACKING_BUDGET).text
        else:
            joined = "\n".join(fragment.text for fragment in fragments)
            context = " ".join(tokenizer.pieces(joined)[:PACKING_BUDGET])
        result = llm.generate(PACKING_INSTRUCTION + context)
        if patient.dosage and patient.dosage in result.text:
            correct += 1
    return correct / len(treated) if treated else 0.0


def test_priority_packing_keeps_dosage():
    assert _dosage_accuracy("packed") > 0.6


def test_naive_truncation_loses_dosage():
    assert _dosage_accuracy("packed") > _dosage_accuracy("naive")


# ---------------------------------------------------------------------------
# Cost-based refinement planning vs a fixed order.  Given their ref_log
# history, the planner applies the refiner that helped and skips the one
# that stripped the view scaffold; the fixed order applies both.

PLANNER_ITEMS = 150

GOOD_ADDITION = (
    "Use these criteria:\n"
    "- the sentiment is clearly negative\n"
    "- the topic concerns school, exams, or homework"
)


def _strip_structure(state, text: str) -> str:
    """A harmful 'simplifying' refiner: drops the scaffold and guidance."""
    kept = [
        line
        for line in text.splitlines()
        if not line.startswith(("###", "-", "General guidance"))
    ]
    return "\n".join(kept)


def _filter_state() -> ExecutionState:
    state = ExecutionState()
    state.prompts.create(
        "filter_prompt",
        build_views().expand("filter_stage")
        + "\nFocus on school-related content.",
    )
    return state


def _seed_history(state: ExecutionState) -> None:
    """Past outcomes: criteria helped, structure-stripping hurt."""
    entry = state.prompts["filter_prompt"]
    for function, before, after in (
        ("f_add_criteria", 0.6, 0.8),
        ("f_add_criteria", 0.62, 0.78),
        ("f_strip_structure", 0.8, 0.55),
        ("f_strip_structure", 0.75, 0.5),
    ):
        record = entry.record(
            RefAction.APPEND,
            entry.text,
            function=function,
            signals={"confidence": before},
        )
        record.signals["outcome_confidence"] = after


def _candidates() -> list[CandidateRefiner]:
    return [
        CandidateRefiner(
            name="f_add_criteria",
            build=lambda: EXPAND("filter_prompt", GOOD_ADDITION),
            est_cost_tokens=20,
        ),
        CandidateRefiner(
            name="f_strip_structure",
            build=lambda: REF(
                RefAction.UPDATE,
                _strip_structure,
                key="filter_prompt",
                function_name="f_strip_structure",
            ),
            est_cost_tokens=1,
        ),
    ]


def _filter_f1(prompt_text: str) -> float:
    corpus = make_tweet_corpus(PLANNER_ITEMS, seed=7)
    llm = SimulatedLLM()
    llm.bind_tweets(corpus)
    selected = set()
    for tweet in corpus:
        result = llm.generate(compose_item_prompt(prompt_text, tweet.text))
        if result.extras.get("decision"):
            selected.add(tweet.uid)
    truth = {tweet.uid for tweet in corpus.school_negatives()}
    return prf_from_sets(selected, truth).f1


def _planned():
    state = _filter_state()
    _seed_history(state)
    plan = RefinementPlanner().plan(state, _candidates(), budget_tokens=50)
    state = plan.apply(state)
    return plan, _filter_f1(state.prompts.text("filter_prompt"))


def test_planner_applies_only_the_helpful_refiner():
    plan, f1 = _planned()
    assert [step.refiner.name for step in plan.steps] == ["f_add_criteria"]
    assert "f_strip_structure" in plan.skipped
    assert f1 > 0.6


def test_planned_refinement_beats_fixed_order():
    state = _filter_state()
    for candidate in _candidates():
        state = candidate.build().apply(state)
    f1_fixed = _filter_f1(state.prompts.text("filter_prompt"))
    __, f1_planned = _planned()
    assert f1_planned > f1_fixed


# ---------------------------------------------------------------------------
# Predictive refinement vs reactive retry.  Reactive repair generates,
# checks confidence, refines and generates again; predictive scores the
# prompt's risk first and strengthens it before the one generation.

PREDICTIVE_PATIENTS = 30

#: Deliberately weak base prompt: the interesting regime for repair.
WEAK_PROMPT = "Tell me about Enoxaparin for this patient.\nNotes:\n{notes}"
STRENGTHENING = (
    "Be specific about dosage and timing. Respond with the medication "
    "status first. Explain your reasoning step by step."
)


def _qa_pipeline(risk_model: HeuristicRiskModel | None):
    strengthen = REF(RefAction.APPEND, STRENGTHENING, key="qa")
    if risk_model is not None:
        return PredictiveRefine(
            "qa", risk_model, strengthen, threshold=0.15
        ) >> GEN("answer", prompt="qa")
    return GEN("answer", prompt="qa") >> CHECK(
        Condition.metadata_below("confidence", 0.7),
        strengthen >> GEN("answer", prompt="qa"),
    )


def _qa_run(predictive: bool) -> tuple[int, float, float]:
    """Returns (GEN calls, simulated seconds, mean confidence)."""
    corpus = make_clinical_corpus(PREDICTIVE_PATIENTS, seed=11)
    llm = SimulatedLLM()
    llm.bind_clinical(corpus)
    risk_model = (
        HeuristicRiskModel(get_profile("qwen2.5-7b-instruct")) if predictive else None
    )
    calls = 0
    confidences = []
    for patient in corpus:
        state = ExecutionState(model=llm, clock=llm.clock)
        state.context.put("notes", "\n".join(note.text for note in patient.notes))
        state.prompts.create("qa", WEAK_PROMPT)
        state = _qa_pipeline(risk_model).apply(state)
        calls += int(state.metadata["gen_calls"])
        confidences.append(state.metadata["confidence"])
    return calls, llm.total_latency, sum(confidences) / len(confidences)


def test_reactive_retry_regenerates_weak_answers():
    calls, __, __ = _qa_run(predictive=False)
    assert calls > PREDICTIVE_PATIENTS


def test_predictive_refinement_saves_calls_and_time():
    calls, seconds, confidence = _qa_run(predictive=True)
    reactive_calls, reactive_seconds, reactive_confidence = _qa_run(predictive=False)
    assert calls == PREDICTIVE_PATIENTS  # exactly one generation per item
    assert calls < reactive_calls
    assert seconds < reactive_seconds
    # Quality preserved: predictive confidence within noise of reactive.
    assert confidence > reactive_confidence - 0.05


# ---------------------------------------------------------------------------
# How much of the refinement speedup is the prefix cache: the refined
# Table-3 filter stage with the KV cache off, and over block sizes.

PREFIX_ITEMS = 150
BLOCK_SIZES = (4, 16, 64)


def _filter_stage(llm: SimulatedLLM) -> tuple[float, float]:
    """The refined filter stage; returns (simulated seconds, hit rate)."""
    corpus = make_tweet_corpus(PREFIX_ITEMS, seed=7)
    instructions = (
        build_views().expand("filter_stage")
        + "\nFocus on school-related content such as classes, exams, "
        "and homework."
    )
    llm.bind_tweets(corpus)
    for tweet in corpus:
        llm.generate(compose_item_prompt(instructions, tweet.text))
    return llm.total_latency, llm.overall_cache_hit_rate


def test_prefix_cache_serves_most_filter_prompts():
    __, hit_rate = _filter_stage(SimulatedLLM())
    assert hit_rate > 0.75


def test_prefix_cache_is_a_large_share_of_stage_latency():
    seconds_off, hit_rate = _filter_stage(SimulatedLLM(enable_prefix_cache=False))
    seconds_on, __ = _filter_stage(SimulatedLLM())
    assert hit_rate == 0.0
    assert seconds_off / seconds_on > 1.5


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_block_size_keeps_hit_rate(block_size):
    llm = SimulatedLLM(kv_cache=RadixPrefixCache(block_size=block_size))
    __, hit_rate = _filter_stage(llm)
    assert hit_rate > 0.5


def test_hit_rate_falls_as_blocks_coarsen():
    """Smaller blocks waste less of the shared prefix to quantization."""
    rates = [
        _filter_stage(SimulatedLLM(kv_cache=RadixPrefixCache(block_size=size)))[1]
        for size in BLOCK_SIZES
    ]
    assert rates[0] >= rates[1] >= rates[2]


# ---------------------------------------------------------------------------
# Cost-based view selection: for dosage/timing extraction the
# medication-focused view needs no refinement, while the radiology view
# needs appended criteria on every call.

SELECTION_PATIENTS = 30
REQUIRED_TERMS = ["enoxaparin", "dosage", "timing"]


def _clinical_views() -> ViewRegistry:
    views = ViewRegistry()
    views.define(
        "med_focused",
        "### Task\nSummarize the patient's medication history and highlight "
        "any use of Enoxaparin. Be specific about dosage and timing.\n"
        "Notes:\n{notes}",
    )
    views.define(
        "radiology",
        "### Task\nDescribe the imaging findings and impressions in the "
        "chart below.\nNotes:\n{notes}",
    )
    views.define(
        "generic",
        "### Task\nAnswer questions about the patient chart below.\n"
        "Notes:\n{notes}",
    )
    return views


def _run_from_view(view_name: str) -> float:
    """Simulated seconds for the corpus, starting from ``view_name``."""
    corpus = make_clinical_corpus(SELECTION_PATIENTS, seed=11)
    views = _clinical_views()
    __, scores = select_view(views, [view_name], REQUIRED_TERMS)
    refinement = refine_missing_terms(scores[0])
    llm = SimulatedLLM()
    llm.bind_clinical(corpus)
    for patient in corpus:
        notes = "\n".join(note.text for note in patient.notes)
        prompt = views.expand(view_name, {"notes": notes})
        if refinement is not None:
            prompt = f"{prompt}\n{refinement}"
        llm.generate(prompt)
    return llm.total_latency


def test_selector_picks_the_covering_view():
    winner, scores = select_view(
        _clinical_views(), ["med_focused", "radiology", "generic"], REQUIRED_TERMS
    )
    assert winner == "med_focused"
    assert scores[0].missing_terms == ()
    assert len(scores[-1].missing_terms) >= 2


def test_best_view_run_costs_time():
    assert _run_from_view("med_focused") > 0


def test_worst_view_run_costs_more():
    assert _run_from_view("radiology") > _run_from_view("med_focused")


# ---------------------------------------------------------------------------
# The semantic layer's adaptive plan: at low selectivity a Filter->Map
# query stays sequential (predicate pushdown), at high selectivity it
# fuses; pilot sampling must match the better fixed policy in each regime.

SEMANTIC_ITEMS = 120
SEM_MAP_INSTRUCTION = "Summarize and clean up the tweet in at most 30 words."
SEM_FILTER_INSTRUCTION = (
    "Select the tweet only if its sentiment is negative. Respond with yes or no."
)


def _semantic_run(selectivity: float, policy: str, n: int = SEMANTIC_ITEMS) -> float:
    """Filter->map under one policy; returns simulated seconds."""
    corpus = make_tweet_corpus(n, seed=7, negative_fraction=selectivity)
    llm = SimulatedLLM()
    llm.bind_tweets(corpus)
    query = (
        SemanticQuery([tweet.text for tweet in corpus])
        .sem_filter(SEM_FILTER_INSTRUCTION)
        .sem_map(SEM_MAP_INSTRUCTION)
    )
    if policy == "adaptive":
        executor = SemanticExecutor(llm)
    elif policy == "never_fuse":
        executor = SemanticExecutor(llm, enable_fusion=False)
    else:
        # Force fusion regardless of cost by making the pilot see 100%.
        executor = SemanticExecutor(llm, pilot_size=0)
        executor._estimate_selectivity = lambda op, items, result: 1.0  # type: ignore[method-assign]
    return executor.execute(query).sim_seconds


def test_adaptive_pushes_filter_down_at_low_selectivity():
    # 300 items, so the one-time pilot amortizes below pushdown's edge.
    adaptive = _semantic_run(0.1, "adaptive", n=300)
    assert adaptive < _semantic_run(0.1, "always_fuse", n=300)


def test_adaptive_fuses_at_high_selectivity():
    assert _semantic_run(0.95, "adaptive") < _semantic_run(0.95, "never_fuse")


def test_adaptive_never_loses_badly_to_the_best_fixed_policy():
    worst_ratio = max(
        _semantic_run(selectivity, "adaptive")
        / min(
            _semantic_run(selectivity, "never_fuse"),
            _semantic_run(selectivity, "always_fuse"),
        )
        for selectivity in (0.1, 0.5, 0.95)
    )
    assert worst_ratio < 1.15
