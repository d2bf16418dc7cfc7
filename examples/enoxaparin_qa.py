"""The paper's §2 use case: an adaptive Enoxaparin QA pipeline.

Demonstrates every core operator on a synthetic clinical corpus:

- view dispatch across note kinds (§4.2);
- RET with structured and prompt-based retrieval;
- CHECK-driven runtime refinement on low confidence (Table 1, row 2);
- Missing Order Retrieval (Table 1, row 3);
- MERGE of a fallback and primary prompt (Table 1, row 4);
- DELEGATE to the evidence-validation agent (Table 1, row 5);
- prompt history introspection and replay verification (§4.3, §6).

Run: ``python examples/enoxaparin_qa.py``
"""

from repro.agents import ValidationAgent
from repro.api import (
    CHECK,
    Condition,
    DELEGATE,
    ExecutionState,
    GEN,
    MERGE,
    REF,
    RET,
    RefAction,
    SimulatedLLM,
    VIEW,
)
from repro.core.history import trace
from repro.data import make_clinical_corpus
from repro.retrieval import clinical_sources
from repro.runtime.replay import verify_replay


def build_state(corpus) -> ExecutionState:
    """Wire a state with the model, retrieval sources, agents, and views."""
    llm = SimulatedLLM("qwen2.5-7b-instruct")
    llm.bind_clinical(corpus)
    state = ExecutionState(model=llm, clock=llm.clock)
    for name, source in clinical_sources(corpus).items():
        state.register_source(name, source)
    state.register_agent("validation_agent", ValidationAgent())

    # Views per note kind (§4.2): each emphasizes different chart aspects,
    # composed over a shared clinical scaffold.
    state.views.define(
        "clinical_base",
        "### Task\nYou are reviewing the clinical chart of one patient.\n"
        "Answer from the notes only; do not invent information.",
    )
    state.views.define(
        "discharge_summary",
        "Summarize the patient's medication history and highlight any use "
        "of {drug}. Emphasize medications, hospital course, and follow-up.\n"
        "Notes:\n{initial_notes}",
        params=("drug",),
        base="clinical_base",
        tags={"clinical", "discharge"},
    )
    state.views.define(
        "med_justification",
        "Why was {drug} administered? Explain the provider's reasoning, "
        "considering indication and risk.\nNotes:\n{initial_notes}",
        params=("drug",),
        base="clinical_base",
        tags={"clinical", "justification"},
    )
    return state


def main() -> None:
    corpus = make_clinical_corpus(20, seed=11)
    patient = next(p for p in corpus if p.on_enoxaparin and not p.has_orders)
    print(f"patient {patient.patient_id} (orders missing from the chart)\n")

    state = build_state(corpus)

    pipeline = (
        # Retrieve the chart and instantiate the QA prompt from a view.
        RET("initial_notes", query=patient.patient_id)
        >> VIEW("discharge_summary", key="qa_prompt", params={"drug": "Enoxaparin"})
        >> GEN("answer_0", prompt="qa_prompt")
        # Confidence-based retry: refine, then regenerate.
        >> CHECK(
            Condition.metadata_below("confidence", 0.9),
            REF(
                RefAction.APPEND,
                "Be specific about dosage and indicate whether Enoxaparin "
                "was administered in the last 48 hours.",
                key="qa_prompt",
                mode="MANUAL",
            ),
        )
        # Missing Order Retrieval: fetch structured orders if absent.
        >> CHECK(
            Condition.missing_context("orders"),
            RET("order_lookup", query=patient.patient_id, into="orders"),
        )
        >> REF(
            RefAction.APPEND,
            "Structured orders:\n{orders}",
            key="qa_prompt",
            function_name="f_inject_orders",
        )
        >> GEN("answer_1", prompt="qa_prompt")
        # Merge a fallback variant before the final generation.
        >> REF(
            RefAction.CREATE,
            "Include lab values like D-dimer and provider rationale.",
            key="qa_fallback",
        )
        >> MERGE("qa_fallback", "qa_prompt", into="qa_final")
        >> GEN("final_answer", prompt="qa_final")
        # Delegate evidence validation to an external agent.
        >> DELEGATE("validation_agent", "final_answer", into="validation")
    )
    state = pipeline.apply(state)

    print(f"answer_0:     {state.C['answer_0']}")
    print(f"answer_1:     {state.C['answer_1']}")
    print(f"final answer: {state.C['final_answer']}\n")
    report = state.C["validation"]
    print(f"evidence score: {report['evidence_score']:.2f}")
    for claim in report["claims"]:
        marker = "+" if claim["supported"] else "-"
        print(f"  {marker} {claim['kind']}: {claim['claim']}")

    print(f"\nground truth: dosage={patient.dosage}, timing={patient.timing}, "
          f"indication={patient.indication}")
    print(f"simulated latency: {state.clock.now:.2f}s, "
          f"gen calls: {state.M['gen_calls']}\n")

    print("qa_prompt evolution:")
    for line in trace(state.prompts["qa_prompt"]):
        print(f"  {line}")

    # Every text change is logged, so the whole store replays exactly.
    assert verify_replay(state.prompts)
    print("\nreplay verification: OK (history reconstructs every version)")


if __name__ == "__main__":
    main()
