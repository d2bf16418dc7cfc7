"""Batch clinical audit: BatchRunner + persistence + tracing together.

A QA pipeline (with confidence-triggered refinement) is mapped over every
patient in the corpus via :class:`~repro.runtime.batch.BatchRunner`; the
run reports field completeness against ground truth, the prompt store —
with its accumulated refinement history — is persisted to JSON and
reloaded, and the last item's execution timeline is rendered.

Run: ``python examples/clinical_audit.py``
"""

import tempfile
from pathlib import Path

from repro.api import (
    CHECK,
    BatchRunner,
    Condition,
    ExecutionState,
    GEN,
    Pipeline,
    REF,
    RefAction,
    SimulatedLLM,
    build_run_report,
)
from repro.data import make_clinical_corpus
from repro.eval.metrics import field_completeness
from repro.runtime.persistence import load_store, save_store
from repro.runtime.tracing import render_timeline

QA_PROMPT = (
    "### Task\n"
    "Summarize the patient's medication history and highlight any use of "
    "Enoxaparin.\nNotes:\n{notes}"
)


def main() -> None:
    corpus = make_clinical_corpus(25, seed=11)
    llm = SimulatedLLM("qwen2.5-7b-instruct")
    llm.bind_clinical(corpus)

    base_state = ExecutionState(model=llm, clock=llm.clock)
    base_state.prompts.create("qa", QA_PROMPT)

    # Refine at most once: later items inherit the improved prompt via the
    # shared store, so the condition also checks the refinement is absent.
    needs_refinement = Condition.metadata_below("confidence", 0.75) & Condition.of(
        lambda state: "Be specific about dosage" not in state.prompts.text("qa"),
        "refinement not yet applied",
    )
    pipeline = Pipeline(
        [
            GEN("answer", prompt="qa"),
            CHECK(
                needs_refinement,
                REF(
                    RefAction.APPEND,
                    "Be specific about dosage, timing, and indication.",
                    key="qa",
                    mode="AUTO",
                )
                >> GEN("answer", prompt="qa"),
            ),
        ],
        name="audit_item",
    )

    runner = BatchRunner(
        base_state,
        bind=lambda state, patient: state.context.put(
            "notes",
            "\n".join(note.text for note in patient.notes),
            producer="bind",
        ),
    )
    batch = runner.run(pipeline, items=corpus.patients)

    # Quality: how complete are the extracted fields for treated patients?
    treated = [
        result
        for result in batch.items
        if result.item.on_enoxaparin
    ]
    answers = [
        result.context["answer__fields"]
        if "answer__fields" in result.context
        else _fields_from(result)
        for result in treated
    ]
    completeness = field_completeness(answers, ["dosage", "timing", "indication"])
    retried = sum(
        1 for result in batch.items if result.metadata.get("gen_calls", 0) > 1
    )
    print(f"audited {len(batch.items)} patients "
          f"({len(treated)} on Enoxaparin) in {batch.elapsed:.1f}s simulated")
    print(f"mean field completeness (treated): {completeness:.1%}")
    print(f"items that needed a refinement retry: {retried}")
    print(f"prompt 'qa' accumulated {base_state.prompts['qa'].version} refinements\n")

    # Persist the evolved prompt library and prove the round-trip.
    with tempfile.TemporaryDirectory() as tmp:
        path = save_store(base_state.prompts, Path(tmp) / "prompt_library.json")
        reloaded = load_store(path)
        assert reloaded.text("qa") == base_state.prompts.text("qa")
        print(f"prompt store persisted to JSON and reloaded "
              f"({path.stat().st_size} bytes), texts identical\n")

    # Introspection: the run report's rollups and the tail of the timeline.
    report = build_run_report(base_state.events, top_k=3)
    for kind, stats in report.operators.items():
        wall = stats["wall_seconds"]
        print(f"  {kind}: {stats['invocations']} applications, "
              f"{wall['total']:.1f}s wall (p50 {wall['p50']:.2f}s)")
    for span in report.slowest_spans:
        print(f"  slowest: {span['operator']} at {span['start']:.1f}s, "
              f"{span['wall']:.1f}s wall")
    print("\nlast item's timeline:")
    tail = render_timeline(base_state.events).splitlines()[-6:]
    print("\n".join(tail))


def _fields_from(result) -> dict:
    """Extract the structured fields of a QA generation result."""
    generation = result.context.get("answer")
    fields = {}
    if generation:
        for name in ("dosage", "timing", "indication"):
            if f"{name}:" in generation:
                fields[name] = True
    return fields


if __name__ == "__main__":
    main()
