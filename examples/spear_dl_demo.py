"""SPEAR-DL: the declarative developer layer (paper §6).

The same clinical pipeline as examples/enoxaparin_qa.py, expressed in the
declarative language instead of the Python API: views with parameters and
composition, a pipeline of operator terms, CHECK conditions in the paper's
own notation, and delegation — compiled to the identical operator objects.

Run: ``python examples/spear_dl_demo.py``
"""

from repro.agents import ValidationAgent
from repro.api import ExecutionState, SimulatedLLM
from repro.data import make_clinical_corpus
from repro.dl import compile_source, parse
from repro.retrieval import clinical_sources

SOURCE = '''
# Views: parameterized, composable prompt templates.
view clinical_base() {
  """### Task
You are reviewing the clinical chart of one patient.
Answer from the notes only; do not invent information."""
  tags: clinical
}

view med_summary(drug) extends clinical_base {
  """Summarize the patient's medication history and highlight any use of {drug}.
Notes:
{initial_notes}"""
  tags: clinical, summary
}

# The adaptive QA pipeline, in the paper's operator notation.
pipeline enoxaparin_qa {
  RET["initial_notes", query="p0001"]
  VIEW["med_summary", key="qa", params={drug: "Enoxaparin"}]
  GEN["answer_0", prompt="qa"]
  CHECK[M["confidence"] < 0.9] -> REF[APPEND, "Be specific about dosage and indicate whether Enoxaparin was administered in the last 48 hours.", key="qa", mode="manual"]
  CHECK["orders" not in C] -> RET["order_lookup", query="p0001", into="orders"]
  REF[APPEND, "Structured orders:\\n{orders}", key="qa"]
  GEN["answer_1", prompt="qa"]
  DIFF["qa@0", "qa", into="prompt_drift"]
  DELEGATE["validation_agent", payload="answer_1", into="validation"]
}
'''


def main() -> None:
    # Parse → AST → compile; the AST is inspectable on its own.
    program = parse(SOURCE)
    print(f"parsed {len(program.views)} views, {len(program.pipelines)} pipelines")
    for statement in program.pipeline("enoxaparin_qa").statements:
        arrow = f" -> {statement.then.name}" if statement.then else ""
        print(f"  {statement.op.name}{arrow}")
    print()

    compiled = compile_source(SOURCE)

    corpus = make_clinical_corpus(20, seed=11)
    llm = SimulatedLLM("qwen2.5-7b-instruct")
    llm.bind_clinical(corpus)
    state = ExecutionState(model=llm, views=compiled.views, clock=llm.clock)
    for name, source in clinical_sources(corpus).items():
        state.register_source(name, source)
    state.register_agent("validation_agent", ValidationAgent())

    state = compiled.pipeline("enoxaparin_qa").apply(state)

    print(f"answer_0: {state.C['answer_0']}")
    print(f"answer_1: {state.C['answer_1']}")
    print(f"evidence score: {state.C['validation']['evidence_score']:.2f}")
    drift = state.C["prompt_drift"]
    print(
        f"prompt drift since v0: +{drift['added_lines']} lines, "
        f"similarity {drift['similarity']:.2f}"
    )


if __name__ == "__main__":
    main()
