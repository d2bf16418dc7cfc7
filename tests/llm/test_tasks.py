"""Tests for the simulated model's task routing and behaviours."""

import pytest

from repro.llm.profiles import get_profile
from repro.llm.tasks import (
    PROMPT_BLOCK_END,
    PROMPT_BLOCK_START,
    TaskEngine,
    route_task,
)


@pytest.fixture
def engine(tweet_corpus, clinical_corpus):
    task_engine = TaskEngine(get_profile("qwen2.5-7b-instruct"))
    task_engine.bind_tweets(tweet_corpus)
    task_engine.bind_clinical(clinical_corpus)
    return task_engine


def _route(text):
    return route_task(text)


class TestRouting:
    def test_summarize(self):
        assert _route("Summarize the tweet below.") == "summarize"

    def test_classify(self):
        assert _route("Select the tweet only if its sentiment is negative.") == "classify"

    def test_fused(self):
        text = "Summarize the tweet, then select it if the sentiment is negative."
        assert _route(text) == "fused"

    def test_rewrite(self):
        assert _route("Improve the prompt below so it works better.") == "rewrite"

    def test_qa(self):
        assert _route("Highlight any use of Enoxaparin in the notes.") == "qa"

    def test_freeform_fallback(self):
        assert _route("tell me something nice") == "freeform"


class TestSummarize:
    def test_grounded_summary_uses_clean_text(self, engine, tweet_corpus):
        tweet = tweet_corpus[0]
        output = engine.run(
            f"Summarize and clean up the tweet in at most 30 words.\nTweet:\n{tweet.text}"
        )
        assert output.task == "summarize"
        assert tweet.clean_text in output.text or output.extras["degraded"]
        assert output.extras["item_uid"] == tweet.uid

    def test_ungrounded_input_rule_based_cleanup(self, engine):
        output = engine.run(
            "Summarize and clean up the tweet.\n@someone check http://t.co/xyz this #wow"
        )
        assert "@" not in output.text
        assert "http" not in output.text


class TestClassify:
    def test_predicate_from_instructions_not_item(self, engine, tweet_corpus):
        # A school-topic tweet must not turn a negativity filter into a
        # school filter.
        tweet = next(
            t for t in tweet_corpus if t.school_related and not t.is_negative
        )
        output = engine.run(
            "Select the tweet only if its sentiment is negative. Respond "
            f"with yes or no.\nTweet:\n{tweet.text}"
        )
        assert output.extras["criteria"] == {"negative": True, "school": False}

    def test_decisions_deterministic(self, engine, tweet_corpus):
        prompt = (
            "Select the tweet only if its sentiment is negative. Respond "
            f"with yes or no.\nTweet:\n{tweet_corpus[0].text}"
        )
        assert engine.run(prompt).extras["decision"] == engine.run(prompt).extras["decision"]

    def test_majority_of_decisions_correct(self, engine, tweet_corpus):
        correct = 0
        for tweet in tweet_corpus:
            output = engine.run(
                "Select the tweet only if its sentiment is negative. Respond "
                f"with yes or no.\nTweet:\n{tweet.text}"
            )
            correct += output.extras["decision"] == tweet.is_negative
        assert correct / len(tweet_corpus) > 0.7


class TestFused:
    def test_map_filter_order_always_summarizes(self, engine, tweet_corpus):
        tweet = tweet_corpus[0]
        output = engine.run(
            "Step 1 (map): Summarize and clean up the tweet.\n"
            "Step 2 (filter): Select it only if the sentiment is negative.\n"
            f"Respond with Label and Summary.\nTweet:\n{tweet.text}"
        )
        assert output.extras["order"] == "map_filter"
        assert output.extras["summary"] is not None

    def test_filter_map_skips_summary_for_dropped(self, engine, tweet_corpus):
        dropped = [
            engine.run(
                "Step 1 (filter): Select the tweet only if the sentiment is negative.\n"
                "Step 2 (map): Summarize and clean it. Only produce the summary "
                "when the label is yes; otherwise write N/A.\n"
                f"Tweet:\n{tweet.text}"
            )
            for tweet in tweet_corpus
        ]
        no_summary = [o for o in dropped if not o.extras["decision"]]
        assert no_summary
        assert all("N/A" in o.text for o in no_summary)


class TestQa:
    def test_answers_for_enoxaparin_patient(self, engine, clinical_corpus):
        patient = next(p for p in clinical_corpus if p.on_enoxaparin)
        notes = "\n".join(note.text for note in patient.notes)
        output = engine.run(
            "Summarize the patient's medication history and highlight any "
            f"use of Enoxaparin. Be specific about dosage.\nNotes:\n{notes}"
        )
        assert output.extras["fields"]["administered"] is True
        assert "dosage" in output.extras["fields"]

    def test_negative_patient_reports_no_use(self, engine, clinical_corpus):
        patient = next(p for p in clinical_corpus if not p.on_enoxaparin)
        notes = "\n".join(note.text for note in patient.notes)
        output = engine.run(
            f"Highlight any use of Enoxaparin.\nNotes:\n{notes}"
        )
        assert output.extras["fields"]["administered"] is False
        assert "no Enoxaparin" in output.text

    def test_missing_orders_lower_confidence(self, engine, clinical_corpus):
        patient = next(p for p in clinical_corpus if p.on_enoxaparin)
        notes = "\n".join(note.text for note in patient.notes)
        base_prompt = (
            "Highlight any use of Enoxaparin. Be specific about dosage and "
            f"timing.\nNotes:\n{notes}"
        )
        without_orders = engine.run(base_prompt)
        with_orders = engine.run(
            base_prompt + "\nORDER: enoxaparin 40 mg daily"
        )
        assert with_orders.confidence > without_orders.confidence

    def test_no_patient_in_prompt(self, engine):
        output = engine.run("Highlight any use of Enoxaparin.\nNotes:\nnothing")
        assert output.confidence <= 0.2


class TestRewrite:
    def test_agentic_rewrite_without_prompt_block(self, engine):
        output = engine.run(
            "Write a prompt for this task.\nObjective: select negative school tweets"
        )
        assert output.extras["mode"] == "agentic"
        assert "{tweet}" in output.text

    def test_assisted_rewrite_preserves_original_and_hint(self, engine):
        original = "### Task\nSelect negative tweets.\nRespond with yes or no."
        output = engine.run(
            "Improve the prompt below.\n"
            f"{PROMPT_BLOCK_START}\n{original}\n{PROMPT_BLOCK_END}\n"
            "Refinement hint: school-related content"
        )
        assert output.extras["mode"] == "assisted"
        assert "school-related content" in output.text
        assert "Select negative tweets." in output.text

    def test_auto_rewrite_appends_only(self, engine):
        original = "### Task\nSelect negative tweets."
        output = engine.run(
            "Improve the prompt below.\n"
            f"{PROMPT_BLOCK_START}\n{original}\n{PROMPT_BLOCK_END}\n"
            "Objective: school negativity"
        )
        assert output.extras["mode"] == "auto"
        assert output.text.startswith(original)
        assert "criteria" in output.text.lower()


class TestSections:
    """The sectioned multi-task behaviour that GEN fusion relies on."""

    def test_routed_when_marker_present(self):
        from repro.llm.tasks import SECTION_MARKER

        text = f"shared header\n{SECTION_MARKER} 1:\nSummarize the tweet."
        assert _route(text) == "sections"

    def test_each_section_answered_independently(self, engine, tweet_corpus):
        from repro.llm.tasks import SECTION_MARKER

        tweet = tweet_corpus[0]
        prompt = (
            f"You are given one tweet.\nTweet:\n{tweet.text}\n"
            f"{SECTION_MARKER} 1:\nSummarize and clean up the tweet.\n"
            f"{SECTION_MARKER} 2:\nSelect the tweet only if its sentiment is "
            "negative. Respond with yes or no."
        )
        output = engine.run(prompt)
        assert output.task == "sections"
        sections = output.extras["sections"]
        assert len(sections) == 2
        assert output.extras["section_tasks"] == ["summarize", "classify"]
        assert "Label:" in sections[1]

    def test_combined_text_reemits_markers(self, engine, tweet_corpus):
        from repro.llm.tasks import SECTION_MARKER

        tweet = tweet_corpus[0]
        prompt = (
            f"Tweet:\n{tweet.text}\n"
            f"{SECTION_MARKER} 1:\nSummarize the tweet.\n"
            f"{SECTION_MARKER} 2:\nClassify the sentiment. Respond with yes or no."
        )
        output = engine.run(prompt)
        assert output.text.count(SECTION_MARKER) == 2

    def test_confidence_is_worst_section(self, engine, tweet_corpus):
        from repro.llm.tasks import SECTION_MARKER

        tweet = tweet_corpus[0]
        prompt = (
            f"Tweet:\n{tweet.text}\n"
            f"{SECTION_MARKER} 1:\nSummarize the tweet.\n"
            f"{SECTION_MARKER} 2:\nClassify the sentiment. Respond with yes or no."
        )
        output = engine.run(prompt)
        assert output.confidence == min(output.extras["section_confidences"])


class TestQaEvidenceRequirement:
    """A value is only extractable when its evidence is in the context."""

    def test_field_reported_when_evidence_present(self, engine, clinical_corpus):
        patient = next(p for p in clinical_corpus if p.on_enoxaparin)
        notes = "\n".join(note.text for note in patient.notes)
        output = engine.run(
            f"Highlight any use of Enoxaparin; be specific about dosage.\nNotes:\n{notes}"
        )
        assert output.extras["fields"]["dosage"] in (patient.dosage, "(uncertain)")

    def test_field_unextractable_without_evidence(self, engine, clinical_corpus):
        patient = next(p for p in clinical_corpus if p.on_enoxaparin)
        # Supply only a note that names the patient but not the dosage.
        lab_only = f"LAB: D-dimer = 1.0 for patient {patient.patient_id}"
        output = engine.run(
            "Highlight any use of Enoxaparin; be specific about dosage.\n"
            f"Notes:\n{lab_only}"
        )
        assert output.extras["fields"].get("dosage") is None
        assert "not found in the provided notes" in output.text
