"""Tests for PromptEntry: versioning, rendering, ref_log, rollback, clone."""

import pytest

from repro.core.entry import (
    PromptEntry,
    RefAction,
    RefinementMode,
    render_template,
    template_placeholders,
)
from repro.core.footprint import stable_digest
from repro.errors import UnknownVersionError


class TestTemplates:
    def test_placeholders_ordered_and_deduplicated(self):
        text = "a {x} b {y} c {x}"
        assert template_placeholders(text) == ["x", "y"]

    def test_placeholders_dotted_names(self):
        assert template_placeholders("{note.text}") == ["note.text"]

    def test_render_substitutes_known_values(self):
        assert render_template("hi {name}", {"name": "ana"}) == "hi ana"

    def test_render_leaves_unknown_placeholders(self):
        assert render_template("hi {name}", {}) == "hi {name}"

    def test_render_dotted_lookup(self):
        values = {"note": {"text": "hello"}}
        assert render_template("{note.text}", values) == "hello"

    def test_render_dotted_missing_leaf_left_intact(self):
        assert render_template("{note.text}", {"note": {}}) == "{note.text}"

    def test_render_non_string_values_coerced(self):
        assert render_template("n={n}", {"n": 3}) == "n=3"


class TestPromptEntry:
    def test_creation_starts_at_version_zero_with_create_record(self):
        entry = PromptEntry("base text")
        assert entry.version == 0
        assert entry.text == "base text"
        assert entry.ref_log[0].action is RefAction.CREATE

    def test_record_advances_version_and_snapshots(self):
        entry = PromptEntry("v0")
        entry.record(RefAction.UPDATE, "v1", function="f_x")
        entry.record(RefAction.APPEND, "v1\nmore", function="f_y")
        assert entry.version == 2
        assert entry.text_at(0) == "v0"
        assert entry.text_at(1) == "v1"
        assert entry.text == "v1\nmore"

    def test_text_at_unknown_version_raises(self):
        entry = PromptEntry("v0")
        with pytest.raises(UnknownVersionError):
            entry.text_at(5)

    def test_ref_log_records_mode_and_condition(self):
        entry = PromptEntry("v0")
        entry.record(
            RefAction.APPEND,
            "v0\nhint",
            function="f_hint",
            mode=RefinementMode.AUTO,
            condition='M["confidence"] < 0.7',
        )
        record = entry.ref_log[-1]
        assert record.mode is RefinementMode.AUTO
        assert record.condition == 'M["confidence"] < 0.7'
        assert record.to_dict()["f"] == "f_hint"

    def test_rollback_restores_old_text_as_new_version(self):
        entry = PromptEntry("v0")
        entry.record(RefAction.UPDATE, "v1", function="f_x")
        entry.rollback(0)
        assert entry.text == "v0"
        assert entry.version == 2
        assert entry.ref_log[-1].action is RefAction.ROLLBACK

    def test_rollback_preserves_full_history(self):
        entry = PromptEntry("v0")
        entry.record(RefAction.UPDATE, "v1", function="f_x")
        entry.rollback(0)
        assert entry.text_at(1) == "v1"

    def test_clone_copies_history_and_diverges(self):
        entry = PromptEntry("v0", tags={"a"})
        entry.record(RefAction.UPDATE, "v1", function="f_x")
        copy = entry.clone()
        copy.record(RefAction.UPDATE, "v2", function="f_y")
        assert entry.text == "v1"
        assert copy.text == "v2"
        assert copy.ref_log[-2].action is RefAction.CLONE
        assert copy.tags == {"a"}

    def test_clone_tag_sets_are_independent(self):
        entry = PromptEntry("t", tags={"a"})
        copy = entry.clone()
        copy.tags.add("b")
        assert entry.tags == {"a"}

    def test_render_merges_params_and_values(self):
        entry = PromptEntry("drug={drug} patient={pid}", params={"drug": "Enoxaparin"})
        assert entry.render({"pid": "p1"}) == "drug=Enoxaparin patient=p1"

    def test_render_values_override_params(self):
        entry = PromptEntry("{x}", params={"x": "param"})
        assert entry.render({"x": "value"}) == "value"

    def test_to_dict_matches_paper_shape(self):
        entry = PromptEntry("text", created_by="f_base")
        entry.record(
            RefAction.APPEND, "text\n+", function="f_add_pe_risk",
            mode=RefinementMode.ASSISTED,
        )
        record = entry.to_dict()
        assert record["text"] == "text\n+"
        assert record["ref_log"][0] == {
            "action": "CREATE", "f": "f_base", "version": 0,
        }
        assert record["ref_log"][1]["mode"] == "ASSISTED"

    def test_placeholders_reflect_current_text(self):
        entry = PromptEntry("no placeholders")
        assert entry.placeholders() == []
        entry.record(RefAction.UPDATE, "{a} and {b}", function="f")
        assert entry.placeholders() == ["a", "b"]


class TestTextDigest:
    """``text_digest`` is memoised per version, which is sound because a
    version's text never changes."""

    def test_equals_stable_digest_for_every_version(self):
        entry = PromptEntry("Classify {tweet}.")
        entry.record(RefAction.APPEND, "Classify {tweet}.\nBe brief.", function="f")
        entry.rollback(0)
        for version in entry.versions:
            assert version.text_digest == stable_digest(version.text)
        assert entry.text_digest == stable_digest(entry.text)

    def test_refinement_changes_it(self):
        entry = PromptEntry("Classify {tweet}.")
        before = entry.text_digest
        entry.record(RefAction.APPEND, "Classify {tweet}.\nBe brief.", function="f")
        assert entry.text_digest != before
        assert entry.versions[0].text_digest == before
