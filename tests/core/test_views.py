"""Tests for views: parameterization, composition, dispatch, caching."""

import pytest

from repro.core.views import ViewRegistry
from repro.errors import UnknownViewError, ViewError, ViewParameterError


@pytest.fixture
def registry():
    views = ViewRegistry()
    views.define(
        "med_summary",
        "Summarize the patient's medication history and highlight any use of {drug}.",
        params=("drug",),
        tags={"clinical", "summary"},
    )
    return views


class TestDefinition:
    def test_define_and_expand(self, registry):
        text = registry.expand("med_summary", {"drug": "Enoxaparin"})
        assert "Enoxaparin" in text

    def test_unknown_view_raises(self, registry):
        with pytest.raises(UnknownViewError):
            registry.get("missing")
        with pytest.raises(UnknownViewError):
            registry.expand("missing")

    def test_missing_required_parameter_raises(self, registry):
        with pytest.raises(ViewParameterError) as excinfo:
            registry.expand("med_summary")
        assert "drug" in str(excinfo.value)

    def test_defaults_fill_missing_parameters(self):
        views = ViewRegistry()
        views.define(
            "v", "{drug} for {duration}",
            params=("drug", "duration"),
            defaults={"duration": "48 hours"},
        )
        assert views.expand("v", {"drug": "X"}) == "X for 48 hours"

    def test_redefinition_bumps_version(self, registry):
        view_0 = registry.get("med_summary")
        registry.define("med_summary", "new template {drug}", params=("drug",))
        assert registry.get("med_summary").version == view_0.version + 1

    def test_names_and_tags(self, registry):
        registry.define("other", "x", tags={"misc"})
        assert registry.names() == ["med_summary", "other"]
        assert registry.with_tag("clinical") == ["med_summary"]

    def test_base_must_exist(self):
        views = ViewRegistry()
        with pytest.raises(UnknownViewError):
            views.define("child", "x", base="ghost")


class TestComposition:
    def test_derived_view_prepends_base_by_default(self, registry):
        registry.define(
            "discharge_summary",
            "Emphasize medications, hospital course, and follow-up.",
            base="med_summary",
        )
        text = registry.expand("discharge_summary", {"drug": "Enoxaparin"})
        assert text.index("medication history") < text.index("hospital course")

    def test_explicit_base_placeholder_controls_placement(self, registry):
        registry.define(
            "wrapped", "BEFORE\n{base}\nAFTER", base="med_summary"
        )
        text = registry.expand("wrapped", {"drug": "X"})
        assert text.startswith("BEFORE")
        assert text.endswith("AFTER")
        assert "X" in text

    def test_parameters_flow_through_chain(self, registry):
        registry.define("child", "Focus on {drug} dosing.", base="med_summary")
        text = registry.expand("child", {"drug": "Enoxaparin"})
        assert text.count("Enoxaparin") == 2

    def test_chain_of_three(self, registry):
        registry.define("mid", "mid layer", base="med_summary")
        registry.define("leaf", "leaf layer", base="mid")
        text = registry.expand("leaf", {"drug": "X"})
        assert "mid layer" in text and "leaf layer" in text

    def test_cycle_detected(self):
        views = ViewRegistry()
        views.define("a", "a")
        views.define("b", "b", base="a")
        views.define("a", "a again", base="b")  # redefinition creates a cycle
        with pytest.raises(ViewError):
            views.expand("a")

    def test_required_params_collected_across_chain(self, registry):
        registry.define("child", "also {field}", params=("field",), base="med_summary")
        with pytest.raises(ViewParameterError) as excinfo:
            registry.expand("child", {"field": "x"})
        assert "drug" in str(excinfo.value)


class TestInstantiation:
    def test_instantiate_records_view_and_tags(self, registry):
        entry = registry.instantiate("med_summary", {"drug": "X"})
        assert entry.view == "med_summary"
        assert entry.tags == {"clinical", "summary"}
        assert entry.params == {"drug": "X"}
        assert entry.ref_log[0].function == "f_view_med_summary"


class TestDispatch:
    def test_dispatch_matches_first_predicate(self, registry):
        registry.define("discharge_view", "d", base=None)
        registry.define("radiology_view", "r", base=None)
        chosen = registry.dispatch(
            [
                (lambda kind: kind == "radiology_report", "radiology_view"),
                (lambda kind: kind == "discharge_summary", "discharge_view"),
            ],
            "discharge_summary",
        )
        assert chosen == "discharge_view"

    def test_dispatch_default(self, registry):
        chosen = registry.dispatch([], "anything", default="med_summary")
        assert chosen == "med_summary"

    def test_dispatch_without_match_raises(self, registry):
        with pytest.raises(ViewError):
            registry.dispatch([], "anything")


class TestCaching:
    def test_expansion_cached_by_params(self, registry):
        first = registry.expand("med_summary", {"drug": "X"})
        assert registry.expand("med_summary", {"drug": "X"}) == first

    def test_different_params_do_not_collide(self, registry):
        text_x = registry.expand("med_summary", {"drug": "X"})
        text_y = registry.expand("med_summary", {"drug": "Y"})
        assert text_x != text_y

    def test_redefinition_invalidates_old_cache_entries(self, registry):
        registry.expand("med_summary", {"drug": "X"})
        registry.define("med_summary", "NEW {drug}", params=("drug",))
        assert registry.expand("med_summary", {"drug": "X"}) == "NEW X"

    def test_rebased_view_with_equal_version_sum_renders_new_base(self):
        """Two base chains whose definition versions sum alike: A (v3)
        and B (v0), then C (v2) and B redefined over it (v1)."""
        views = ViewRegistry()
        for version in range(4):
            views.define("A", f"A-text-v{version}")
        for version in range(3):
            views.define("C", f"C-text-v{version}")
        views.define("B", "B body", base="A")
        assert views.expand("B") == "A-text-v3\nB body"
        views.define("B", "B body", base="C")
        assert views.expand("B") == "C-text-v2\nB body"


class TestCompiledTemplates:
    """Each definition version is parsed once, and a redefinition (of the
    view or of its base) is rendered from its own new text."""

    def test_redefinition_renders_new_text(self, registry):
        assert registry.expand("med_summary", {"drug": "X"}).endswith("of X.")
        registry.define("med_summary", "Only {drug}.", params=("drug",))
        assert registry.expand("med_summary", {"drug": "X"}) == "Only X."

    def test_base_redefinition_renders_new_text(self):
        views = ViewRegistry()
        views.define("base", "Base v0.")
        views.define("child", "Child on {topic}.", params=("topic",), base="base")
        assert views.expand("child", {"topic": "t"}) == "Base v0.\nChild on t."
        views.define("base", "Base v1 about {topic}.", params=("topic",))
        assert views.expand("child", {"topic": "t"}) == (
            "Base v1 about t.\nChild on t."
        )

    def test_one_parse_per_definition_version(self, registry, monkeypatch):
        from repro.core import views as views_module

        parsed = []
        real = views_module.CompiledTemplate

        def counting(text):
            parsed.append(text)
            return real(text)

        monkeypatch.setattr(views_module, "CompiledTemplate", counting)
        for drug in ("X", "Y", "X"):
            registry.expand("med_summary", {"drug": drug})
        assert len(parsed) == 1
        registry.define("med_summary", "Only {drug}.", params=("drug",))
        registry.expand("med_summary", {"drug": "X"})
        registry.expand("med_summary", {"drug": "Z"})
        assert parsed[1:] == ["Only {drug}."]

    def test_check_cache_key_ignores_the_parsed_templates(self, registry):
        from repro.analysis.cache import fingerprint_check
        from repro.core import GEN, Pipeline
        from repro.core.derived import VIEW

        pipeline = Pipeline(
            [VIEW("med_summary", key="qa", params={"drug": "X"}), GEN("a", prompt="qa")]
        )
        before = fingerprint_check(pipeline, views=registry)
        registry.expand("med_summary", {"drug": "X"})
        assert registry._templates
        assert fingerprint_check(pipeline, views=registry) == before
