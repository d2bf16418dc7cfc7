"""Property-based tests for view expansion and composition."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.views import ViewRegistry

_names = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)
_words = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    min_size=1,
    max_size=8,
)


class TestExpansionProperties:
    @settings(max_examples=60)
    @given(_names, _words)
    def test_expansion_deterministic_and_cached(self, param, value):
        views = ViewRegistry()
        views.define("v", "before {" + param + "} after", params=(param,))
        first = views.expand("v", {param: value})
        second = views.expand("v", {param: value})
        assert first == second

    @settings(max_examples=60)
    @given(_words, _words)
    def test_different_bindings_never_collide(self, value_1, value_2):
        views = ViewRegistry()
        views.define("v", "x = {p}", params=("p",))
        expanded_1 = views.expand("v", {"p": value_1})
        expanded_2 = views.expand("v", {"p": value_2})
        assert (expanded_1 == expanded_2) == (value_1 == value_2)

    @settings(max_examples=40)
    @given(st.lists(_words, min_size=1, max_size=4))
    def test_chain_contains_every_layer(self, layers):
        views = ViewRegistry()
        previous = None
        for index, word in enumerate(layers):
            name = f"layer_{index}"
            views.define(name, f"text {word} {index}", base=previous)
            previous = name
        expanded = views.expand(previous)
        for index, word in enumerate(layers):
            assert f"text {word} {index}" in expanded

    @settings(max_examples=40)
    @given(_words)
    def test_redefinition_always_takes_effect(self, word):
        views = ViewRegistry()
        views.define("v", "old text")
        views.expand("v")
        views.define("v", f"new {word}")
        assert views.expand("v") == f"new {word}"
