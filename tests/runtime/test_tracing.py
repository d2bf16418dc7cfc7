"""Tests for timeline rendering and the JSONL event codec."""

from repro.core import CHECK, Condition, GEN, REF, RefAction
from repro.runtime.events import EventKind, EventLog
from repro.runtime.tracing import render_timeline


def _run_small_pipeline(state, tweet_corpus):
    state.prompts.create(
        "qa", f"Summarize the tweet.\nTweet:\n{tweet_corpus[0].text}"
    )
    pipeline = (
        GEN("answer", prompt="qa")
        >> CHECK(
            Condition.metadata_below("confidence", 2.0),
            REF(RefAction.APPEND, "Be brief.", key="qa"),
        )
        >> GEN("answer", prompt="qa")
    )
    return pipeline.apply(state)


class TestRenderTimeline:
    def test_semantic_events_rendered(self, state, tweet_corpus):
        state = _run_small_pipeline(state, tweet_corpus)
        timeline = render_timeline(state.events)
        assert "generate" in timeline
        assert "check" in timeline
        assert "refine" in timeline
        # Lifecycle brackets hidden by default.
        assert "<GEN" not in timeline

    def test_lifecycle_included_on_request(self, state, tweet_corpus):
        state = _run_small_pipeline(state, tweet_corpus)
        timeline = render_timeline(state.events, include_lifecycle=True)
        assert '<GEN["answer"]>' in timeline
        assert '</GEN["answer"]>' in timeline

    def test_details_include_condition_and_outcome(self, state, tweet_corpus):
        state = _run_small_pipeline(state, tweet_corpus)
        timeline = render_timeline(state.events)
        assert 'condition=M["confidence"] < 2.0' in timeline
        assert "outcome=True" in timeline

    def test_timestamps_monotone(self, state, tweet_corpus):
        state = _run_small_pipeline(state, tweet_corpus)
        stamps = [
            float(line.split("s")[0]) for line in render_timeline(state.events).splitlines()
        ]
        assert stamps == sorted(stamps)

    def test_indentation_follows_nesting(self):
        log = EventLog()
        log.emit(EventKind.OPERATOR_START, "OUTER")
        log.emit(EventKind.CHECK, "INNER", condition="x", outcome=True)
        log.emit(EventKind.OPERATOR_END, "OUTER")
        log.emit(EventKind.CHECK, "TOP", condition="y", outcome=False)
        lines = render_timeline(log).splitlines()
        inner_line, top_line = lines
        assert inner_line.index("check") > top_line.index("check")

    def test_empty_log(self):
        assert render_timeline(EventLog()) == ""


class TestEventExport:
    def test_jsonl_round_trip(self, state, tweet_corpus, tmp_path):
        from repro.runtime.tracing import export_events, import_events

        state = _run_small_pipeline(state, tweet_corpus)
        path = export_events(state.events, tmp_path / "trace.jsonl")
        loaded = import_events(path)
        assert len(loaded) == len(state.events)
        original = state.events.all()
        for before, after in zip(original, loaded.all()):
            assert after.kind == before.kind
            assert after.operator == before.operator
            assert after.at == before.at

    def test_exported_file_is_one_json_object_per_line(self, state, tweet_corpus, tmp_path):
        import json

        from repro.runtime.tracing import export_events

        state = _run_small_pipeline(state, tweet_corpus)
        path = export_events(state.events, tmp_path / "trace.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == len(state.events)
        for line in lines:
            record = json.loads(line)
            assert {"seq", "kind", "operator", "at", "payload"} <= set(record)

    def test_rendered_timeline_identical_after_round_trip(
        self, state, tweet_corpus, tmp_path
    ):
        from repro.runtime.tracing import export_events, import_events

        state = _run_small_pipeline(state, tweet_corpus)
        path = export_events(state.events, tmp_path / "trace.jsonl")
        assert render_timeline(import_events(path)) == render_timeline(state.events)


class TestLosslessRoundTrip:
    """Enum and dataclass payload values survive export/import unchanged."""

    def test_enum_payload_round_trips_as_enum(self, tmp_path):
        from repro.core.entry import RefAction
        from repro.runtime.tracing import export_events, import_events

        log = EventLog()
        log.emit(EventKind.REFINE, "REF[x]", action=RefAction.APPEND)
        loaded = import_events(export_events(log, tmp_path / "t.jsonl"))
        value = loaded.all()[0].payload["action"]
        assert value is RefAction.APPEND

    def test_dataclass_payload_round_trips(self, tmp_path):
        from repro.llm.latency import LatencyBreakdown
        from repro.runtime.tracing import export_events, import_events

        breakdown = LatencyBreakdown(
            overhead=0.5, prefill=1.0, cached_prefill=0.1, decode=2.0
        )
        log = EventLog()
        log.emit(EventKind.GENERATE, "GEN[x]", breakdown=breakdown)
        loaded = import_events(export_events(log, tmp_path / "t.jsonl"))
        assert loaded.all()[0].payload["breakdown"] == breakdown

    def test_unserializable_payload_fails_loudly(self, tmp_path):
        import pytest

        log = EventLog()
        log.emit(EventKind.GENERATE, "GEN[x]", bad=object())
        with pytest.raises(TypeError, match="not\\s+JSONL-exportable"):
            from repro.runtime.tracing import export_events

            export_events(log, tmp_path / "t.jsonl")

    def test_property_round_trip(self, tmp_path):
        """Property test: arbitrary JSON/enum/dataclass payloads round-trip."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.core.entry import RefAction, RefinementMode
        from repro.llm.latency import LatencyBreakdown
        from repro.runtime.tracing import export_events, import_events

        scalars = st.one_of(
            st.none(),
            st.booleans(),
            st.integers(min_value=-(2**31), max_value=2**31),
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            st.text(max_size=20),
            st.sampled_from(list(RefAction)),
            st.sampled_from(list(RefinementMode)),
            st.builds(
                LatencyBreakdown,
                overhead=st.floats(0, 10, allow_nan=False),
                prefill=st.floats(0, 10, allow_nan=False),
                cached_prefill=st.floats(0, 10, allow_nan=False),
                decode=st.floats(0, 10, allow_nan=False),
            ),
        )
        payloads = st.dictionaries(
            st.text(
                alphabet=st.characters(min_codepoint=97, max_codepoint=122),
                min_size=1,
                max_size=8,
            ),
            st.one_of(scalars, st.lists(scalars, max_size=3)),
            max_size=4,
        )

        @settings(max_examples=40, deadline=None)
        @given(payload=payloads)
        def round_trips(payload):
            log = EventLog()
            log.record(EventKind.GENERATE, "GEN[p]", at=1.25, payload=payload)
            loaded = import_events(export_events(log, tmp_path / "prop.jsonl"))
            event = loaded.all()[0]
            assert dict(event.payload) == payload
            assert event.kind is EventKind.GENERATE
            assert event.at == 1.25

        round_trips()

    def test_payload_keys_shadowing_emit_params_round_trip(self, tmp_path):
        """Keys named like emit()'s own parameters must still import."""
        from repro.runtime.tracing import export_events, import_events

        log = EventLog()
        log.record(
            EventKind.GENERATE,
            "GEN[x]",
            at=3.0,
            payload={"kind": "custom", "operator": "inner", "at": 1.0},
        )
        loaded = import_events(export_events(log, tmp_path / "t.jsonl"))
        event = loaded.all()[0]
        assert dict(event.payload) == {"kind": "custom", "operator": "inner", "at": 1.0}
        assert event.kind is EventKind.GENERATE
        assert event.at == 3.0


class TestUntrustedTraceFiles:
    """Trace files are untrusted input: type tags must not execute code."""

    def _write_trace(self, tmp_path, payload_value):
        import json

        record = {
            "seq": 0,
            "kind": "generate",
            "operator": "GEN[x]",
            "at": 0.0,
            "payload": {"value": payload_value},
        }
        path = tmp_path / "evil.jsonl"
        path.write_text(json.dumps(record) + "\n")
        return path

    def test_non_repro_module_rejected(self, tmp_path):
        import pytest

        from repro.errors import SpearError
        from repro.runtime.tracing import import_events

        path = self._write_trace(
            tmp_path,
            {"__spear__": "enum", "type": "os:system", "value": "echo pwned"},
        )
        with pytest.raises(SpearError, match="repro"):
            import_events(path)

    def test_repro_prefix_spoof_rejected(self, tmp_path):
        import pytest

        from repro.errors import SpearError
        from repro.runtime.tracing import import_events

        path = self._write_trace(
            tmp_path,
            {"__spear__": "enum", "type": "reprox.evil:run", "value": 1},
        )
        with pytest.raises(SpearError):
            import_events(path)

    def test_repro_callable_that_is_not_an_enum_rejected(self, tmp_path):
        import pytest

        from repro.errors import SpearError
        from repro.runtime.tracing import import_events

        path = self._write_trace(
            tmp_path,
            {
                "__spear__": "enum",
                "type": "repro.runtime.tracing:import_events",
                "value": "/etc/passwd",
            },
        )
        with pytest.raises(SpearError, match="not an enum"):
            import_events(path)

    def test_repro_class_that_is_not_a_dataclass_rejected(self, tmp_path):
        import pytest

        from repro.errors import SpearError
        from repro.runtime.tracing import import_events

        path = self._write_trace(
            tmp_path,
            {
                "__spear__": "dataclass",
                "type": "repro.runtime.events:EventLog",
                "fields": {},
            },
        )
        with pytest.raises(SpearError, match="not a dataclass"):
            import_events(path)
