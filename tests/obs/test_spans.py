"""Tests for span-tree reconstruction from the event log."""

import copy

import pytest

from repro.obs import (
    SpanBuilder,
    build_run_report,
    build_span_tree,
    iter_spans,
    render_span_tree,
    top_slowest,
)
from repro.runtime.events import Event, EventKind, EventLog


def _nested_log():
    log = EventLog()
    log.emit(EventKind.OPERATOR_START, "PIPE", at=0.0)
    log.emit(EventKind.OPERATOR_START, 'GEN["a"]', at=0.5)
    log.emit(
        EventKind.GENERATE,
        'GEN["a"]',
        at=2.0,
        prompt_tokens=100,
        cached_tokens=40,
        output_tokens=30,
        latency=1.5,
    )
    log.emit(EventKind.OPERATOR_END, 'GEN["a"]', at=2.0)
    log.emit(EventKind.OPERATOR_START, "CHECK", at=2.0)
    log.emit(EventKind.CHECK, "CHECK", at=2.1, condition="x", outcome=True)
    log.emit(EventKind.OPERATOR_END, "CHECK", at=2.2)
    log.emit(EventKind.OPERATOR_END, "PIPE", at=2.2)
    return log


class TestNestedReconstruction:
    def test_tree_shape_and_walls(self):
        roots = build_span_tree(_nested_log())
        assert len(roots) == 1
        pipe = roots[0]
        assert pipe.operator == "PIPE"
        assert pipe.wall == 2.2
        assert [child.operator for child in pipe.children] == ['GEN["a"]', "CHECK"]
        gen, check = pipe.children
        assert gen.wall == 1.5
        assert check.wall == pytest.approx(0.2)
        assert all(span.complete for span in iter_spans(roots))

    def test_generation_attributed_inclusively(self):
        pipe = build_span_tree(_nested_log())[0]
        gen = pipe.children[0]
        # The GEN span and its parent both see the call and its tokens.
        for span in (gen, pipe):
            assert span.gen_calls == 1
            assert span.prompt_tokens == 100
            assert span.cached_tokens == 40
            assert span.output_tokens == 30
            assert span.gen_latency == 1.5
        assert gen.cache_hit_ratio == 0.4
        # The sibling CHECK saw no generation.
        assert pipe.children[1].gen_calls == 0

    def test_depths_follow_nesting(self):
        roots = build_span_tree(_nested_log())
        depths = {span.operator: span.depth for span in iter_spans(roots)}
        assert depths == {"PIPE": 0, 'GEN["a"]': 1, "CHECK": 1}


class TestMalformedLogs:
    def test_unmatched_end_ignored(self):
        log = EventLog()
        log.emit(EventKind.OPERATOR_END, "ghost", at=1.0)
        assert build_span_tree(log) == []

    def test_interleaved_close_marks_inner_incomplete(self):
        log = EventLog()
        log.emit(EventKind.OPERATOR_START, "outer", at=0.0)
        log.emit(EventKind.OPERATOR_START, "inner", at=1.0)
        log.emit(EventKind.OPERATOR_END, "outer", at=3.0)  # closes both
        roots = build_span_tree(log)
        outer = roots[0]
        assert outer.complete
        assert outer.wall == 3.0
        (inner,) = outer.children
        assert not inner.complete
        assert inner.end == 3.0  # closed at the outer END's timestamp

    def test_truncated_log_closes_at_last_timestamp(self):
        log = EventLog()
        log.emit(EventKind.OPERATOR_START, "never_ends", at=0.0)
        log.emit(EventKind.GENERATE, 'GEN["x"]', at=4.5, latency=1.0)
        (span,) = build_span_tree(log)
        assert not span.complete
        assert span.end == 4.5
        assert span.wall == 4.5

    def test_empty_log(self):
        assert build_span_tree(EventLog()) == []

    def test_unmatched_end_then_start_never_closed(self):
        log = EventLog()
        log.emit(EventKind.OPERATOR_END, "ghost", at=1.0)
        log.emit(EventKind.OPERATOR_START, "truncated", at=2.0)
        (span,) = build_span_tree(log)
        assert span.operator == "truncated"
        assert not span.complete
        # The operator rollup counts the START and times no application.
        operators = build_run_report(log).operators
        assert "ghost" not in operators
        assert operators["truncated"]["invocations"] == 1
        assert operators["truncated"]["wall_seconds"]["count"] == 0

    def test_reentrant_operator_nests(self):
        log = EventLog()
        log.emit(EventKind.OPERATOR_START, "A", at=0.0)
        log.emit(EventKind.OPERATOR_START, "A", at=1.0)
        log.emit(EventKind.OPERATOR_END, "A", at=2.0)
        log.emit(EventKind.OPERATOR_END, "A", at=4.0)
        (outer,) = build_span_tree(log)
        (inner,) = outer.children
        assert (outer.wall, inner.wall) == (4.0, 1.0)
        # Inner pair (1→2) + outer pair (0→4).
        wall = build_run_report(log).operators["A"]["wall_seconds"]
        assert (wall["count"], wall["total"]) == (2, 5.0)


class TestHelpers:
    def test_top_slowest_orders_by_wall(self):
        roots = build_span_tree(_nested_log())
        slowest = top_slowest(roots, k=2)
        assert [span.operator for span in slowest] == ["PIPE", 'GEN["a"]']

    def test_builder_slowest_matches_top_slowest_of_finished_copy(self):
        builder = SpanBuilder()
        for event in _nested_log():
            builder.add(event)
        # Ties, an unbalanced END and spans left open mid-run.
        log = EventLog()
        for name, start, end in (("T1", 10.0, 11.0), ("T2", 11.0, 12.0)):
            log.emit(EventKind.OPERATOR_START, name, at=start)
            log.emit(EventKind.OPERATOR_END, name, at=end)
        log.emit(EventKind.OPERATOR_END, "ORPHAN", at=12.5)
        log.emit(EventKind.OPERATOR_START, "OPEN", at=12.0)
        log.emit(EventKind.OPERATOR_START, "INNER", at=13.0)
        log.emit(EventKind.GENERATE, "INNER", at=14.0, prompt_tokens=5)
        for event in log:
            builder.add(event)
        finished = copy.deepcopy(builder).finish()
        for k in range(8):
            expected = [span.to_dict() for span in top_slowest(finished, k)]
            got = [span.to_dict() for span in builder.slowest(k)]
            assert got == [dict(row, children=[]) for row in expected]
        # The live stack is untouched: the open spans still close normally.
        builder.add(Event(99, EventKind.OPERATOR_END, "INNER", 15.0))
        assert builder.finish()[-1].children[0].complete

    def test_render_span_tree_shows_tokens_and_nesting(self):
        text = render_span_tree(build_span_tree(_nested_log()))
        lines = text.splitlines()
        assert lines[0].lstrip().startswith("0.00s")
        assert "PIPE" in lines[0]
        assert "tokens=100p/40c/30o" in lines[1]
        # Children indented beneath the root.
        assert lines[1].index("GEN") > lines[0].index("PIPE")

    def test_render_marks_incomplete(self):
        log = EventLog()
        log.emit(EventKind.OPERATOR_START, "trunc", at=0.0)
        text = render_span_tree(build_span_tree(log))
        assert "[incomplete]" in text

    def test_to_dict_round_trips_subtree(self):
        pipe = build_span_tree(_nested_log())[0]
        record = pipe.to_dict()
        assert record["operator"] == "PIPE"
        assert record["wall"] == 2.2
        assert [child["operator"] for child in record["children"]] == [
            'GEN["a"]',
            "CHECK",
        ]
