"""Tests for the virtual clock and structured event log."""

import pytest

from repro.runtime.clock import VirtualClock
from repro.runtime.events import EventKind, EventLog


class TestVirtualClock:
    def test_starts_at_zero_and_advances(self):
        clock = VirtualClock()
        assert clock.now == 0.0
        assert clock.advance(1.5) == 1.5
        assert clock.now == 1.5

    def test_custom_start(self):
        assert VirtualClock(10.0).now == 10.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1)

    def test_reset(self):
        clock = VirtualClock()
        clock.advance(5)
        clock.reset()
        assert clock.now == 0.0
        clock.reset(2.0)
        assert clock.now == 2.0


class TestEventLog:
    def test_emit_assigns_monotonic_sequence(self):
        log = EventLog()
        first = log.emit(EventKind.CHECK, "A")
        second = log.emit(EventKind.REFINE, "B")
        assert second.seq == first.seq + 1
        assert len(log) == 2

    def test_payload_and_timestamp_captured(self):
        log = EventLog()
        event = log.emit(EventKind.GENERATE, 'GEN["x"]', at=1.25, confidence=0.8)
        assert event.at == 1.25
        assert event.payload["confidence"] == 0.8

    def test_of_kind_filters(self):
        log = EventLog()
        log.emit(EventKind.CHECK, "A")
        log.emit(EventKind.REFINE, "B")
        log.emit(EventKind.CHECK, "C")
        assert [event.operator for event in log.of_kind(EventKind.CHECK)] == ["A", "C"]

    def test_for_operator_matches_label_prefix(self):
        log = EventLog()
        log.emit(EventKind.GENERATE, 'GEN["answer"]')
        log.emit(EventKind.GENERATE, 'GEN["other"]')
        assert len(log.for_operator('GEN["answer"]')) == 1

    def test_last_with_and_without_kind(self):
        log = EventLog()
        assert log.last() is None
        log.emit(EventKind.CHECK, "A")
        log.emit(EventKind.REFINE, "B")
        assert log.last().operator == "B"
        assert log.last(EventKind.CHECK).operator == "A"
        assert log.last(EventKind.MERGE) is None

    def test_subscribers_receive_events(self):
        log = EventLog()
        received = []
        log.subscribe(received.append)
        log.emit(EventKind.CHECK, "A")
        assert len(received) == 1
        assert received[0].operator == "A"

    def test_to_dicts_serializes(self):
        log = EventLog()
        log.emit(EventKind.PLAN, "P", budget=10)
        record = log.to_dicts()[0]
        assert record["kind"] == "plan"
        assert record["payload"] == {"budget": 10}

    def test_clear_keeps_subscribers(self):
        log = EventLog()
        received = []
        log.subscribe(received.append)
        log.emit(EventKind.CHECK, "A")
        log.clear()
        assert len(log) == 0
        log.emit(EventKind.CHECK, "B")
        assert len(received) == 2

    def test_unsubscribe_stops_delivery(self):
        log = EventLog()
        received = []
        log.subscribe(received.append)
        log.emit(EventKind.CHECK, "A")
        assert log.unsubscribe(received.append) is True
        log.emit(EventKind.CHECK, "B")
        assert len(received) == 1
        # Unsubscribing an unknown callback is a no-op, not an error.
        assert log.unsubscribe(received.append) is False

    def test_failing_subscriber_does_not_break_emit(self):
        log = EventLog()
        received = []

        def bad_subscriber(event):
            raise RuntimeError("boom")

        log.subscribe(bad_subscriber)
        log.subscribe(received.append)
        event = log.emit(EventKind.CHECK, "A", at=1.5)
        # emit returns normally and later subscribers still ran...
        assert event.operator == "A"
        assert event in received
        # ...and the failure is recorded as an ERROR event, not raised.
        errors = log.of_kind(EventKind.ERROR)
        assert len(errors) == 1
        assert errors[0].payload["error"] == "RuntimeError"
        assert errors[0].payload["message"] == "boom"
        assert errors[0].payload["during_seq"] == event.seq
        assert "bad_subscriber" in errors[0].operator

    def test_subscriber_failure_error_reaches_other_subscribers(self):
        # Live subscribers must see the synthesized ERROR event too,
        # else a live collector and an offline replay of the export
        # would disagree on error counts.
        log = EventLog()
        received = []

        def bad_subscriber(event):
            raise RuntimeError("boom")

        log.subscribe(bad_subscriber)
        log.subscribe(received.append)
        log.emit(EventKind.CHECK, "A")
        kinds = [event.kind for event in received]
        assert EventKind.ERROR in kinds
        assert EventKind.CHECK in kinds
        # The failing subscriber's ERROR is delivered, but a failure
        # while *handling* an ERROR event is only recorded: two CHECK
        # emits → exactly two ERROR events, no cascade.
        log.emit(EventKind.CHECK, "B")
        assert len(log.of_kind(EventKind.ERROR)) == 2

    def test_record_allows_payload_keys_shadowing_emit_params(self):
        log = EventLog()
        event = log.record(
            EventKind.GENERATE,
            "GEN[x]",
            at=2.0,
            payload={"kind": "custom", "operator": "inner", "at": 9.9},
        )
        assert event.payload == {"kind": "custom", "operator": "inner", "at": 9.9}
        assert event.at == 2.0

    def test_failing_subscriber_error_does_not_recurse(self):
        log = EventLog()

        def always_fails(event):
            raise ValueError("persistent")

        log.subscribe(always_fails)
        log.emit(EventKind.CHECK, "A")
        log.emit(EventKind.CHECK, "B")
        # One ERROR per emitted event — the ERROR records themselves do
        # not re-notify subscribers (no runaway growth).
        assert len(log) == 4
        assert len(log.of_kind(EventKind.ERROR)) == 2


class TestCopyOnWriteSubscribers:
    """Each dispatch sees the subscribers registered when the event was
    appended; (un)subscribing mid-dispatch takes effect from the next one."""

    def test_subscriber_unsubscribing_itself_mid_dispatch(self):
        log = EventLog()
        seen = {"quitter": [], "after": []}

        def quitter(event):
            seen["quitter"].append(event.operator)
            log.unsubscribe(quitter)

        log.subscribe(quitter)
        log.subscribe(lambda event: seen["after"].append(event.operator))
        log.emit(EventKind.CHECK, "A")
        log.emit(EventKind.CHECK, "B")
        assert seen == {"quitter": ["A"], "after": ["A", "B"]}

    def test_subscriber_unsubscribing_another_mid_dispatch(self):
        log = EventLog()
        later = []

        def remover(event):
            log.unsubscribe(later.append)

        log.subscribe(remover)
        log.subscribe(later.append)
        log.emit(EventKind.CHECK, "A")  # already in this dispatch's snapshot
        log.emit(EventKind.CHECK, "B")
        assert [event.operator for event in later] == ["A"]

    def test_raising_subscriber_error_fan_out(self):
        log = EventLog()
        first, last = [], []

        def bad(event):
            raise RuntimeError("boom")

        log.subscribe(first.append)
        log.subscribe(bad)
        log.subscribe(last.append)
        log.emit(EventKind.CHECK, "A", at=2.0)
        # The ERROR reaches every other subscriber at once, then the
        # original dispatch resumes with the subscribers after ``bad``.
        assert [event.kind for event in first] == [EventKind.CHECK, EventKind.ERROR]
        assert [event.kind for event in last] == [EventKind.ERROR, EventKind.CHECK]
        assert [(event.seq, event.kind) for event in log] == [
            (0, EventKind.CHECK),
            (1, EventKind.ERROR),
        ]
        error = log.all()[1]
        assert error.at == 2.0 and error.payload["during_seq"] == 0

    def test_emit_keeps_payload_and_record_copies_it(self):
        log = EventLog()
        payload = {"n": 1}
        event = log.record(EventKind.CHECK, "A", payload=payload)
        payload["n"] = 2
        assert event.payload == {"n": 1}
        assert log.emit(EventKind.CHECK, "B", n=3).payload == {"n": 3}


class TestBulkExtend:
    """``extend`` renumbers a folded stream in one pass: the same events
    and the same delivered stream as recording them one by one."""

    @staticmethod
    def _foreign():
        lane = EventLog()
        lane.emit(EventKind.OPERATOR_START, "LANE", at=0.5)
        lane.record(EventKind.FAULT, "MODEL", at=1.0, payload={"kind": "x"})
        lane.emit(EventKind.CHECK, "C", at=1.5, outcome=True)
        lane.emit(EventKind.OPERATOR_END, "LANE", at=2.0)
        return lane.all()

    @staticmethod
    def _fold(fold, subscribers):
        log = EventLog()
        log.emit(EventKind.BATCH, "BASE", at=0.25)  # seq 0 is taken
        delivered = []

        def bad(event):
            raise RuntimeError(f"boom {event.seq}")

        for index, kind in enumerate(subscribers):
            if kind == "bad":
                log.subscribe(bad)
            else:
                log.subscribe(
                    lambda event, index=index: delivered.append(
                        (index, event.to_dict())
                    )
                )
        returned = fold(log, TestBulkExtend._foreign())
        return (
            log.to_dicts(),
            delivered,
            [event.to_dict() for event in returned],
        )

    @staticmethod
    def _per_event(log, events):
        return [
            log.record(event.kind, event.operator, at=event.at, payload=event.payload)
            for event in events
        ]

    @pytest.mark.parametrize(
        "subscribers",
        [(), ("ok",), ("ok", "bad", "ok")],
        ids=["none", "one", "raising"],
    )
    def test_same_events_and_delivery_as_per_event_records(self, subscribers):
        bulk = self._fold(lambda log, events: log.extend(events), subscribers)
        assert bulk == self._fold(self._per_event, subscribers)
        logged, _, returned = bulk
        assert [event["seq"] for event in logged] == list(range(len(logged)))
        if "bad" in subscribers:
            assert len(logged) == 1 + 2 * 4  # one subscriber ERROR per event
        else:
            assert returned == logged[1:]

    def test_payload_is_copied(self):
        foreign = self._foreign()
        log = EventLog()
        [_, fault, *_] = log.extend(foreign)
        assert fault.payload == foreign[1].payload
        assert fault.payload is not foreign[1].payload


class TestSince:
    def test_since_equals_slice_of_all(self):
        log = EventLog()
        for index in range(5):
            log.record(EventKind.GENERATE, f"GEN[{index}]", at=float(index))
        for start in range(7):
            assert log.since(start) == log.all()[start:]

    def test_executor_run_never_copies_the_whole_log(self, monkeypatch):
        # Forks share their base's log, so a long-lived base (a tenant
        # session) would otherwise copy its whole history on every run.
        from repro.core import GEN, Pipeline
        from repro.llm.model import SimulatedLLM
        from repro.runtime.executor import Executor
        from repro.runtime.options import RuntimeOptions

        executor = Executor(options=RuntimeOptions(model=SimulatedLLM()))
        base = executor.new_state(context={"topic": "rain"})
        base.prompts.create("p", "Write about {topic}.")
        pipeline = Pipeline([GEN("answer", prompt="p")])
        first = executor.run(pipeline, state=base.fork())

        def refuse(self):
            raise AssertionError("Executor.run copied the whole log")

        monkeypatch.setattr(EventLog, "all", refuse)
        second = executor.run(pipeline, state=base.fork())
        assert [e.kind for e in second.events] == [e.kind for e in first.events]
        assert second.events[0].seq == first.events[-1].seq + 1
