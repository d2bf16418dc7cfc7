"""The parallel runner's fold: lane events move into the base log.

``ParallelBatchRunner`` records each lane into a private ``EventLog`` and
folds it into the base log when the run ends.  The fold moves the lane's
``Event`` objects and renumbers them in place (``EventLog.absorb``); a
foreign log that something else still holds is copied (``extend``).
"""

import hashlib

import pytest

from repro.obs import ObsCollector
from repro.obs.ledger import Ledger
from repro.runtime import parallel
from repro.runtime.events import Event, EventKind, EventLog
from repro.runtime.options import RuntimeOptions
from repro.runtime.parallel import ParallelBatchRunner
from repro.runtime.result_cache import ResultCache
from tests.runtime import table3_workload as table3

LANES = 16


class _Kept(EventLog):
    """An ``EventLog`` that remembers every instance made."""

    made: list = []

    def __init__(self):
        super().__init__()
        _Kept.made.append(self)


def _run(n_items=48, seed=7, **options):
    state, items = table3.build_state(n_items, seed)
    runner = ParallelBatchRunner(
        state, bind=table3.bind, workers=LANES, options=RuntimeOptions(**options)
    )
    batch = runner.run(table3.pipeline(), items=items)
    return state, batch


def _copy_fold(self, other):
    """The fold as a copy: the definition the move must equal."""
    self.extend(other.all())
    other.clear()


class TestMovedLaneEvents:
    def test_seq_is_dense_and_lane_logs_are_empty(self, monkeypatch):
        _Kept.made = []
        monkeypatch.setattr(parallel, "EventLog", _Kept)
        state, batch = _run()
        events = state.events.all()
        assert [event.seq for event in events] == list(range(len(events)))
        assert len({id(event) for event in events}) == len(events)
        assert len(_Kept.made) == LANES
        assert all(len(lane_log) == 0 for lane_log in _Kept.made)
        lanes = [e for e in events if e.operator.startswith("LANE[")]
        assert len(lanes) == 2 * LANES
        assert batch.failures() == []

    def test_same_log_as_a_copying_fold(self, monkeypatch):
        moved, _ = _run(result_cache=ResultCache())
        monkeypatch.setattr(EventLog, "absorb", _copy_fold)
        copied, _ = _run(result_cache=ResultCache())
        assert moved.events.to_dicts() == copied.events.to_dicts()
        assert [repr(e) for e in moved.events] == [repr(e) for e in copied.events]

    def test_subscribers_see_the_renumbered_stream(self):
        state, items = table3.build_state(16, 11)
        seen = []
        state.events.subscribe(lambda event: seen.append((event.seq, event.kind)))
        ParallelBatchRunner(state, bind=table3.bind, workers=4).run(
            table3.pipeline(), items=items
        )
        assert seen == [(event.seq, event.kind) for event in state.events]

    def test_absorb_notifies_and_records_subscriber_errors(self):
        lane = EventLog()
        lane.emit(EventKind.GENERATE, "GEN", at=1.0, n=1)
        lane.emit(EventKind.CHECK, "CHECK", at=2.0)
        base = EventLog()
        base.emit(EventKind.BATCH, "BASE")

        def bad(event):
            raise RuntimeError("boom")

        base.subscribe(bad)
        base.absorb(lane)
        assert len(lane) == 0
        assert [(e.seq, e.kind) for e in base.all()] == [
            (0, EventKind.BATCH),
            (1, EventKind.GENERATE),
            (2, EventKind.ERROR),
            (3, EventKind.CHECK),
            (4, EventKind.ERROR),
        ]
        assert base.all()[2].payload["during_seq"] == 1


class TestExtendCopies:
    def test_extend_leaves_the_source_untouched(self):
        source = EventLog()
        source.emit(EventKind.GENERATE, "GEN", at=1.0, text="a")
        source.record(EventKind.FAULT, "MODEL", at=2.0, payload={"kind": "x"})
        before = source.to_dicts()
        target = EventLog()
        target.emit(EventKind.BATCH, "BASE")
        copies = target.extend(source.all())
        copies[0].payload["text"] = "changed"
        copies[1].seq = 99
        assert source.to_dicts() == before
        assert [event.seq for event in source] == [0, 1]
        assert all(a is not b for a, b in zip(copies, source.all()))


class TestEventRecord:
    def test_fields_repr_eq_and_to_dict(self):
        event = Event(3, EventKind.GENERATE, "GEN[x]", 1.5, {"n": 1})
        assert event == Event(3, EventKind.GENERATE, "GEN[x]", 1.5, {"n": 1})
        assert event != Event(4, EventKind.GENERATE, "GEN[x]", 1.5, {"n": 1})
        assert repr(event) == (
            "Event(seq=3, kind=<EventKind.GENERATE: 'generate'>, "
            "operator='GEN[x]', at=1.5, payload={'n': 1})"
        )
        assert event.to_dict() == {
            "seq": 3, "kind": "generate", "operator": "GEN[x]", "at": 1.5,
            "payload": {"n": 1},
        }
        assert Event(0, EventKind.CHECK, "C", 0.0).payload == {}
        assert not hasattr(event, "__dict__")


#: sha256 of the four derived ledger files of :func:`_ledgered_lanes`, per
#: seed, as written before the fold moved lane events.
PINNED = {
    7: {
        "attribution.json": (
            "d1e55459840b9a936198a726dc4b9ba5ce264dee7cfa887f20fe3915eaf2a5b2"
        ),
        "events.jsonl": (
            "846feef42ee2ba0e792d385307559c7218514b0ecc0679a6bd8c07708aed4e0d"
        ),
        "report.json": (
            "e9993c6cc429536c60a52fc1f9a94cf6e816b34f7dd241cadc1d742813b31da0"
        ),
        "series.jsonl": (
            "34ddacdae928277b0436dbb702de4329ff119eaab4500d6e57165ed1ee720467"
        ),
    },
    11: {
        "attribution.json": (
            "b7453a5db0f90004b70b36fcdfeeaeb6054c5c6bc782efb25b2d2e7a06c483ff"
        ),
        "events.jsonl": (
            "4a8a4b869765da658c1a17a1cd7c4b46ebadaa4f8ebf697303d72a7461e107c2"
        ),
        "report.json": (
            "580481c71e3c1ec744777c0a667ff9a8244a543e42c9cbb4f60bb0e31952b6dd"
        ),
        "series.jsonl": (
            "a3e978181baff3e90795f7616c1ac83cfb3d64a712c7c2cc73872c16e7b94a11"
        ),
    },
}


def _ledgered_lanes(root, seed: int) -> dict[str, str]:
    """A 16-lane Table-3 batch with the result cache, collector and
    ledger on; the sha256 of each derived file."""
    _run(
        seed=seed,
        result_cache=ResultCache(),
        collector=ObsCollector(),
        ledger_dir=root,
        series_interval=2.0,
    )
    run = Ledger(root).latest()
    names = ("attribution.json", "events.jsonl", "report.json", "series.jsonl")
    return {
        name: hashlib.sha256((run.path / name).read_bytes()).hexdigest()
        for name in names
    }


class TestPinnedLaneLedger:
    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_a_ledgered_16_lane_run_writes_the_pinned_bytes(self, tmp_path, seed):
        assert _ledgered_lanes(tmp_path / "runs", seed) == PINNED[seed]
