"""Tests for the persistent run ledger (write side + read side)."""

import json

import pytest

from repro.core import CHECK, Condition, GEN, Pipeline, REF, RefAction
from repro.data import make_tweet_corpus
from repro.errors import SpearError
from repro.llm import SimulatedLLM
from repro.obs import Ledger, ObsCollector
from repro.obs.ledger import LedgerRun, RunLedger
from repro.runtime.events import EventKind
from repro.runtime.executor import Executor
from repro.runtime.options import RuntimeOptions


def make_executor(ledger_dir, *, seed=7, collector=True):
    llm = SimulatedLLM("qwen2.5-7b-instruct", enable_prefix_cache=False)
    llm.bind_tweets(make_tweet_corpus(4, seed=seed))
    options = RuntimeOptions(
        model=llm,
        clock=llm.clock,
        collector=ObsCollector() if collector else None,
        ledger_dir=ledger_dir,
    )
    return Executor(options=options)


def make_pipeline(state, corpus_seed=7):
    corpus = make_tweet_corpus(4, seed=corpus_seed)
    state.prompts.create(
        "qa", f"Summarize the tweet.\nTweet:\n{corpus[0].text}"
    )
    return Pipeline(
        [
            GEN("answer", prompt="qa"),
            CHECK(
                Condition.metadata_below("confidence", 2.0),
                REF(RefAction.APPEND, "Be brief.", key="qa"),
            ),
            GEN("answer", prompt="qa"),
        ]
    )


@pytest.fixture
def ledgered_run(tmp_path):
    """One completed ledgered run; returns (root, state, result)."""
    root = tmp_path / "runs"
    executor = make_executor(root)
    state = executor.new_state()
    result = executor.run(make_pipeline(state), state=state)
    return root, state, result


class TestWriteSide:
    def test_run_directory_layout(self, ledgered_run):
        root, _state, _result = ledgered_run
        run_dir = root / "000001"
        for name in (
            "manifest.json",
            "events.jsonl",
            "report.json",
            "attribution.json",
            "series.jsonl",
        ):
            assert (run_dir / name).exists(), name

    def test_no_ledger_builds_no_manifest(self, monkeypatch):
        import repro.obs.ledger as ledger_module
        from repro.runtime.incremental import RefinementLoop

        def refuse(*_args, **_kwargs):
            raise AssertionError("manifest built without a ledger")

        monkeypatch.setattr(ledger_module, "describe_pipeline", refuse)
        monkeypatch.setattr(ledger_module, "describe_options", refuse)
        executor = make_executor(None)
        state = executor.new_state()
        pipeline = make_pipeline(state)
        executor.run(pipeline, state=state)
        RefinementLoop(
            executor,
            pipeline,
            refiners=[REF(RefAction.APPEND, "Be specific.", key="qa")],
            max_iterations=2,
        ).run(state=state)

    def test_manifest_identity_and_status(self, ledgered_run):
        root, state, _result = ledgered_run
        run = Ledger(root).latest()
        assert run.status == "completed"
        assert run.manifest["runner"] == "Executor"
        assert run.manifest["event_count"] == len(state.events)
        assert run.manifest["options"]["model_profile"] == "qwen2.5-7b-instruct"
        assert run.manifest["pipeline"]["operators"]

    def test_events_round_trip_losslessly(self, ledgered_run):
        root, state, _result = ledgered_run
        reloaded = Ledger(root).latest().events()
        original = state.events.all()
        assert len(reloaded) == len(original)
        for back, orig in zip(reloaded, original):
            assert back.kind is orig.kind  # enum identity, not a str
            assert back.operator == orig.operator
            assert back.at == orig.at
            assert dict(back.payload) == dict(orig.payload)

    def test_sequential_run_ids(self, tmp_path):
        root = tmp_path / "runs"
        executor = make_executor(root)
        for _ in range(2):
            state = executor.new_state()
            executor.run(make_pipeline(state), state=state)
        assert Ledger(root).list() == ["000001", "000002"]

    def test_items_run_is_one_run(self, tmp_path):
        root = tmp_path / "runs"
        executor = make_executor(root)
        state = executor.new_state()
        pipeline = make_pipeline(state)
        batch = executor.run(pipeline, items=[{"n": 1}, {"n": 2}], state=state)
        assert not batch.failures()
        ledger = Ledger(root)
        assert ledger.list() == ["000001"]
        run = ledger.latest()
        assert run.status == "completed"
        assert run.manifest["runner"] == "Executor"
        assert run.manifest["event_count"] == len(state.events)
        kinds = [event.kind for event in run.events().all()]
        assert kinds.count(EventKind.GENERATE) == 4
        assert kinds[-1] is EventKind.BATCH

    def test_refinement_loop_is_one_run(self, tmp_path):
        from repro.runtime.incremental import RefinementLoop

        root = tmp_path / "runs"
        executor = make_executor(root)
        state = executor.new_state()
        pipeline = make_pipeline(state)
        loop = RefinementLoop(
            executor,
            pipeline,
            refiners=[REF(RefAction.APPEND, "Be concise.", key="qa")],
            max_iterations=2,
        )
        loop.run(state=state)
        # The loop drives Executor.run per iteration, yet the reentrant
        # scope keeps everything in a single runs/<id>/ directory.
        ledger = Ledger(root)
        assert ledger.list() == ["000001"]
        run = ledger.latest()
        assert run.manifest["runner"] == "RefinementLoop"
        assert run.manifest["event_count"] == len(state.events)

    def test_failed_run_is_tombstoned(self, tmp_path):
        root = tmp_path / "runs"
        executor = make_executor(root)
        state = executor.new_state()
        pipeline = Pipeline([GEN("answer", prompt="missing")])
        with pytest.raises(SpearError):
            executor.run(pipeline, state=state)
        run = Ledger(root).latest()
        assert run.status == "failed"
        # The tombstone still carries whatever was observed before the
        # failure — a report over the partial event stream.
        assert run.report().totals["events"] == run.manifest["event_count"]

    def test_finalize_is_idempotent(self, tmp_path):
        from repro.runtime.events import EventLog

        ledger = RunLedger.create(tmp_path / "runs")
        log = EventLog()
        ledger.open(log)
        log.emit(EventKind.CHECK, "A", at=1.0)
        ledger.finalize(status="completed")
        ledger.finalize(status="failed")  # no-op: first outcome wins
        run = LedgerRun(ledger.path)
        assert run.status == "completed"
        assert run.manifest["event_count"] == 1

    def test_no_ledger_dir_writes_nothing(self, tmp_path):
        executor = make_executor(None)
        state = executor.new_state()
        executor.run(make_pipeline(state), state=state)
        assert list(tmp_path.iterdir()) == []
        assert getattr(state, "ledger", None) is None


class TestDeterminism:
    def _run_once(self, root):
        executor = make_executor(root, seed=7)
        state = executor.new_state()
        executor.run(make_pipeline(state), state=state)
        return Ledger(root).latest()

    def test_same_seed_runs_are_byte_identical(self, tmp_path):
        run_a = self._run_once(tmp_path / "a")
        run_b = self._run_once(tmp_path / "b")
        # Everything stamped on the virtual clock diffs to zero byte-for-
        # byte; only the manifest carries host wall-clock times.
        for name in (
            "events.jsonl",
            "report.json",
            "attribution.json",
            "series.jsonl",
        ):
            assert (run_a.path / name).read_bytes() == (
                run_b.path / name
            ).read_bytes(), name

    def test_collector_reuse_matches_replay(self, tmp_path):
        """Finalization via the live collector must equal offline replay.

        With a collector attached, finalize reuses its accrued metrics;
        without one it replays the captured events.  The event-derived
        sections must agree exactly either way.
        """
        with_collector = self._run_once(tmp_path / "a").report()
        executor = make_executor(tmp_path / "b" / "runs", collector=False)
        state = executor.new_state()
        executor.run(make_pipeline(state), state=state)
        replayed = Ledger(tmp_path / "b" / "runs").latest().report()
        assert replayed.operators == with_collector.operators
        assert replayed.generation == with_collector.generation
        assert replayed.slowest_spans == with_collector.slowest_spans
        assert (
            replayed.totals["gen_calls"] == with_collector.totals["gen_calls"]
        )


class TestReadSide:
    def test_list_load_latest(self, ledgered_run):
        root, _state, _result = ledgered_run
        ledger = Ledger(root)
        assert ledger.list() == ["000001"]
        assert ledger.load("000001").run_id == "000001"
        assert ledger.latest().run_id == "000001"

    def test_empty_root(self, tmp_path):
        ledger = Ledger(tmp_path / "nowhere")
        assert ledger.list() == []
        assert ledger.latest() is None

    def test_load_unknown_run_lists_available(self, ledgered_run):
        root, _state, _result = ledgered_run
        with pytest.raises(SpearError, match="available: 000001"):
            Ledger(root).load("000999")

    def test_not_a_run_directory(self, tmp_path):
        (tmp_path / "junk").mkdir()
        with pytest.raises(SpearError, match="no manifest.json"):
            LedgerRun(tmp_path / "junk")

    def test_report_round_trips_rendering_byte_identical(self, tmp_path):
        """Satellite (d): report.json reloads to byte-identical stats text.

        The run is ledgered *without* a collector, so the persisted report
        was built purely from the captured events — rebuilding it offline
        from the persisted events.jsonl must render the exact same
        ``spear stats`` text.
        """
        from repro.cli import render_stats_text
        from repro.obs import build_run_report

        root = tmp_path / "runs"
        executor = make_executor(root, collector=False)
        state = executor.new_state()
        executor.run(make_pipeline(state), state=state)
        run = Ledger(root).latest()
        persisted = run.report()
        rebuilt = build_run_report(run.events())
        assert render_stats_text(persisted) == render_stats_text(rebuilt)
        # And the dict<->dataclass round-trip itself is lossless.
        assert persisted.to_dict() == json.loads(
            (run.path / "report.json").read_text()
        )

    def test_series_rows_parse_and_are_ordered(self, ledgered_run):
        root, _state, _result = ledgered_run
        rows = Ledger(root).latest().series()
        assert rows, "series.jsonl should not be empty with a collector"
        assert rows[0]["trigger"] == "start"
        assert rows[-1]["trigger"] == "final"
        ats = [row["at"] for row in rows]
        assert ats == sorted(ats)
        assert any(
            name.startswith("spear_events_total")
            for row in rows
            for name in row["metrics"]
        )


class TestFastPathBytes:
    """Payloads that skip the tagged encoding still write the same bytes."""

    def test_line_writer_equals_the_tagged_encoding(self, tmp_path):
        """Every ``(seq, at, label, payload)`` shape, fast path or not."""
        import math

        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.core.entry import RefAction
        from repro.llm.latency import LatencyBreakdown
        from repro.runtime.events import Event
        from repro.runtime.tracing import _encode_value

        ats = st.one_of(
            st.sampled_from(
                [-0.0, 1e-7, 1e16, 1e22, 3, math.inf, -math.inf, math.nan]
            ),
            st.floats(),
        )
        labels = st.one_of(
            st.sampled_from(['GEN["a"]', "back\\slash", "naïve ☃", ""]),
            st.text(alphabet='"\\é☃\n[]aG', max_size=8),
        )
        scalars = st.one_of(
            st.none(), st.booleans(), st.integers(), st.floats(),
            st.text(alphabet='"\\é☃x', max_size=5),
        )
        payloads = st.one_of(
            st.just({}),
            st.dictionaries(st.text(max_size=5), scalars, max_size=4),
            st.dictionaries(
                st.text(max_size=5), st.sampled_from(list(RefAction)), max_size=2
            ),
            st.just({"latency": LatencyBreakdown(0.1, 0.2, 0.0, 0.3)}),
            st.dictionaries(
                st.text(max_size=5),
                st.lists(scalars, max_size=3).map(tuple),
                max_size=2,
            ),
        )
        ledger = RunLedger(tmp_path, "000001")

        @settings(max_examples=300, deadline=None)
        @given(
            seq=st.integers(min_value=0),
            kind=st.sampled_from(list(EventKind)),
            operator=labels,
            at=ats,
            payload=payloads,
        )
        def line_matches(seq, kind, operator, at, payload):
            event = Event(seq, kind, operator, at, payload)
            expected = json.dumps(_encode_value(event.to_dict()))
            assert ledger._line(event) == expected
            assert ledger._line(event) == expected  # the cached head

        line_matches()

    def test_every_line_equals_the_tagged_encoding(self, tmp_path):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.core.entry import RefAction
        from repro.llm.latency import LatencyBreakdown
        from repro.runtime.events import EventLog
        from repro.runtime.tracing import _encode_value

        floats = st.floats(allow_nan=False, allow_infinity=False)
        scalars = st.one_of(
            st.none(), st.booleans(), st.integers(), floats, st.text(max_size=12)
        )
        leaves = st.one_of(
            scalars,
            st.sampled_from(list(RefAction) + list(EventKind)),
            st.builds(
                LatencyBreakdown,
                overhead=floats, prefill=floats, cached_prefill=floats,
                decode=floats,
            ),
        )
        values = st.recursive(
            leaves,
            lambda inner: st.one_of(
                st.lists(inner, max_size=3),
                st.lists(inner, max_size=3).map(tuple),
                st.dictionaries(st.text(max_size=5), inner, max_size=3),
            ),
            max_leaves=8,
        )
        payloads = st.dictionaries(
            st.text(min_size=1, max_size=8), values, max_size=4
        )

        runs = iter(range(10**6))

        @settings(max_examples=60, deadline=None)
        @given(batch=st.lists(payloads, min_size=1, max_size=5))
        def lines_match(batch):
            ledger = RunLedger(tmp_path, f"{next(runs):06d}")
            ledger.path.mkdir()
            log = EventLog()
            ledger.open(log)
            for payload in batch:
                log.record(EventKind.CHECK, "CHECK[p]", at=0.5, payload=payload)
            ledger.finalize()
            lines = (ledger.path / "events.jsonl").read_text().splitlines()
            assert lines == [
                json.dumps(_encode_value(event.to_dict())) for event in log
            ]

        lines_match()
