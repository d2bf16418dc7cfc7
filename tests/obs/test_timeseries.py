"""Tests for the watermark-driven time-series recorder."""

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import FORCED_SAMPLE_KINDS, SeriesRecorder
from repro.runtime.events import EventKind, EventLog


def make_recorder(interval=1.0, sink=None):
    registry = MetricsRegistry()
    counter = registry.counter("ticks_total", "test counter")
    recorder = SeriesRecorder(registry, interval=interval, sink=sink)
    return registry, counter, recorder


class TestWatermarks:
    def test_first_event_samples_start(self):
        _registry, _counter, recorder = make_recorder()
        log = EventLog()
        recorder.attach(log)
        log.emit(EventKind.CHECK, "A", at=0.25)
        assert [row["trigger"] for row in recorder.rows] == ["start"]
        assert recorder.rows[0]["at"] == 0.25

    def test_watermark_rows_stamped_at_boundaries(self):
        _registry, counter, recorder = make_recorder(interval=1.0)
        log = EventLog()
        recorder.attach(log)
        log.emit(EventKind.CHECK, "A", at=0.0)  # start
        counter.inc(3)
        # One event far ahead crosses several watermarks at once; each
        # crossing gets its own row stamped *at the boundary*, not at the
        # event's timestamp.
        log.emit(EventKind.CHECK, "A", at=2.5)
        ats = [row["at"] for row in recorder.rows]
        assert ats == [0.0, 1.0, 2.0]
        assert [row["trigger"] for row in recorder.rows[1:]] == [
            "watermark",
            "watermark",
        ]
        # Both watermark rows see the counter value at sampling time.
        assert recorder.rows[-1]["metrics"]["ticks_total"] == 3.0

    def test_an_event_where_the_interval_is_lost_to_rounding_finishes(self):
        # At 2**53 seconds a 1-second step no longer moves a float: adding
        # the interval to the watermark would loop forever.
        lines = []
        _registry, _counter, recorder = make_recorder(interval=1.0, sink=lines.append)
        log = EventLog()
        recorder.attach(log)
        far = 2.0**53
        log.emit(EventKind.CHECK, "A", at=far - 4.0)  # start
        log.emit(EventKind.CHECK, "A", at=far + 8.0)
        stamps = [json.loads(line)["at"] for line in lines]
        # One row per watermark while the clock still advances: far + 1
        # rounds back to far, so the watermark then jumps past the event.
        assert stamps == [far - 4.0, far - 3.0, far - 2.0, far - 1.0, far]
        assert recorder.next_watermark > far + 8.0
        log.emit(EventKind.CHECK, "A", at=far + 9.0)
        assert len(lines) == 5
        log.emit(EventKind.CHECK, "A", at=2.0**60)
        stamps = [json.loads(line)["at"] for line in lines]
        assert 5 < len(stamps) < 10 and stamps == sorted(stamps)
        assert recorder.next_watermark > 2.0**60

    def test_out_of_order_events_never_sample_backwards(self):
        _registry, _counter, recorder = make_recorder(interval=1.0)
        log = EventLog()
        recorder.attach(log)
        log.emit(EventKind.CHECK, "A", at=5.0)
        # A lane-folded event with an earlier timestamp must not rewind
        # the watermark or emit a retroactive row.
        log.emit(EventKind.CHECK, "A", at=1.0)
        assert [row["at"] for row in recorder.rows] == [5.0]

    def test_forced_samples_on_regime_changes(self):
        assert FORCED_SAMPLE_KINDS == {
            EventKind.REFINE,
            EventKind.BREAKER,
            EventKind.BATCH,
        }
        _registry, _counter, recorder = make_recorder(interval=100.0)
        log = EventLog()
        recorder.attach(log)
        log.emit(EventKind.CHECK, "A", at=0.0)
        log.emit(EventKind.REFINE, "REF", at=0.5)
        log.emit(EventKind.BREAKER, "GEN", at=0.6)
        log.emit(EventKind.BATCH, "BATCH", at=0.7)
        log.emit(EventKind.CHECK, "A", at=0.8)  # no watermark, no force
        assert [row["trigger"] for row in recorder.rows] == [
            "start",
            "refine",
            "breaker",
            "batch",
        ]

    def test_detach_stops_sampling(self):
        _registry, _counter, recorder = make_recorder()
        log = EventLog()
        recorder.attach(log)
        log.emit(EventKind.CHECK, "A", at=0.0)
        assert recorder.detach(log)
        log.emit(EventKind.CHECK, "A", at=5.0)
        assert len(recorder.rows) == 1

    def test_interval_must_be_positive(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="interval"):
            SeriesRecorder(registry, interval=0.0)


class TestSampling:
    def test_sink_receives_every_row(self):
        lines = []
        _registry, _counter, recorder = make_recorder(sink=lines.append)
        log = EventLog()
        recorder.attach(log)
        log.emit(EventKind.CHECK, "A", at=0.0)
        assert recorder.sample(1.5, "final") is None
        # A sink takes each row as its JSON line; no row dict is kept.
        assert recorder.rows == []
        assert [json.loads(line) for line in lines] == [
            {"at": 0.0, "trigger": "start", "metrics": {"ticks_total": 0.0}},
            {"at": 1.5, "trigger": "final", "metrics": {"ticks_total": 0.0}},
        ]

    def test_labelled_instruments_render_prometheus_style(self):
        registry = MetricsRegistry()
        registry.counter("calls_total", "c", operator="GEN").inc()
        recorder = SeriesRecorder(registry)
        row = recorder.sample(0.0)
        assert row["metrics"] == {"calls_total{operator=GEN}": 1.0}

    def test_instrument_cache_tracks_new_registrations(self):
        """Instruments registered *after* the first sample still appear.

        The recorder caches the instrument sweep against the registry's
        registration version; a new counter bumps the version and must
        show up in the next row.
        """
        registry, counter, recorder = make_recorder()
        first = recorder.sample(0.0)
        assert set(first["metrics"]) == {"ticks_total"}
        registry.gauge("depth", "test gauge").set(4.0)
        counter.inc()
        second = recorder.sample(1.0)
        assert second["metrics"] == {"ticks_total": 1.0, "depth": 4.0}

    def test_histograms_are_not_sampled(self):
        registry = MetricsRegistry()
        registry.histogram("lat_seconds", "h").observe(0.5)
        registry.counter("n_total", "c").inc()
        recorder = SeriesRecorder(registry)
        # Histograms have no single scalar value; only counters/gauges
        # become series columns.
        assert set(recorder.sample(0.0)["metrics"]) == {"n_total"}


class TestNonFiniteTimestamps:
    """An event at ``inf`` or ``nan`` is skipped: it samples nothing and
    moves no watermark, so a ledgered run still ends with bounded rows."""

    @pytest.fixture
    def bounded(self, monkeypatch):
        # A recorder that loops on such an event writes rows without end;
        # fail after a few hundred instead of filling memory and disk.
        record = SeriesRecorder._record
        calls = []

        def guarded(recorder, at, trigger):
            calls.append(at)
            assert len(calls) < 200, "unbounded sampling"
            return record(recorder, at, trigger)

        monkeypatch.setattr(SeriesRecorder, "_record", guarded)

    @pytest.mark.parametrize("first", [0.0, float("nan"), float("inf")])
    def test_ledgered_log_with_inf_and_nan_events(self, tmp_path, bounded, first):
        from repro.obs.ledger import RunLedger

        log = EventLog()
        ledger = RunLedger.create(tmp_path / "runs")
        ledger.open(log)
        log.emit(EventKind.CHECK, "A", at=first)
        for at in (0.5, float("inf"), float("nan"), 1.5, float("-inf")):
            log.emit(EventKind.CHECK, "A", at=at)
            log.emit(EventKind.REFINE, "R", at=at)
        log.emit(EventKind.CHECK, "A", at=2.5)
        ledger.finalize()
        rows = [
            json.loads(line)
            for line in (ledger.path / "series.jsonl").read_text().splitlines()
        ]
        stamps = [(row["at"], row["trigger"]) for row in rows]
        # Only the finite events sample; a non-finite first event sets no
        # start, so the series starts (and its watermarks fall) at 0.5.
        zero = 0.0 if first == 0.0 else 0.5
        assert stamps == [
            (zero, "start"),
            (0.5, "refine"),
            (zero + 1.0, "watermark"),
            (1.5, "refine"),
            (zero + 2.0, "watermark"),
            (2.5, "final"),
        ]
        assert not [event for event in log if event.kind is EventKind.ERROR]

    def test_nan_first_event_does_not_poison_the_watermark(self):
        _registry, _counter, recorder = make_recorder(interval=1.0)
        log = EventLog()
        recorder.attach(log)
        log.emit(EventKind.CHECK, "A", at=float("nan"))
        log.emit(EventKind.CHECK, "A", at=0.0)
        log.emit(EventKind.CHECK, "A", at=2.0)
        assert [row["at"] for row in recorder.rows] == [0.0, 1.0, 2.0]
        assert recorder.next_watermark == 3.0
