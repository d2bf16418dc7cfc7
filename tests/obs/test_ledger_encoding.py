"""The ledger's line encoders against ``json.dumps``, byte for byte.

``events.jsonl`` lines come from one ``%``-template per (kind, operator)
and ``series.jsonl`` rows are joined from per-metric texts kept across
rows; both must equal what ``json.dumps`` writes for the same record.
The last class pins the four derived files of a small ledgered
refinement loop, so any drift in what the ledger writes shows up here.
"""

from __future__ import annotations

import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GEN, REF, Pipeline
from repro.core.entry import RefAction
from repro.core.state import ExecutionState
from repro.data import make_tweet_corpus
from repro.llm import SimulatedLLM
from repro.obs import Ledger, ObsCollector
from repro.obs.ledger import RunLedger
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import SeriesRecorder
from repro.runtime.events import Event, EventKind
from repro.runtime.executor import Executor
from repro.runtime.incremental import RefinementLoop
from repro.runtime.options import RuntimeOptions
from repro.runtime.result_cache import ResultCache
from repro.runtime.tracing import _encode_value

#: shared float objects, so consecutive events and rows reuse one ``at``
#: or one value object, as a virtual clock hands them out.
FLOAT_POOL = [0.0, -0.0, 1.5, 1e-7, 1e16, 1e22, math.nan, math.inf, -math.inf]
FLOATS = st.one_of(st.sampled_from(FLOAT_POOL), st.floats())
INTS = st.one_of(
    st.integers(), st.sampled_from([2**53, 2**53 + 1, -(2**63), 10**30])
)
TEXT = st.text(alphabet='"\\%é☃\n{},=x', max_size=6)
ENUMS = st.sampled_from(list(EventKind) + list(RefAction))
SCALARS = st.one_of(st.none(), st.booleans(), INTS, FLOATS, TEXT, ENUMS)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple)
    ),
    max_leaves=6,
)
OPERATORS = st.one_of(
    st.sampled_from(['GEN["a"]', "CHECK[conf < 50%]", "naïve ☃", ""]), TEXT
)


class TestEventLines:
    def test_a_stream_of_lines_equals_the_tagged_encoding(self, tmp_path):
        events = st.tuples(
            st.one_of(INTS, st.booleans()),
            st.sampled_from(list(EventKind)),
            OPERATORS,
            st.one_of(st.sampled_from(FLOAT_POOL + [3]), st.floats()),
            st.dictionaries(st.text(max_size=4), VALUES, max_size=4),
        )
        runs = iter(range(10**6))

        @settings(max_examples=200, deadline=None)
        @given(stream=st.lists(events, min_size=1, max_size=8))
        def lines_match(stream):
            # One ledger per stream: its templates and last ``at`` carry
            # over from line to line, as they do in a run.
            ledger = RunLedger(tmp_path, f"{next(runs):06d}")
            for seq, kind, operator, at, payload in stream:
                event = Event(seq, kind, operator, at, payload)
                expected = json.dumps(_encode_value(event.to_dict()))
                assert ledger._line(event) == expected

        lines_match()


class TestSeriesRows:
    def test_every_row_equals_json_dumps_while_the_registry_grows(self):
        labels = st.dictionaries(st.sampled_from(["a", "b", "k"]), TEXT, max_size=2)
        steps = st.lists(
            st.one_of(
                st.tuples(
                    st.just("inc"),
                    st.sampled_from(["c_one", "c_two"]),
                    labels,
                    st.one_of(
                        st.sampled_from([0.0, 1.0, 2.5, math.inf]),
                        st.floats(min_value=0.0),
                    ),
                ),
                st.tuples(
                    st.just("set"), st.sampled_from(["g_one", "g_two"]), labels, FLOATS
                ),
                st.tuples(
                    st.just("pull"), st.sampled_from(["p_one", "p_two"]), labels, FLOATS
                ),
                st.tuples(st.just("row"), st.just(""), st.just({}), FLOATS),
            ),
            min_size=1,
            max_size=12,
        )

        @settings(max_examples=200, deadline=None)
        @given(steps=steps)
        def rows_match(steps):
            registry = MetricsRegistry()
            sunk: list[dict] = []
            recorder = SeriesRecorder(registry, sink=sunk.append)
            for op, name, label_set, value in steps:
                if op == "inc":
                    registry.counter(name, **label_set).inc(value)
                elif op == "set":
                    registry.gauge(name, **label_set).set(value)
                elif op == "pull":
                    # A new equal float per read, as a pull callback returns.
                    registry.gauge(name, **label_set).set_function(
                        lambda value=value: float(repr(value))
                    )
                else:
                    row = recorder.sample(value, "manual")
                    assert recorder.last_line == json.dumps(row)
                    assert sunk[-1] is row
            row = recorder.sample(1.0, "final")
            assert recorder.last_line == json.dumps(row)

        rows_match()

    def test_labels_sharing_a_display_name_keep_the_dict_row(self):
        registry = MetricsRegistry()
        recorder = SeriesRecorder(registry)
        registry.counter("c", a="1,b=2").inc(1)
        registry.counter("c", a="1", b="2").inc(5)
        row = recorder.sample(0.0)
        # Children sort by label set, so {a: "1,b=2"} comes last and its
        # value wins, as in a dict built over every display name.
        assert row["metrics"] == {"c{a=1,b=2}": 1.0}
        assert recorder.last_line == json.dumps(row)


#: sha256 of the four derived ledger files of :func:`_ledgered_loop`, per
#: seed, as plain ``json.dumps`` of every record writes them.
PINNED = {
    7: {
        "attribution.json": (
            "614fa1d521381705028b0925044dd86c77979b7a4a50d64e2be49493d72cac2e"
        ),
        "events.jsonl": (
            "10955e4bac8ca16da6cfaa375c025a4cd786dfe70b547b0f999e376a8f528f83"
        ),
        "report.json": (
            "98b92d3295c597cc123dc528864ede0647414f4ed47d670143c6ffea484fcbc8"
        ),
        "series.jsonl": (
            "5ad64c74878cb7ab469aae5c088e3bdbf8292b7a5b93e8eca2425e1450aa9758"
        ),
    },
    11: {
        "attribution.json": (
            "9ecfe54e6fa783996ef3f076343e53d4fb97f98b3aa1917a1b8d018f67e5352b"
        ),
        "events.jsonl": (
            "c7062cb62b145bfa81864fedaf0652d48e10ee36acc0497e7273f0a82b170f9a"
        ),
        "report.json": (
            "3989e00f15b2b0d02ac76ca64654bccce940a43dfea21bb47fcc03dfbf0dca7f"
        ),
        "series.jsonl": (
            "5261d8bd1bd3a0ced72f76a5504da974b234128467a976d922cf83be3bc0998f"
        ),
    },
}


def _ledgered_loop(root, seed: int) -> dict[str, str]:
    """A small Map -> Digest -> Filter refinement loop with the result
    cache, collector and ledger on; the sha256 of each derived file."""
    llm = SimulatedLLM("qwen2.5-7b-instruct", enable_prefix_cache=False)
    corpus = make_tweet_corpus(6, seed=seed)
    llm.bind_tweets(corpus)
    state = ExecutionState(model=llm, clock=llm.clock)
    state.prompts.create("map_p", "Summarize the tweet.\nTweet:\n{tweet}")
    state.prompts.create("digest_p", "Summary:\n{summary}\nGive the takeaway.")
    state.prompts.create(
        "filter_p", "Is the tweet negative? Answer yes or no.\nTweet:\n{tweet}"
    )
    operators = []
    for index, tweet in enumerate(corpus):
        item = {"tweet": tweet.text}
        operators += [
            GEN("summary", prompt="map_p", extra=item),
            GEN(f"takeaway_{index}", prompt="digest_p"),
            GEN(f"verdict_{index}", prompt="filter_p", extra=item, max_tokens=8),
        ]
    refiners = [
        REF("APPEND", hint, key="filter_p", function_name=f"f_focus_{index}")
        for index, hint in enumerate(
            ["Sarcasm counts as negative.", "Complaints count as negative."]
        )
    ]
    executor = Executor(
        options=RuntimeOptions(
            model=llm,
            clock=llm.clock,
            result_cache=ResultCache(),
            collector=ObsCollector(),
            ledger_dir=root,
            series_interval=2.0,
        )
    )
    RefinementLoop(
        executor,
        Pipeline(operators, name="pinned"),
        refiners=refiners,
        max_iterations=3,
    ).run(state=state)
    run = Ledger(root).latest()
    return {
        name: hashlib.sha256((run.path / name).read_bytes()).hexdigest()
        for name in PINNED[seed]
    }


class TestPinnedLedgerFiles:
    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_a_ledgered_loop_writes_the_pinned_bytes(self, tmp_path, seed):
        assert _ledgered_loop(tmp_path / "runs", seed) == PINNED[seed]
