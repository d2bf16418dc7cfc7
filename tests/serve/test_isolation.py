"""Tenant-isolation guarantees: the acceptance bar for the serving layer.

Four properties, each structural rather than policed:

- **cache isolation** — tenants hit only their own radix KV cache
  partition and result cache; a second tenant running the
  exact same workload stays stone cold;
- **byte identity** — a tenant's outputs (and its ledger run, modulo
  host timestamps) are identical to a standalone executor run of the
  same pipeline, gated by ``spear diff --gate``;
- **ledger hygiene** — per-tenant ledger runs contain only that
  tenant's pipeline events, never SERVE events or another tenant's;
- **stress** — 8 tenants with interleaved bursts still yield
  per-tenant outputs equal to each tenant running alone.
"""

from __future__ import annotations

import json

from repro.cli import main as spear_main
from repro.core import GEN, Pipeline
from repro.data import make_tweet_corpus
from repro.llm.model import SimulatedLLM
from repro.runtime.clock import VirtualClock
from repro.runtime.executor import Executor
from repro.runtime.options import RuntimeOptions
from repro.runtime.result_cache import ResultCache
from repro.serve import ServeRequest, SpearServer
from repro.serve.traffic import FILTER_PROMPT, MAP_PROMPT, PROFILE

CORPUS_SIZE = 8
SEED = 7


def make_corpus():
    return make_tweet_corpus(CORPUS_SIZE, seed=SEED)


def make_server(**kwargs) -> SpearServer:
    corpus = make_corpus()
    kwargs.setdefault("profile", PROFILE)
    kwargs.setdefault("binder", lambda llm: llm.bind_tweets(corpus))
    server = SpearServer(**kwargs)
    server.register_pipeline(
        "summarize_filter",
        Pipeline(
            [GEN("summary", prompt="map_p"), GEN("neg", prompt="filter_p")]
        ),
        prompts={"map_p": MAP_PROMPT, "filter_p": FILTER_PROMPT},
    )
    server.corpus = corpus
    return server


def request_for(server, tenant: str, index: int = 0) -> ServeRequest:
    tweet = server.corpus[index % len(server.corpus)]
    return ServeRequest(
        tenant=tenant,
        pipeline="summarize_filter",
        context={"tweet": tweet.text},
    )


def standalone_run(tweet_text: str, *, ledger_dir=None, repeat: int = 1):
    """The reference arm: one fresh executor, same profile and prompts."""
    clock = VirtualClock()
    llm = SimulatedLLM(PROFILE, clock=clock)
    llm.bind_tweets(make_corpus())
    executor = Executor(
        options=RuntimeOptions(
            model=llm,
            clock=clock,
            result_cache=ResultCache(),
            ledger_dir=str(ledger_dir) if ledger_dir else None,
        )
    )
    base = executor.new_state()
    base.prompts.create("map_p", MAP_PROMPT)
    base.prompts.create("filter_p", FILTER_PROMPT)
    pipeline = Pipeline(
        [GEN("summary", prompt="map_p"), GEN("neg", prompt="filter_p")]
    )
    results = []
    for _ in range(repeat):
        state = base.fork()
        state.context.put("tweet", tweet_text, producer="serve")
        results.append(executor.run(pipeline, state=state))
    return results


class TestCacheIsolation:
    def test_second_tenant_same_workload_stays_cold(self):
        server = make_server()
        server.add_tenant("a")
        server.add_tenant("b")
        with server:
            first_a = server.submit(request_for(server, "a")).result()
            cold_a = server.session("a").partition.snapshot()
            # tenant B runs the *identical* request: if partitions leaked,
            # B would see A's warm prefix and hit more blocks than a cold
            # run does (the two GENs share the scaffold, so a cold run
            # still has some intra-request hits — B must match it exactly)
            first_b = server.submit(request_for(server, "b")).result()
            cold_b = server.session("b").partition.snapshot()
            warm_a = server.submit(request_for(server, "a")).result()
        assert cold_b["kv_cache"] == cold_a["kv_cache"]
        assert first_b.elapsed == first_a.elapsed
        # whereas A's own repeat genuinely warms A's partition
        warm_part = server.session("a").partition.snapshot()
        assert (
            warm_part["kv_cache"]["block_hits"]
            > 2 * cold_a["kv_cache"]["block_hits"]
        )
        assert warm_a.elapsed < first_a.elapsed

    def test_result_cache_never_crosses_tenants(self):
        server = make_server()
        server.add_tenant("a")
        server.add_tenant("b")
        with server:
            server.submit(request_for(server, "a")).result()
            repeat_b = server.submit(request_for(server, "b")).result()
        cache_b = server.session("b").executor.options.result_cache
        assert cache_b.snapshot()["hits"] == 0
        assert repeat_b.ok

    def test_prompt_stores_are_disjoint(self):
        server = make_server()
        server.add_tenant("a")
        server.add_tenant("b")
        with server:
            server.submit(request_for(server, "a")).result()
            server.submit(request_for(server, "b")).result()
        store_a = server.session("a").state.prompts
        store_b = server.session("b").state.prompts
        assert store_a is not store_b
        store_a.create("private", "tenant-a only text")
        assert "private" not in store_b

    def test_partition_namespaces_match_tenants(self):
        server = make_server()
        server.add_tenant("a")
        server.add_tenant("b")
        with server:
            server.submit(request_for(server, "a")).result()
            server.submit(request_for(server, "b")).result()
        assert set(server.partitions.namespaces()) == {"a", "b"}


class TestByteIdentity:
    def test_tenant_output_matches_standalone(self):
        server = make_server()
        server.add_tenant("solo")
        with server:
            response = server.submit(request_for(server, "solo")).result()
        (reference,) = standalone_run(server.corpus[0].text)
        assert response.output("summary") == reference.output("summary")
        assert response.output("neg") == reference.output("neg")

    def test_repeat_requests_match_standalone_repeats(self):
        server = make_server()
        server.add_tenant("solo")
        with server:
            responses = [
                server.submit(request_for(server, "solo")).result()
                for _ in range(3)
            ]
        references = standalone_run(server.corpus[0].text, repeat=3)
        for response, reference in zip(responses, references):
            assert response.output("summary") == reference.output("summary")
            assert response.output("neg") == reference.output("neg")

    def test_repeat_requests_bit_identical_to_standalone(self, tmp_path):
        # Sessions run GEN on the direct path a default executor uses:
        # outputs, per-request elapsed and the ledger are bit-identical.
        server = make_server(ledger_dir=str(tmp_path / "serve"))
        server.add_tenant("solo")
        with server:
            responses = [
                server.submit(request_for(server, "solo")).result()
                for _ in range(3)
            ]
        references = standalone_run(
            server.corpus[0].text, ledger_dir=tmp_path / "solo", repeat=3
        )
        for response, reference in zip(responses, references):
            assert response.output("summary") == reference.output("summary")
            assert response.output("neg") == reference.output("neg")
            assert repr(response.report["elapsed"]) == repr(reference.elapsed)
            assert response.report == reference.report
        serve_runs = sorted((tmp_path / "serve" / "solo").iterdir())
        solo_runs = sorted(p for p in (tmp_path / "solo").iterdir() if p.is_dir())
        assert len(serve_runs) == len(solo_runs) == 3
        for serve_run, solo_run in zip(serve_runs, solo_runs):
            assert spear_main(["diff", str(serve_run), str(solo_run), "--gate"]) == 0

    def test_ledger_diff_gate_passes_vs_standalone(self, tmp_path):
        server = make_server(ledger_dir=str(tmp_path / "serve"))
        server.add_tenant("solo")
        with server:
            response = server.submit(request_for(server, "solo")).result()
        assert response.ok
        standalone_run(server.corpus[0].text, ledger_dir=tmp_path / "solo")
        (serve_run,) = sorted((tmp_path / "serve" / "solo").iterdir())
        solo_runs = sorted(
            p for p in (tmp_path / "solo").iterdir() if p.is_dir()
        )
        exit_code = spear_main(
            ["diff", str(serve_run), str(solo_runs[0]), "--gate"]
        )
        assert exit_code == 0


class TestLedgerHygiene:
    def test_tenant_ledgers_never_see_serve_or_foreign_events(self, tmp_path):
        server = make_server(ledger_dir=str(tmp_path))
        server.add_tenant("a")
        server.add_tenant("b")
        with server:
            server.submit(request_for(server, "a")).result()
            server.submit(request_for(server, "b", 1)).result()
        for tenant, other in (("a", "b"), ("b", "a")):
            (run_dir,) = sorted((tmp_path / tenant).iterdir())
            events = [
                json.loads(line)
                for line in (run_dir / "events.jsonl")
                .read_text(encoding="utf-8")
                .splitlines()
            ]
            assert events, f"tenant {tenant} ledger run is empty"
            kinds = {event["kind"] for event in events}
            assert "serve" not in kinds
            # the other tenant's tweet text must never leak into this
            # tenant's ledger (tenant a served tweet 0, tenant b tweet 1)
            other_text = server.corpus[1 if other == "b" else 0].text
            dump = json.dumps(events)
            assert other_text not in dump
            manifest = json.loads(
                (run_dir / "manifest.json").read_text(encoding="utf-8")
            )
            assert manifest["tenant"] == tenant

    def test_manifest_records_request_identity(self, tmp_path):
        server = make_server(ledger_dir=str(tmp_path))
        server.add_tenant("a")
        with server:
            response = server.submit(request_for(server, "a")).result()
        (run_dir,) = sorted((tmp_path / "a").iterdir())
        manifest = json.loads(
            (run_dir / "manifest.json").read_text(encoding="utf-8")
        )
        assert manifest["runner"] == "SpearServer"
        assert manifest["request_id"] == response.request_id


class TestStressIsolation:
    def test_eight_tenants_interleaved(self):
        server = make_server()
        tenants = [f"t{i}" for i in range(8)]
        for tenant in tenants:
            server.add_tenant(tenant)
        futures = {tenant: [] for tenant in tenants}
        # interleave submissions round-robin across the tenants
        for round_index in range(3):
            for t_index, tenant in enumerate(tenants):
                futures[tenant].append(
                    server.submit(
                        request_for(server, tenant, t_index + round_index)
                    )
                )
        with server:
            responses = {
                tenant: [f.result() for f in fs]
                for tenant, fs in futures.items()
            }
        for t_index, tenant in enumerate(tenants):
            assert all(r.ok for r in responses[tenant])
            for round_index, response in enumerate(responses[tenant]):
                tweet = server.corpus[
                    (t_index + round_index) % len(server.corpus)
                ]
                (reference,) = standalone_run(tweet.text)
                # interleaved with seven other tenants, every tenant produces the
                # exact bytes it would have produced running alone
                assert response.output("summary") == reference.output(
                    "summary"
                ), f"{tenant} diverged when interleaved"

    def test_stress_run_is_deterministic_in_sim_time(self):
        def drive():
            server = make_server()
            for i in range(8):
                server.add_tenant(f"t{i}")
            futures = [
                server.submit(request_for(server, f"t{i}", j))
                for j in range(2)
                for i in range(8)
            ]
            with server:
                results = [f.result() for f in futures]
            clocks = {
                f"t{i}": server.session(f"t{i}").clock.now for i in range(8)
            }
            return [r.output("summary") for r in results], clocks

        outputs_one, clocks_one = drive()
        outputs_two, clocks_two = drive()
        assert outputs_one == outputs_two
        assert clocks_one == clocks_two
