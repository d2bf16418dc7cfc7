"""Serving-pool tests: request lifecycle, shedding, policy plumbing.

Tenant-isolation guarantees live in ``test_isolation.py``; this module
covers the server mechanics — registration, submission, typed
responses, deterministic load shedding, the breaker path, SERVE
observability, and per-tenant request order.
"""

from __future__ import annotations

import logging
import math
import sys
import threading
import warnings
from collections import Counter
from dataclasses import replace

import pytest

from repro.core import GEN, REF, Pipeline, RefAction
from repro.data import make_tweet_corpus
from repro.errors import RateLimitError, SpearError
from repro.obs.collector import ObsCollector
from repro.obs.metrics import MetricsRegistry
from repro.resilience import BreakerPolicy, ShedPolicy
from repro.runtime.events import EventKind
from repro.serve import ServeRequest, SpearServer, TenantConfig
from repro.serve.traffic import (
    MAP_PROMPT,
    PROFILE,
    TrafficConfig,
    build_demo_server,
    run_traffic,
)

CORPUS_SIZE = 8
SEED = 7


def make_server(**kwargs) -> SpearServer:
    corpus = make_tweet_corpus(CORPUS_SIZE, seed=SEED)
    kwargs.setdefault("profile", PROFILE)
    kwargs.setdefault("binder", lambda llm: llm.bind_tweets(corpus))
    server = SpearServer(**kwargs)
    server.register_pipeline(
        "summarize",
        Pipeline([GEN("summary", prompt="map_p")]),
        prompts={"map_p": MAP_PROMPT},
    )
    server.corpus = corpus
    return server


def request_for(server, tenant: str, index: int = 0) -> ServeRequest:
    tweet = server.corpus[index % len(server.corpus)]
    return ServeRequest(
        tenant=tenant, pipeline="summarize", context={"tweet": tweet.text}
    )


class TestServeBasics:
    def test_single_request_round_trip(self):
        server = make_server()
        server.add_tenant("acme")
        with server:
            response = server.submit(request_for(server, "acme")).result()
        assert response.ok
        assert response.status == "ok"
        assert response.tenant == "acme"
        assert response.request_id
        assert isinstance(response.output("summary"), str)
        assert response.report["runner"] == "run"
        assert response.elapsed > 0.0

    def test_elapsed_excludes_a_same_tenant_neighbours_time(self):
        # ``elapsed`` is the run's own measure: it must not absorb the
        # tenant's previous request (it used to read the tenant clock
        # before the request started).
        server = make_server(shed=ShedPolicy(queue_limit=40))
        server.add_tenant("acme")
        futures = [
            server.submit(request_for(server, "acme", index)) for index in range(40)
        ]
        with server:
            responses = [future.result(timeout=60) for future in futures]
        assert all(response.ok for response in responses)
        assert sum(r.elapsed for r in responses) == sum(
            r.report["elapsed"] for r in responses
        )
        assert [r.elapsed for r in responses] == [
            r.report["elapsed"] for r in responses
        ]

    def test_unknown_tenant_rejected(self):
        server = make_server()
        with pytest.raises(SpearError, match="unknown tenant"):
            server.submit(request_for(server, "ghost"))

    def test_auto_tenants_registers_on_first_submit(self):
        server = make_server(auto_tenants=True)
        with server:
            response = server.submit(request_for(server, "walk-in")).result()
        assert response.ok
        assert "walk-in" in server.tenants()

    def test_unknown_pipeline_rejected(self):
        server = make_server()
        server.add_tenant("acme")
        with pytest.raises(SpearError, match="unknown pipeline"):
            server.submit(
                ServeRequest(tenant="acme", pipeline="nope", context={})
            )

    def test_add_tenant_accepts_config_and_overrides(self):
        server = make_server()
        config = server.add_tenant("a", priority="interactive")
        assert config.priority == "interactive"
        explicit = server.add_tenant(TenantConfig(name="b", deadline_s=2.0))
        assert explicit.deadline_s == 2.0
        with pytest.raises(TypeError):
            server.add_tenant(TenantConfig(name="c"), priority="bulk")

    def test_items_fan_out_returns_batch_protocol(self):
        server = make_server()
        server.add_tenant("acme")
        items = [{"tweet": tweet.text} for tweet in server.corpus[:3]]
        with server:
            response = server.submit(
                ServeRequest(tenant="acme", pipeline="summarize", items=items)
            ).result()
        assert response.ok
        outputs = response.output("summary")
        assert len(outputs) == 3 and all(outputs)
        assert response.report["runner"] == "batch"

    def test_error_in_pipeline_yields_error_response(self):
        server = make_server()
        server.add_tenant("acme")
        with server:
            response = server.submit(
                ServeRequest(tenant="acme", pipeline="summarize", context={})
            ).result()
            # No tweet bound: the GEN still runs, but an unknown-prompt-key
            # style failure is what we'd surface; either way the pool stays up.
            assert response.status in ("ok", "error")
            assert server.submit(request_for(server, "acme")).result().ok

    def test_shutdown_drains_unstarted_requests_as_errors(self):
        server = make_server()
        server.add_tenant("acme")
        futures = [server.submit(request_for(server, "acme", i)) for i in range(3)]
        server.start()
        server.shutdown()
        statuses = {future.result().status for future in futures}
        assert statuses <= {"ok", "error"}
        # pending drained back to zero either way
        assert server.session("acme").pending == 0

    def test_shutdown_is_terminal(self):
        server = make_server()
        server.add_tenant("acme")
        with server:
            assert server.submit(request_for(server, "acme")).result(timeout=60).ok
        assert not server._dispatcher.is_alive()
        logged = len(server.events)
        for call in (
            lambda: server.submit(request_for(server, "acme", 1)),
            lambda: server.serve([request_for(server, "acme", 2)]),
            server.start,
        ):
            with pytest.raises(SpearError, match="shut down|running server"):
                call()
        # nothing admitted, counted or logged after shutdown
        assert server.snapshot()["queued"] == server.session("acme").pending == 0
        assert server.session("acme").shed_count == 0
        assert len(server.events) == logged

    def test_unstarted_server_refuses_serve_and_shuts_down_its_queue(self):
        server = make_server()
        server.add_tenant("acme")
        with pytest.raises(SpearError, match="running server"):
            server.serve([request_for(server, "acme")])
        assert server.session("acme").pending == 0
        future = server.submit(request_for(server, "acme"))
        server.shutdown()
        assert future.result(timeout=5).status == "error"
        assert server.snapshot()["queued"] == server.session("acme").pending == 0


class TestLoadShedding:
    def test_burst_over_limit_sheds_deterministically(self):
        server = make_server(shed=ShedPolicy(queue_limit=2, retry_after_s=3.0))
        server.add_tenant("acme")
        admitted, shed = [], []
        for index in range(6):
            try:
                admitted.append(server.submit(request_for(server, "acme", index)))
            except RateLimitError as error:
                shed.append(error)
        assert len(admitted) == 2
        assert len(shed) == 4
        assert all(error.retry_after == 3.0 for error in shed)
        with server:
            assert all(f.result().ok for f in admitted)
        snapshot = server.session("acme").snapshot()
        assert snapshot["completed"] == 2
        assert snapshot["shed"] == 4

    def test_shed_recorded_as_serve_events(self):
        server = make_server(shed=ShedPolicy(queue_limit=1))
        server.add_tenant("acme")
        server.submit(request_for(server, "acme"))
        with pytest.raises(RateLimitError):
            server.submit(request_for(server, "acme", 1))
        shed_events = [
            event
            for event in server.events
            if event.kind is EventKind.SERVE
            and event.payload.get("status") == "shed"
        ]
        assert len(shed_events) == 1
        assert shed_events[0].payload["reason"] == "queue_full"
        assert shed_events[0].payload["tenant"] == "acme"
        with server:
            pass

    def test_per_tenant_shed_policy_override(self):
        server = make_server(shed=ShedPolicy(queue_limit=1))
        server.add_tenant(TenantConfig(name="vip", shed=ShedPolicy(queue_limit=8)))
        server.add_tenant("basic")
        for index in range(4):
            server.submit(request_for(server, "vip", index))
        server.submit(request_for(server, "basic", 0))
        with pytest.raises(RateLimitError):
            server.submit(request_for(server, "basic", 1))
        with server:
            pass
        assert server.session("vip").shed_count == 0
        assert server.session("basic").shed_count == 1

    def test_breaker_opens_after_repeated_sheds(self):
        policy = ShedPolicy(
            queue_limit=1,
            breaker=BreakerPolicy(failure_threshold=2, cooldown_s=60.0),
        )
        server = make_server(shed=policy)
        server.add_tenant("acme")
        server.submit(request_for(server, "acme"))
        reasons = []
        for index in range(3):
            with pytest.raises(RateLimitError) as excinfo:
                server.submit(request_for(server, "acme", index + 1))
            reasons.append(str(excinfo.value))
        assert "queue_full" in reasons[0]
        assert "queue_full" in reasons[1]
        # two failures tripped the breaker; the third shed is the open circuit
        assert "breaker_open" in reasons[2]
        with server:
            pass

    def test_serve_convenience_marks_sheds_in_band(self):
        server = make_server(shed=ShedPolicy(queue_limit=1, retry_after_s=2.0))
        server.add_tenant("acme")
        requests = [request_for(server, "acme", index) for index in range(3)]
        server.start()
        responses = server.serve(requests)
        server.shutdown()
        assert [r.status for r in responses].count("shed") >= 1
        shed = next(r for r in responses if r.status == "shed")
        assert shed.retry_after == 2.0
        assert shed.output("summary") is None


    def test_shed_error_carries_the_recorded_id(self):
        server = make_server(shed=ShedPolicy(queue_limit=1))
        server.add_tenant("acme")
        server.submit(request_for(server, "acme"))
        errors = []
        for request in (
            request_for(server, "acme", 1),
            replace(request_for(server, "acme", 2), request_id="mine"),
        ):
            with pytest.raises(RateLimitError) as excinfo:
                server.submit(request)
            errors.append(excinfo.value.request_id)
        recorded = [
            event.payload["request_id"]
            for event in server.events
            if event.kind is EventKind.SERVE
            and event.payload.get("status") == "shed"
        ]
        assert errors == recorded == ["acme-1", "mine"]
        with server:
            pass

    def test_shed_rows_keep_their_id(self, monkeypatch):
        """Auto-id requests shed inside ``serve`` answer with the id their
        SERVE shed event recorded, not ``"?"``."""
        from repro.serve.session import TenantSession

        config = TrafficConfig(tenants=1, queue_limit=1, corpus_size=CORPUS_SIZE)
        server = build_demo_server(config)
        # Hold the first request in execution until all four are submitted,
        # so the queue is full for the other three.
        gate = threading.Event()
        execute = TenantSession.execute

        def gated(self, *args, **kwargs):
            gate.wait(timeout=10)
            return execute(self, *args, **kwargs)

        submitted = []
        submit = server.submit

        def counting(request):
            try:
                return submit(request)
            finally:
                submitted.append(request)
                if len(submitted) == 4:
                    gate.set()

        monkeypatch.setattr(TenantSession, "execute", gated)
        monkeypatch.setattr(server, "submit", counting)
        tenant = config.tenant_names()[0]
        requests = [
            ServeRequest(
                tenant=tenant,
                pipeline="summarize",
                context={"tweet": server.corpus[index].text},
            )
            for index in range(4)
        ]
        with server:
            responses = server.serve(requests)
        assert [r.status for r in responses] == ["ok", "shed", "shed", "shed"]
        shed_ids = [
            event.payload["request_id"]
            for event in server.events
            if event.kind is EventKind.SERVE
            and event.payload.get("status") == "shed"
        ]
        assert [r.request_id for r in responses[1:]] == shed_ids
        assert len(set(shed_ids)) == 3 and "?" not in shed_ids


class TestServeObservability:
    def test_collector_rolls_serve_metrics(self):
        registry = MetricsRegistry()
        server = make_server(
            collector=ObsCollector(registry), shed=ShedPolicy(queue_limit=1)
        )
        server.add_tenant("acme")
        future = server.submit(request_for(server, "acme"))
        with pytest.raises(RateLimitError):
            server.submit(request_for(server, "acme", 1))
        with server:
            future.result()
        assert registry.sum_counter("spear_serve_requests_total") == 2.0
        assert registry.sum_counter("spear_serve_shed_total") == 1.0
        latency = registry.get("spear_serve_latency_seconds", tenant="acme")
        assert latency is not None and latency.count == 1

    def test_serve_events_carry_latency_and_depth(self):
        server = make_server()
        server.add_tenant("acme")
        with server:
            server.submit(request_for(server, "acme")).result()
        (event,) = [e for e in server.events if e.kind is EventKind.SERVE]
        assert event.payload["status"] == "ok"
        assert event.payload["elapsed"] > 0.0
        assert event.payload["queue_depth"] == 0

    def test_no_ledger_builds_no_manifest(self, monkeypatch):
        import repro.obs.ledger as ledger_module

        def refuse(*_args, **_kwargs):
            raise AssertionError("manifest built without a ledger")

        monkeypatch.setattr(ledger_module, "describe_pipeline", refuse)
        monkeypatch.setattr(ledger_module, "describe_options", refuse)
        server = make_server()
        server.add_tenant("acme")
        with server:
            response = server.submit(request_for(server, "acme")).result()
        assert response.ok

    def test_pool_snapshot_aggregates_sessions_and_partitions(self):
        server = make_server()
        server.add_tenant("a")
        server.add_tenant("b")
        with server:
            server.submit(request_for(server, "a")).result()
            server.submit(request_for(server, "b")).result()
        snapshot = server.snapshot()
        assert snapshot["tenants"] == 2
        assert set(snapshot["sessions"]) == {"a", "b"}
        assert set(snapshot["partitions"]["partitions"]) == {"a", "b"}


class TestServePolicyWarning:
    def test_no_warning_when_scheduler_enabled(self):
        # Request priority/deadline order admission; nothing warns.
        server = make_server()
        server.add_tenant("acme")
        with server, warnings.catch_warnings():
            warnings.simplefilter("error")
            response = server.submit(
                ServeRequest(
                    tenant="acme",
                    pipeline="summarize",
                    context={"tweet": server.corpus[0].text},
                    deadline_s=5.0,
                    priority="interactive",
                )
            ).result()
        assert response.ok
        assert EventKind.SCHED not in [e.kind for e in response.result.events]

    def test_clean_pipeline_registers_strict_without_warnings(self):
        server = SpearServer()
        clean = Pipeline(
            [
                REF(RefAction.CREATE, "Summarize the ticket.", key="qa"),
                GEN("answer", prompt="qa"),
            ],
            name="serve_clean",
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            server.register_pipeline("clean", clean, prompts={})
        assert [str(warning.message) for warning in caught] == []

    def test_scheduler_keyword_rejected(self):
        with pytest.raises(TypeError, match="scheduler"):
            make_server(scheduler=True)
        with pytest.raises(TypeError, match="scheduler"):
            TrafficConfig(scheduler=False)


class TestTenantOrder:
    @pytest.mark.parametrize("workers, tenants, drains", [(2, 1, 200), (4, 3, 40)])
    def test_same_tenant_requests_complete_in_submission_order(
        self, workers, tenants, drains
    ):
        # Under a one-microsecond switch interval, a tenant's requests
        # still finish in the order they were queued: the one dispatcher
        # serves them in turn, and the accepted-but-unused ``workers``
        # keyword changes nothing about that.
        names = [f"t{index}" for index in range(tenants)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for drain in range(drains):
                server = make_server(workers=workers)
                completed: dict[str, list[int]] = {name: [] for name in names}
                futures = []
                for name in names:
                    server.add_tenant(name)
                for index in range(4):
                    for name in names:
                        future = server.submit(request_for(server, name, index))
                        order = completed[name]
                        future.add_done_callback(
                            lambda _, order=order, index=index: order.append(index)
                        )
                        futures.append(future)
                with server:
                    for future in futures:
                        assert future.result(timeout=60).ok
                assert completed == {name: [0, 1, 2, 3] for name in names}, drain
        finally:
            sys.setswitchinterval(previous)

    def test_dispatch_follows_rank_deadline_arrival_order(self):
        # Interleaved submissions to a stopped server.  The one dispatcher
        # serves them in the (rank, deadline, arrival) sort, so each
        # tenant (one rank and deadline) completes in submission order.
        keys = {"bulk": (2, math.inf), "int-late": (0, 5.0)}
        keys.update({"normal": (1, math.inf), "int-soon": (0, 2.0)})
        server = make_server()
        server.add_tenant("bulk", priority="bulk")
        server.add_tenant("int-late", priority="interactive", deadline_s=5.0)
        server.add_tenant("normal")
        server.add_tenant("int-soon", priority="interactive", deadline_s=2.0)
        futures = [
            server.submit(request_for(server, name, index))
            for index in range(3)
            for name in keys
        ]
        with server:
            responses = [future.result(timeout=60) for future in futures]
        arrival = enumerate(responses)
        expected = sorted(arrival, key=lambda r: (keys[r[1].tenant], r[0]))
        served = [
            event.payload["request_id"]
            for event in server.events
            if event.kind is EventKind.SERVE and event.payload["status"] == "ok"
        ]
        assert served == [response.request_id for _, response in expected]


class TestServerThreads:
    """The caller's threads and the dispatcher share the server only under
    its one condition: admission, ``events`` and the partition map."""

    def test_auto_request_ids_take_one_number_per_submit(self):
        server = make_server()
        server.add_tenant("t0")
        server.add_tenant("t1")
        futures = [
            server.submit(request_for(server, name, index))
            for index in range(2)
            for name in ("t0", "t1")
        ]
        with server:
            ids = [future.result(timeout=60).request_id for future in futures]
        assert ids == ["t0-0", "t1-1", "t0-2", "t1-3"]
        assert [event.payload["request_id"] for event in server.events] == ids

    def test_shutdown_from_a_done_callback(self, caplog):
        # The callback runs on the dispatcher, which must not join itself.
        server = make_server()
        server.add_tenant("acme")
        future = server.submit(request_for(server, "acme"))
        future.add_done_callback(lambda _: server.shutdown())
        with caplog.at_level(logging.DEBUG, logger="concurrent.futures"):
            server.start()
            assert future.result(timeout=60).ok
            server._dispatcher.join(timeout=60)
        assert not server._dispatcher.is_alive()
        assert not [r for r in caplog.records if r.name == "concurrent.futures"]
        with pytest.raises(SpearError, match="shut down"):
            server.submit(request_for(server, "acme", 1))

    def test_events_from_concurrent_submitters_are_one_total_order(self):
        registry = MetricsRegistry()
        server = make_server(
            shed=ShedPolicy(queue_limit=2), collector=ObsCollector(registry)
        )
        delivered: list[int] = []
        server.events.subscribe(lambda event: delivered.append(event.seq))
        tenants = [f"t{index}" for index in range(4)]
        for name in tenants:
            server.add_tenant(name)
        per_thread = 100
        admitted: dict[str, list] = {name: [] for name in tenants}
        start = threading.Barrier(len(tenants), timeout=30)

        def submitter(name):
            start.wait()
            for index in range(per_thread):
                request = replace(
                    request_for(server, name, index), request_id=f"{name}/{index}"
                )
                try:
                    future = server.submit(request)
                except RateLimitError:
                    continue
                admitted[name].append((request.request_id, future))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with server:
                threads = [
                    threading.Thread(target=submitter, args=(name,))
                    for name in tenants
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                for entries in admitted.values():
                    for _, future in entries:
                        assert future.result(timeout=60).ok
        finally:
            sys.setswitchinterval(previous)

        events = server.events.all()
        assert [event.seq for event in events] == list(range(len(events)))
        assert delivered == list(range(len(events)))
        assert registry.sum_counter("spear_serve_requests_total") == len(events)
        assert all(event.kind is EventKind.SERVE for event in events)
        ids = Counter(event.payload["request_id"] for event in events)
        expected = {
            f"{name}/{index}" for name in tenants for index in range(per_thread)
        }
        assert set(ids) == expected and set(ids.values()) == {1}
        for name in tenants:
            served = [
                event.payload["request_id"]
                for event in events
                if event.payload["tenant"] == name
                and event.payload["status"] == "ok"
            ]
            assert served == [request_id for request_id, _ in admitted[name]]

    def test_snapshot_while_tenants_auto_register(self):
        server = make_server(auto_tenants=True)
        stop = threading.Event()
        errors: list[BaseException] = []

        def snapshots():
            while not stop.is_set():
                try:
                    server.snapshot()
                except BaseException as error:  # noqa: BLE001 - reported below
                    errors.append(error)
                    return

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        reader = threading.Thread(target=snapshots)
        reader.start()
        try:
            for index in range(40):
                server.submit(request_for(server, f"auto-{index}"))
        finally:
            stop.set()
            reader.join(timeout=60)
            sys.setswitchinterval(previous)
        assert not errors
        assert server.snapshot()["partitions"]["namespaces"] == 40
        server.shutdown()


class TestTrafficDriver:
    def test_nominal_traffic_sheds_nothing(self):
        config = TrafficConfig(
            tenants=3, queue_limit=2, corpus_size=CORPUS_SIZE
        )
        metrics = run_traffic(build_demo_server(config), config)
        assert metrics["submitted"] == 6
        assert metrics["served"] == 6
        assert metrics["shed"] == 0
        assert metrics["errors"] == 0
        assert metrics["latency_p99_s"] > 0.0

    def test_overload_sheds_the_exact_excess(self):
        config = TrafficConfig(
            tenants=3,
            queue_limit=2,
            overload=4,
            corpus_size=CORPUS_SIZE,
        )
        metrics = run_traffic(build_demo_server(config), config)
        assert metrics["submitted"] == 24
        assert metrics["served"] == 6
        # exactly (overload - 1) * limit sheds per tenant, no deadlock
        assert metrics["shed"] == 18
        assert metrics["shed_rate"] == 0.75

    def test_six_tenant_pool_sheds_exactly_the_overload_excess(self):
        """6 tenants, queue limit 3: nominal traffic sheds
        nothing; 4x overload sheds (4 - 1) x 3 per tenant, serving the
        admitted 3 each."""
        base = dict(tenants=6, queue_limit=3, corpus_size=16)
        nominal_config = TrafficConfig(**base)
        nominal = run_traffic(build_demo_server(nominal_config), nominal_config)
        assert (nominal["shed"], nominal["errors"]) == (0, 0)
        assert math.isfinite(nominal["latency_p99_s"])
        assert nominal["latency_p99_s"] > 0.0
        overload_config = TrafficConfig(**base, overload=4)
        overload = run_traffic(build_demo_server(overload_config), overload_config)
        assert overload["shed"] == 6 * 3 * 3
        assert overload["served"] == 6 * 3

    def test_traffic_metrics_are_deterministic_in_sim_time(self):
        config = TrafficConfig(
            tenants=2, queue_limit=2, corpus_size=CORPUS_SIZE
        )
        first = run_traffic(build_demo_server(config), config)
        second = run_traffic(build_demo_server(config), config)
        assert first["latency_p50_s"] == second["latency_p50_s"]
        assert first["latency_p99_s"] == second["latency_p99_s"]
        for name in config.tenant_names():
            assert (
                first["sessions"][name]["clock"]
                == second["sessions"][name]["clock"]
            )
