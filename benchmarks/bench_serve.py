#!/usr/bin/env python
"""Multi-tenant serving benchmark: latency, throughput, shedding, identity.

Drives the :class:`~repro.serve.server.SpearServer` pool with the
deterministic synthetic traffic driver over the Table-3 tweet workload
(Map: summarize + Filter: negative sentiment) and reports three arms:

- **nominal** — 16 tenants each submitting exactly their queue limit at
  8 workers: zero sheds expected; reports simulated latency p50/p99,
  wall-clock throughput, and per-tenant cache warmth;
- **overload** — the same pool at 4× the admission limit: the server
  must *shed* the excess (exactly ``(4-1) × limit`` per tenant, a pure
  function of the config) rather than queue unboundedly or deadlock;
- **identity** — one non-interactive tenant's ledgered request compared
  against a standalone executor run of the same pipeline with ``spear
  diff --gate``: exit 0 proves serving adds zero behavioral drift.

Writes ``BENCH_serve.json`` at the repo root (or ``--output``) and exits
non-zero when any gate fails: nominal sheds, wrong overload shed count,
non-finite p99, or a failed identity diff.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py
    PYTHONPATH=src python benchmarks/bench_serve.py --tiny
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.cli import main as spear_main  # noqa: E402
from repro.core import GEN, Pipeline  # noqa: E402
from repro.data import make_tweet_corpus  # noqa: E402
from repro.llm.model import SimulatedLLM  # noqa: E402
from repro.runtime.clock import VirtualClock  # noqa: E402
from repro.runtime.executor import Executor  # noqa: E402
from repro.runtime.options import RuntimeOptions  # noqa: E402
from repro.runtime.result_cache import ResultCache  # noqa: E402
from repro.serve import ServeRequest, SpearServer  # noqa: E402
from repro.serve.traffic import (  # noqa: E402
    FILTER_PROMPT,
    MAP_PROMPT,
    PROFILE,
    TrafficConfig,
    build_demo_server,
    run_traffic,
)


def traffic_arm(config: TrafficConfig) -> dict:
    metrics = run_traffic(build_demo_server(config), config)
    sessions = metrics.pop("sessions")
    kv_hit_rates = [
        session["model"]["kv_cache"]["hit_rate"]
        for session in sessions.values()
        if "kv_cache" in session.get("model", {})
    ]
    if kv_hit_rates:
        metrics["mean_tenant_kv_hit_rate"] = round(
            sum(kv_hit_rates) / len(kv_hit_rates), 4
        )
    return metrics


def identity_arm(corpus_size: int, seed: int) -> dict:
    """Serve one request, run the same pipeline standalone, diff ledgers."""
    corpus = make_tweet_corpus(corpus_size, seed=seed)
    tweet = corpus[0]
    pipeline = Pipeline(
        [GEN("summary", prompt="map_p"), GEN("neg", prompt="filter_p")]
    )
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        server = SpearServer(
            profile=PROFILE,
            binder=lambda llm: llm.bind_tweets(corpus),
            workers=1,
            ledger_dir=str(root / "serve"),
        )
        server.register_pipeline(
            "summarize_filter",
            pipeline,
            prompts={"map_p": MAP_PROMPT, "filter_p": FILTER_PROMPT},
        )
        server.add_tenant("ident")
        with server:
            response = server.submit(
                ServeRequest(
                    tenant="ident",
                    pipeline="summarize_filter",
                    context={"tweet": tweet.text},
                )
            ).result()

        clock = VirtualClock()
        llm = SimulatedLLM(PROFILE, clock=clock)
        llm.bind_tweets(make_tweet_corpus(corpus_size, seed=seed))
        executor = Executor(
            options=RuntimeOptions(
                model=llm,
                clock=clock,
                result_cache=ResultCache(),
                ledger_dir=str(root / "solo"),
            )
        )
        state = executor.new_state()
        state.prompts.create("map_p", MAP_PROMPT)
        state.prompts.create("filter_p", FILTER_PROMPT)
        state.context.put("tweet", tweet.text, producer="serve")
        reference = executor.run(pipeline, state=state)

        outputs_match = response.ok and all(
            response.output(label) == reference.output(label)
            for label in ("summary", "neg")
        )
        (serve_run,) = sorted((root / "serve" / "ident").iterdir())
        (solo_run,) = sorted(
            p for p in (root / "solo").iterdir() if p.is_dir()
        )
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            exit_code = spear_main(
                ["diff", str(serve_run), str(solo_run), "--gate"]
            )
    return {
        "outputs_match": bool(outputs_match),
        "diff_gate_exit": int(exit_code),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tenants", type=int, default=16)
    parser.add_argument("--queue-limit", type=int, default=8)
    parser.add_argument("--workers", type=int, default=8)
    parser.add_argument("--overload", type=int, default=4)
    parser.add_argument("--corpus", type=int, default=32)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="CI smoke scale: 6 tenants, queue limit 3, 4 workers",
    )
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_serve.json"
    )
    args = parser.parse_args(argv)
    if args.tiny:
        args.tenants, args.queue_limit, args.workers = 6, 3, 4
        args.corpus = 16

    base = dict(
        tenants=args.tenants,
        queue_limit=args.queue_limit,
        workers=args.workers,
        corpus_size=args.corpus,
        seed=args.seed,
    )
    nominal = traffic_arm(TrafficConfig(**base))
    overload = traffic_arm(TrafficConfig(**base, overload=args.overload))
    identity = identity_arm(args.corpus, args.seed)

    expected_shed = (
        args.tenants * args.queue_limit * (args.overload - 1)
    )
    gates = {
        "nominal_shed_zero": nominal["shed"] == 0 and nominal["errors"] == 0,
        "nominal_p99_finite": math.isfinite(nominal["latency_p99_s"])
        and nominal["latency_p99_s"] > 0.0,
        "overload_sheds_exact_excess": overload["shed"] == expected_shed,
        "overload_serves_admitted": overload["served"]
        == args.tenants * args.queue_limit,
        "identity_outputs_match": identity["outputs_match"],
        "identity_diff_gate": identity["diff_gate_exit"] == 0,
    }
    payload = {
        "benchmark": "serve",
        "profile": PROFILE,
        "config": {**base, "overload": args.overload},
        "nominal": nominal,
        "overload": overload,
        "identity": identity,
        "gates": gates,
    }
    args.output.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.output}")
    print(
        f"nominal: {nominal['served']}/{nominal['submitted']} served, "
        f"p50 {nominal['latency_p50_s']}s p99 {nominal['latency_p99_s']}s, "
        f"{nominal['throughput_rps']} req/s"
    )
    print(
        f"overload x{args.overload}: {overload['served']} served, "
        f"{overload['shed']} shed ({overload['shed_rate'] * 100:.0f}%)"
    )
    print(
        f"identity: outputs_match={identity['outputs_match']} "
        f"diff_gate_exit={identity['diff_gate_exit']}"
    )
    failed = [name for name, passed in gates.items() if not passed]
    if failed:
        print(f"GATE FAILURES: {', '.join(failed)}", file=sys.stderr)
        return 1
    print("all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
