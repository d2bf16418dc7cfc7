#!/usr/bin/env python
"""Observability-overhead benchmark: the ledger must meter itself.

Runs a Table-3-style refinement loop — a per-item Map (summarize),
Enrich (keywords), Digest (takeaway) prefix feeding a short Filter
(negative sentiment) stage, five iterations, each boundary refining only
the filter prompt, prefix cache off — twice per repetition: once with the in-memory collector only (ledger off), once
with the persistent run ledger + time-series recorder enabled on top
(``RuntimeOptions(ledger_dir=...)``), so the measured delta is exactly
the ledger + series persistence.

Two overhead numbers are reported, in the two clocks this repo runs on:

- ``overhead_pct`` — **wall-time overhead on the virtual clock**, the
  currency every SPEAR report, span, and benchmark gate is denominated
  in (the result cache's speedup gate is on simulated time too).
  The ledger must never touch the virtual clock or perturb scheduling,
  so the acceptance gate is strict: < ``--max-overhead-pct`` (default
  5%; in practice the delta is exactly 0.0).
- ``host_overhead_pct`` — host CPU overhead of the persistence layer.
  On the simulated substrate every event costs only ~100µs of host
  compute, so per-event persistence shows up magnified here in a way it
  never would against real model latency; it is still gated
  (``--max-host-overhead-pct``, default 35%), to catch pathological
  hot-path regressions.  ``host_us_per_event`` is the portable number:
  the ledger's host cost per recorded event.

Also asserts the non-negotiable invariants of the obs layer:

- final ``(C, M)`` outputs are byte-identical with obs fully enabled
  (observability must never perturb the computation);
- the attribution report conserves tokens — every GEN token is charged
  to exactly one ``(prompt_key, version)`` and the attributed sums equal
  the run-report totals.

Writes ``BENCH_obs_overhead.json`` at the repo root (or ``--output``).

Usage::

    PYTHONPATH=src python tools/bench_obs_overhead.py
    PYTHONPATH=src python tools/bench_obs_overhead.py --tiny --reps 2 \
        --keep-runs obs-runs
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.core import GEN, REF, FunctionOperator, Pipeline  # noqa: E402
from repro.core.state import ExecutionState  # noqa: E402
from repro.data import make_tweet_corpus  # noqa: E402
from repro.experiments.common import (  # noqa: E402
    FILTER_NEG_INSTRUCTION,
    MAP_INSTRUCTION,
    SCAFFOLD,
)
from repro.llm.model import SimulatedLLM  # noqa: E402
from repro.obs import UNATTRIBUTED, Ledger, ObsCollector  # noqa: E402
from repro.runtime.executor import Executor  # noqa: E402
from repro.runtime.incremental import RefinementLoop  # noqa: E402
from repro.runtime.options import RuntimeOptions  # noqa: E402

PROFILE = "qwen2.5-7b-instruct"
ITERATIONS = 5

ENRICH_INSTRUCTION = (
    "List the key topics and entities the tweet mentions, one per line."
)
DIGEST_INSTRUCTION = (
    "Condense the summary above into a single factual takeaway sentence."
)

#: The per-iteration focus hints the refiner appends to the filter
#: prompt — the Table-3 "manual refinement" move, repeated.
REFINEMENT_HINTS = (
    "Focus on school-related content such as classes and exams.",
    "Also count complaints about teachers and homework as school-related.",
    "Ignore sarcasm-free positive mentions of school events.",
    "Treat exam-stress venting as negative school content.",
)


def build_state(n_items: int, seed: int) -> tuple[ExecutionState, list]:
    """Fresh model + corpus + prompts (cold everything) for one arm."""
    llm = SimulatedLLM(PROFILE, enable_prefix_cache=False)
    corpus = make_tweet_corpus(n_items, seed=seed)
    llm.bind_tweets(corpus)
    state = ExecutionState(model=llm, clock=llm.clock)
    state.prompts.create(
        "map_p", SCAFFOLD + "\n" + MAP_INSTRUCTION + "\nTweet:\n{tweet}"
    )
    state.prompts.create(
        "enrich_p", SCAFFOLD + "\n" + ENRICH_INSTRUCTION + "\nTweet:\n{tweet}"
    )
    state.prompts.create(
        "digest_p",
        SCAFFOLD + "\nSummary:\n{summary}\n" + DIGEST_INSTRUCTION,
    )
    state.prompts.create(
        "filter_p", FILTER_NEG_INSTRUCTION + "\nTweet:\n{tweet}"
    )
    return state, list(corpus)


def build_pipeline(items: list) -> Pipeline:
    """One long pipeline: bind → Map → Enrich → Digest → Filter per item."""
    operators = []
    for index, tweet in enumerate(items):
        text = tweet.text

        def bind(state: ExecutionState, _text: str = text) -> ExecutionState:
            state.context.put("tweet", _text, producer="bind")
            return state

        operators.append(FunctionOperator(bind, label=f"BIND[{index}]"))
        operators.append(GEN("summary", prompt="map_p"))
        operators.append(GEN("keywords", prompt="enrich_p"))
        operators.append(GEN("takeaway", prompt="digest_p"))
        operators.append(GEN("verdict", prompt="filter_p", max_tokens=8))
    return Pipeline(operators, name="bench_result_cache")


def build_refiners() -> list:
    return [
        REF("APPEND", hint, key="filter_p", function_name=f"f_focus_{index}")
        for index, hint in enumerate(REFINEMENT_HINTS[: ITERATIONS - 1])
    ]


def freeze_outputs(state: ExecutionState) -> str:
    """A byte-exact serialization of the final (C, M) pair."""
    context = {key: repr(state.context[key]) for key in state.context.keys()}
    metadata = {key: repr(state.metadata[key]) for key in state.metadata.keys()}
    return json.dumps({"context": context, "metadata": metadata}, sort_keys=True)


def run_arm(n_items: int, seed: int, *, ledger_dir: Path | None) -> dict:
    """One full refinement-loop run; ledgered when ``ledger_dir`` is set.

    Both arms attach a live :class:`ObsCollector` — in-memory metrics are
    the pre-existing obs layer and what ``spear stats`` already needs —
    so the measured delta is exactly the ledger + series persistence.
    """
    state, items = build_state(n_items, seed)
    options = RuntimeOptions(
        model=state.model, clock=state.clock, collector=ObsCollector()
    )
    if ledger_dir is not None:
        options = options.replace(ledger_dir=ledger_dir, series_interval=5.0)
    executor = Executor(options=options)
    loop = RefinementLoop(
        executor,
        build_pipeline(items),
        refiners=build_refiners(),
        max_iterations=ITERATIONS,
    )
    wall0 = time.perf_counter()
    report = loop.run(state=state)
    host_wall = time.perf_counter() - wall0
    assert report.final is not None
    return {
        "host_wall_s": host_wall,
        "sim_elapsed_s": report.total_elapsed,
        "outputs": freeze_outputs(report.final.state),
    }


def check_attribution_conservation(ledger_dir: Path) -> dict:
    """Token conservation: attributed sums == report totals, no orphans."""
    run = Ledger(ledger_dir).latest()
    assert run is not None, "ledgered arm produced no run directory"
    report = run.report()
    attribution = run.attribution()
    totals = report.totals
    att = attribution.totals
    for field in ("prompt_tokens", "cached_tokens", "output_tokens"):
        if att[field] != totals[field]:
            raise AssertionError(
                f"attribution does not conserve {field}: "
                f"attributed {att[field]} != total {totals[field]}"
            )
    if att["attributed_calls"] != totals["gen_calls"]:
        raise AssertionError(
            f"attribution call count {att['attributed_calls']} != "
            f"gen_calls {totals['gen_calls']}"
        )
    unattributed = attribution.prompts.get(UNATTRIBUTED, {})
    if unattributed.get("prompt_tokens") or unattributed.get("output_tokens"):
        raise AssertionError(
            f"tokens leaked to the unattributed bucket: {unattributed}"
        )
    return {
        "attributed_calls": att["attributed_calls"],
        "prompt_tokens": att["prompt_tokens"],
        "output_tokens": att["output_tokens"],
        "prompt_version_buckets": len(attribution.prompts),
        "conserved": True,
    }


def run_benchmark(
    n_items: int, seed: int, reps: int, keep_runs: Path | None = None
) -> dict:
    """min-over-reps wall times for both arms, interleaved fairly.

    With ``keep_runs`` the per-rep ledger roots (``runs_0/``, ``runs_1/``,
    ...) survive under that directory — CI diffs consecutive same-seed
    runs with ``spear diff --gate`` and archives them as artifacts.
    """
    off_walls: list[float] = []
    on_walls: list[float] = []
    off_sim = on_sim = 0.0
    off_outputs = on_outputs = None
    with contextlib.ExitStack() as stack:
        if keep_runs is not None:
            keep_runs.mkdir(parents=True, exist_ok=True)
            tmp = str(keep_runs)
        else:
            tmp = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="bench_obs_")
            )
        for rep in range(reps):
            off = run_arm(n_items, seed, ledger_dir=None)
            on = run_arm(n_items, seed, ledger_dir=Path(tmp) / f"runs_{rep}")
            off_walls.append(off["host_wall_s"])
            on_walls.append(on["host_wall_s"])
            off_sim, on_sim = off["sim_elapsed_s"], on["sim_elapsed_s"]
            off_outputs, on_outputs = off["outputs"], on["outputs"]
        if off_outputs != on_outputs:
            raise AssertionError(
                "outputs diverged with observability enabled — the obs "
                "layer must never perturb the computation"
            )
        last_dir = Path(tmp) / f"runs_{reps - 1}"
        conservation = check_attribution_conservation(last_dir)
        last_run = Ledger(last_dir).latest()
        event_count = int(last_run.manifest.get("event_count", 0))
        series_rows = len(last_run.series())

    host_off = min(off_walls)
    host_on = min(on_walls)
    host_delta = host_on - host_off
    sim_overhead = ((on_sim - off_sim) / off_sim * 100.0) if off_sim else 0.0
    host_overhead = (host_delta / host_off * 100.0) if host_off else 0.0
    return {
        "profile": PROFILE,
        "items": n_items,
        "seed": seed,
        "iterations": ITERATIONS,
        "reps": reps,
        "event_count": event_count,
        "sim_elapsed_off_s": round(off_sim, 6),
        "sim_elapsed_on_s": round(on_sim, 6),
        "overhead_pct": round(sim_overhead, 4),
        "host_wall_off_s": round(host_off, 4),
        "host_wall_on_s": round(host_on, 4),
        # Every repetition, so a failed gate shows noise (one slow rep in
        # either arm) apart from a ledger that got slower (every on rep).
        "host_walls_off_s": [round(wall, 4) for wall in off_walls],
        "host_walls_on_s": [round(wall, 4) for wall in on_walls],
        # Each repetition's own ledger cost per event (its on minus its
        # off wall); the gate still reads the min-over-reps walls above.
        "host_us_per_event_reps": [
            round((on - off) * 1e6 / event_count, 2) if event_count else 0.0
            for off, on in zip(off_walls, on_walls)
        ],
        "series_rows": series_rows,
        "host_overhead_pct": round(host_overhead, 2),
        "host_us_per_event": round(host_delta * 1e6 / event_count, 2)
        if event_count
        else 0.0,
        "outputs_identical": True,
        "attribution": conservation,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--items", type=int, default=40, help="corpus size (default 40)"
    )
    parser.add_argument("--tiny", action="store_true", help="CI smoke: 12 items")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--reps",
        type=int,
        default=3,
        help="repetitions per arm; min wall time is reported (default 3)",
    )
    parser.add_argument(
        "--max-overhead-pct",
        type=float,
        default=5.0,
        help="fail when simulated wall-time overhead exceeds this percent "
        "(default 5; the ledger must not touch the virtual clock at all)",
    )
    parser.add_argument(
        "--max-host-overhead-pct",
        type=float,
        default=35.0,
        help="fail when host CPU overhead exceeds this percent (default 35; "
        "lenient because the simulated substrate magnifies per-event cost)",
    )
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_obs_overhead.json"
    )
    parser.add_argument(
        "--keep-runs",
        type=Path,
        default=None,
        metavar="DIR",
        help="persist the per-rep ledger roots under DIR (default: a "
        "temp directory, removed afterwards)",
    )
    args = parser.parse_args(argv)

    n_items = 12 if args.tiny else args.items
    result = run_benchmark(
        n_items, args.seed, args.reps, keep_runs=args.keep_runs
    )
    result["max_overhead_pct"] = args.max_overhead_pct
    result["max_host_overhead_pct"] = args.max_host_overhead_pct
    sim_ok = result["overhead_pct"] < args.max_overhead_pct
    host_ok = result["host_overhead_pct"] < args.max_host_overhead_pct
    result["ok"] = sim_ok and host_ok

    args.output.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.output}")
    print(
        f"simulated wall: {result['sim_elapsed_off_s']:.2f}s off / "
        f"{result['sim_elapsed_on_s']:.2f}s on -> "
        f"{result['overhead_pct']:+.4f}% (budget {args.max_overhead_pct:g}%)"
    )
    print(
        f"host wall:      {result['host_wall_off_s']:.4f}s off / "
        f"{result['host_wall_on_s']:.4f}s on -> "
        f"{result['host_overhead_pct']:+.2f}% "
        f"(budget {args.max_host_overhead_pct:g}%, "
        f"{result['host_us_per_event']:.1f}µs/event over "
        f"{result['event_count']} events)"
    )
    for rep, (off, on, per_event) in enumerate(
        zip(
            result["host_walls_off_s"],
            result["host_walls_on_s"],
            result["host_us_per_event_reps"],
        )
    ):
        print(
            f"  rep {rep}: {off:.4f}s off / {on:.4f}s on, "
            f"{per_event:.1f}µs/event"
        )
    print(
        f"outputs byte-identical; tokens conserved across "
        f"{result['attribution']['prompt_version_buckets']} "
        f"prompt-version buckets"
    )
    if not sim_ok:
        print(
            f"FAIL: simulated overhead {result['overhead_pct']:.4f}% "
            f">= budget {args.max_overhead_pct:g}%",
            file=sys.stderr,
        )
    if not host_ok:
        print(
            f"FAIL: host overhead {result['host_overhead_pct']:.2f}% "
            f">= budget {args.max_host_overhead_pct:g}%",
            file=sys.stderr,
        )
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
