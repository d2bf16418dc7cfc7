"""Command-line interface.

Subcommands::

    python -m repro experiments {table3|table4|figure1|all} [--n N] [--seed S]
    python -m repro run PIPELINE_FILE --pipeline NAME [--patient ID] [--show-trace]
    python -m repro fmt PIPELINE_FILE
    python -m repro check [FILES...] [--dl SOURCE] [--format {text,json}]
    python -m repro stats RUN_JSONL [--format {table,json,prometheus}] [--top N]
    python -m repro trace RUN_JSONL [--timeline]
    python -m repro runs LEDGER_DIR [--run ID] [--format {table,json}]
    python -m repro diff RUN_A RUN_B [--gate] [--max-regress PCT]
    python -m repro top LEDGER_DIR_OR_RUN [--interval S] [--once]
    python -m repro serve [--tenants N] [--overload X] [...]

``run`` executes a SPEAR-DL file against a fully wired state: the
simulated model grounded on the seeded synthetic corpora, the clinical
retrieval sources, and the validation agent.  ``stats`` and ``trace``
analyse an exported JSONL event trace offline (see
:func:`repro.runtime.tracing.export_events` and docs/observability.md).
``runs`` / ``diff`` / ``top`` operate on the persistent run ledger
(:mod:`repro.obs.ledger`): list and inspect finished runs, compare two
runs with CI gate semantics (``--gate`` exits 2 on regression), and
live-tail an in-progress run's leaderboard.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.agents import ValidationAgent
from repro.core import ExecutionState
from repro.data import make_clinical_corpus, make_tweet_corpus
from repro.dl import compile_source, parse
from repro.dl.formatter import format_program
from repro.errors import SpearError
from repro.llm import SimulatedLLM
from repro.retrieval import clinical_sources
from repro.runtime.tracing import render_timeline

__all__ = [
    "main",
    "build_parser",
    "render_stats_text",
    "render_attribution_text",
]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SPEAR reproduction: experiments, SPEAR-DL runner, formatter.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    experiments = commands.add_parser(
        "experiments", help="regenerate the paper's tables and figures"
    )
    experiments.add_argument(
        "which", choices=("table3", "table4", "figure1", "variance", "all")
    )
    experiments.add_argument("--n", type=int, default=1000, help="corpus size")
    experiments.add_argument("--seed", type=int, default=7)
    experiments.add_argument(
        "--profile", default="qwen2.5-7b-instruct", help="model profile name"
    )

    run = commands.add_parser("run", help="execute a pipeline from a SPEAR-DL file")
    run.add_argument("file", type=Path, help="SPEAR-DL source file")
    run.add_argument("--pipeline", required=True, help="pipeline name to run")
    run.add_argument(
        "--patient", default="p0001", help="patient id exposed as C['patient_id']"
    )
    run.add_argument("--seed", type=int, default=11)
    run.add_argument(
        "--show-trace", action="store_true", help="print the execution timeline"
    )

    fmt = commands.add_parser("fmt", help="reformat a SPEAR-DL file to canonical form")
    fmt.add_argument("file", type=Path)
    fmt.add_argument(
        "--write", action="store_true", help="rewrite the file in place"
    )

    check = commands.add_parser(
        "check", help="statically check SPEAR-DL files or Python pipeline modules"
    )
    check.add_argument(
        "files",
        type=Path,
        nargs="*",
        help="SPEAR-DL sources, or .py modules exposing *_SOURCE strings "
        "or module-level Pipeline objects",
    )
    check.add_argument(
        "--dl",
        action="append",
        default=[],
        metavar="SOURCE",
        help="inline SPEAR-DL program text (repeatable)",
    )
    check.add_argument(
        "--format",
        dest="format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: human-readable text; sarif emits "
        "a SARIF 2.1.0 log for CI annotation)",
    )
    check.add_argument(
        "--costs",
        action="store_true",
        help="print the static cost-bound table (tokens / seconds / USD "
        "lower and upper bounds per pipeline)",
    )
    check.add_argument(
        "--fail-on",
        dest="fail_on",
        choices=("error", "warning"),
        default="error",
        help="exit non-zero at this severity or worse (default: error)",
    )

    stats = commands.add_parser(
        "stats", help="aggregate metrics from an exported JSONL event trace"
    )
    stats.add_argument("file", type=Path, help="JSONL trace (export_events output)")
    stats.add_argument(
        "--format",
        dest="format",
        choices=("table", "json", "prometheus"),
        default="table",
        help="output format (default: human-readable tables)",
    )
    stats.add_argument(
        "--top", type=int, default=5, help="how many slowest spans to report"
    )

    trace = commands.add_parser(
        "trace", help="render the span tree of an exported JSONL event trace"
    )
    trace.add_argument("file", type=Path, help="JSONL trace (export_events output)")
    trace.add_argument(
        "--timeline",
        action="store_true",
        help="print the flat event timeline instead of the span tree",
    )

    runs = commands.add_parser(
        "runs", help="list or inspect persisted ledger runs"
    )
    runs.add_argument("dir", type=Path, help="ledger root (runs/ directory)")
    runs.add_argument(
        "--run", dest="run_id", default=None, help="inspect one run in detail"
    )
    runs.add_argument(
        "--format",
        dest="format",
        choices=("table", "json"),
        default="table",
        help="output format (default: human-readable)",
    )

    diff = commands.add_parser(
        "diff", help="compare two ledger runs (reports + attribution)"
    )
    diff.add_argument("run_a", type=Path, help="baseline run directory")
    diff.add_argument("run_b", type=Path, help="candidate run directory")
    diff.add_argument(
        "--gate",
        action="store_true",
        help="CI mode: exit 2 when a gated metric regresses beyond "
        "--max-regress percent",
    )
    diff.add_argument(
        "--max-regress",
        type=float,
        default=0.0,
        metavar="PCT",
        help="allowed regression on gated metrics, in percent (default: 0)",
    )
    diff.add_argument(
        "--format",
        dest="format",
        choices=("table", "json"),
        default="table",
        help="output format (default: human-readable)",
    )

    top = commands.add_parser(
        "top", help="live-tail an in-progress ledger run's leaderboard"
    )
    top.add_argument(
        "dir",
        type=Path,
        help="ledger root (tails the latest run) or one run directory",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=0.5,
        help="host seconds between repaints (default: 0.5)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="render a single snapshot and exit (no tail loop)",
    )

    serve = commands.add_parser(
        "serve",
        help="drive the multi-tenant serving pool with synthetic traffic",
    )
    serve.add_argument(
        "--tenants", type=int, default=16, help="tenant count (default: 16)"
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=8,
        help="per-tenant admission queue bound (default: 8)",
    )
    serve.add_argument(
        "--overload",
        type=int,
        default=1,
        help="burst multiplier over the queue limit; excess sheds (default: 1)",
    )
    serve.add_argument(
        "--corpus", type=int, default=32, help="demo corpus size (default: 32)"
    )
    serve.add_argument("--seed", type=int, default=7, help="corpus seed")
    serve.add_argument(
        "--pipeline",
        choices=("summarize", "summarize_filter"),
        default="summarize_filter",
        help="registered demo pipeline to drive (default: summarize_filter)",
    )
    serve.add_argument(
        "--ledger-dir",
        type=Path,
        default=None,
        help="write per-tenant ledger runs under this root",
    )
    serve.add_argument(
        "--format",
        dest="format",
        choices=("table", "json"),
        default="table",
        help="output format (default: human-readable)",
    )
    return parser


def _cmd_experiments(args: argparse.Namespace) -> int:
    # Imported lazily: the experiment modules build corpora at import.
    from repro.experiments import fusion_models, fusion_selectivity
    from repro.experiments import refinement_strategies

    if args.which in ("table3", "all"):
        table = refinement_strategies.run_table3(
            n=args.n, seed=args.seed, profile=args.profile
        )
        from repro.eval.tables import format_table

        headers = ["Strategy", "Time (s)", "Speedup (x)", "F1", "F1 Gain (%)", "Cache Hit (%)"]
        print(format_table(headers, table.rows(), title="Table 3 (reproduced)"))
        print()
    if args.which in ("table4", "all"):
        fusion_selectivity.main()
        print()
    if args.which in ("figure1", "all"):
        fusion_models.main()
        print()
    if args.which == "variance":
        from repro.experiments import variance

        variance.main()
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    source = args.file.read_text(encoding="utf-8")
    compiled = compile_source(source)

    clinical = make_clinical_corpus(30, seed=args.seed)
    tweets = make_tweet_corpus(200, seed=args.seed)
    llm = SimulatedLLM()
    llm.bind_clinical(clinical)
    llm.bind_tweets(tweets)

    state = ExecutionState(model=llm, views=compiled.views, clock=llm.clock)
    state.context.put("patient_id", args.patient, producer="cli")
    for name, source_fn in clinical_sources(clinical).items():
        state.register_source(name, source_fn)
    state.register_agent("validation_agent", ValidationAgent())

    state = compiled.pipeline(args.pipeline).apply(state)

    print(f"pipeline {args.pipeline!r} finished in "
          f"{state.clock.now:.2f}s simulated, "
          f"{int(state.metadata.get('gen_calls', 0))} generation calls\n")
    print("context outputs:")
    for key in state.context.keys():
        if key.endswith("__result"):
            continue
        value = str(state.context[key]).replace("\n", " ")
        if len(value) > 100:
            value = value[:97] + "..."
        print(f"  {key}: {value}")
    if args.show_trace:
        print("\nexecution timeline:")
        print(render_timeline(state.events))
    return 0


def _collect_py_targets(
    path: Path,
) -> list[tuple[str, object, dict[str, object]]]:
    """Checkable artefacts of a Python module: DL sources + pipelines.

    Imports the module in isolation and collects module-level string
    attributes named ``SOURCE``/``DL_SOURCE`` (or ending ``_SOURCE``) as
    SPEAR-DL programs, plus module-level :class:`Pipeline` objects.

    A module may describe the environment its pipelines run under with
    module-level ``SPEAR_RUNTIME`` (a runtime mapping: ``deadline_s``,
    ``lanes``, ``serve``, …), ``SPEAR_PROMPTS`` (initial prompt texts),
    and ``SPEAR_CONTEXT`` (initially-bound slots) — these feed the
    runtime-gated analyzers (SPEAR145, SPEAR15x, SPEAR16x) exactly as
    strict mode would.
    """
    import importlib.util

    from repro.core.pipeline import Pipeline

    spec = importlib.util.spec_from_file_location(
        f"_spear_check_{path.stem}", path
    )
    if spec is None or spec.loader is None:
        raise SpearError(f"cannot import {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    env: dict[str, object] = {}
    runtime = getattr(module, "SPEAR_RUNTIME", None)
    if isinstance(runtime, dict):
        env["runtime"] = runtime
    prompts = getattr(module, "SPEAR_PROMPTS", None)
    if isinstance(prompts, dict):
        env["prompts"] = prompts
    context = getattr(module, "SPEAR_CONTEXT", None)
    if isinstance(context, (list, tuple, set, frozenset)):
        env["context"] = tuple(sorted(context))

    targets: list[tuple[str, object, dict[str, object]]] = []
    for attr in sorted(vars(module)):
        if attr.startswith("_"):
            continue
        value = getattr(module, attr)
        if isinstance(value, str) and (
            attr in ("SOURCE", "DL_SOURCE") or attr.endswith("_SOURCE")
        ):
            targets.append((f"{path}::{attr}", value, env))
        elif isinstance(value, Pipeline):
            targets.append((f"{path}::{attr}", value, env))
    return targets


def _compiled_graphs(artefact, env: dict[str, object], name: str):
    """(name, graph, AnalysisEnv) per pipeline in a check target."""
    from repro.analysis import AnalysisEnv, build_dataflow
    from repro.core.pipeline import Pipeline

    analysis_env = AnalysisEnv(
        prompts=env.get("prompts") or {},
        context=tuple(env.get("context") or ()),
        runtime=env.get("runtime"),
    )
    if isinstance(artefact, Pipeline):
        graph = build_dataflow(artefact, analysis_env, name=name)
        return [(name, graph, analysis_env)]
    from repro.dl.compiler import compile_program
    from repro.dl.parser import parse

    try:
        compiled = compile_program(parse(artefact))
    except SpearError:
        return []
    graphs = []
    for pipeline_name, pipeline in sorted(compiled.pipelines.items()):
        pipeline_env = AnalysisEnv(
            views=compiled.views, runtime=env.get("runtime")
        )
        graphs.append(
            (
                pipeline_name,
                build_dataflow(pipeline, pipeline_env, name=pipeline_name),
                pipeline_env,
            )
        )
    return graphs


def _cost_table(targets) -> str:
    """The `spear check --costs` table: static bounds per pipeline."""
    from repro.analysis.costs import estimate_costs
    from repro.eval.tables import format_table

    rows = []
    for target, artefact, env in targets:
        for name, graph, analysis_env in _compiled_graphs(
            artefact, env, target
        ):
            summary = estimate_costs(graph, analysis_env)
            rows.append(
                [
                    name,
                    len(summary.operators),
                    summary.lower.tokens,
                    summary.upper.tokens,
                    round(summary.lower.seconds, 3),
                    round(summary.upper.seconds, 3),
                    round(summary.lower.usd, 6),
                    round(summary.upper.usd, 6),
                    "yes" if summary.exact else "no",
                ]
            )
    return format_table(
        [
            "Pipeline",
            "GENs",
            "Tok lo",
            "Tok hi",
            "Sec lo",
            "Sec hi",
            "USD lo",
            "USD hi",
            "Exact",
        ],
        rows,
    )


def _cmd_check(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import check_pipeline, check_program, to_sarif
    from repro.core.pipeline import Pipeline

    targets: list[tuple[str, object, dict[str, object]]] = []
    for path in args.files:
        if path.suffix == ".py":
            targets.extend(_collect_py_targets(path))
        else:
            targets.append(
                (str(path), path.read_text(encoding="utf-8"), {})
            )
    for position, source in enumerate(args.dl):
        targets.append((f"<dl:{position}>", source, {}))
    if not targets:
        print("error: nothing to check (no files, no --dl)", file=sys.stderr)
        return 2

    runs = []
    errors = warnings = infos = 0
    for target, artefact, env in targets:
        if isinstance(artefact, Pipeline):
            result = check_pipeline(
                artefact,
                name=artefact.name or target,
                prompts=env.get("prompts"),  # type: ignore[arg-type]
                context=tuple(env.get("context") or ()),
                runtime=env.get("runtime"),  # type: ignore[arg-type]
            )
        else:
            filename = target if not target.startswith("<") else None
            result = check_program(artefact, filename=filename)
        runs.append((target, result))
        errors += len(result.errors)
        warnings += len(result.warnings)
        infos += len(result.infos)

    if args.format == "json":
        payload = {
            "runs": [
                {"target": target, **result.to_dict()}
                for target, result in runs
            ],
            "errors": errors,
            "warnings": warnings,
            "infos": infos,
        }
        print(json.dumps(payload, indent=2))
    elif args.format == "sarif":
        merged = [
            diagnostic for __, result in runs for diagnostic in result
        ]
        print(json.dumps(to_sarif(merged), indent=2))
    else:
        for target, result in runs:
            status = "ok" if not len(result) else result.summary()
            print(f"== {target}: {status}")
            for diagnostic in result:
                print(f"  {diagnostic.render()}")
        print(
            f"checked {len(runs)} target(s): {errors} error(s), "
            f"{warnings} warning(s), {infos} info(s)"
        )
    if args.costs and args.format != "sarif":
        print()
        print(_cost_table(targets))
    if errors:
        return 1
    if getattr(args, "fail_on", "error") == "warning" and warnings:
        return 1
    return 0


def render_stats_text(report) -> str:
    """Render a :class:`~repro.obs.report.RunReport` as the ``spear stats``
    tables.

    A pure function of the report object: a ``report.json`` reloaded via
    :meth:`RunReport.from_dict` renders byte-identically to the live
    original — the foundation ``spear diff`` builds on.
    """
    from repro.eval.tables import format_table

    lines: list[str] = []
    operator_rows = [
        [
            op,
            stats["invocations"],
            stats["errors"],
            round(stats["wall_seconds"]["total"], 2),
            round(stats["wall_seconds"]["p50"], 2),
            round(stats["wall_seconds"]["p95"], 2),
            round(stats["wall_seconds"]["p99"], 2),
        ]
        for op, stats in report.operators.items()
    ]
    lines.append(
        format_table(
            ["Operator", "Calls", "Errors", "Wall (s)", "p50", "p95", "p99"],
            operator_rows,
            title="Per-operator rollup",
        )
    )
    lines.append("")
    generation_rows = [
        [
            prompt,
            stats["calls"],
            round(stats["latency_seconds"]["total"], 2),
            round(stats["latency_seconds"]["p95"], 2),
            stats["prompt_tokens"],
            stats["cached_tokens"],
            stats["output_tokens"],
            f"{stats['cache_hit_ratio'] * 100:.1f}",
            f"{stats['cost_usd']:.6f}",
        ]
        for prompt, stats in report.generation.items()
    ]
    lines.append(
        format_table(
            [
                "Prompt", "Calls", "Latency (s)", "p95",
                "Prompt tok", "Cached tok", "Output tok",
                "Cache hit (%)", "Cost ($)",
            ],
            generation_rows,
            title="Per-prompt generation rollup",
        )
    )
    if report.batches:
        lines.append("")
        batch_rows = [
            [
                mode,
                stats["runs"],
                stats["items"],
                stats["failures"],
                stats["workers"],
                round(stats["elapsed_seconds"]["total"], 2),
                f"{stats['throughput']:.3f}",
            ]
            for mode, stats in report.batches.items()
        ]
        lines.append(
            format_table(
                [
                    "Mode", "Runs", "Items", "Failures", "Workers",
                    "Elapsed (s)", "Items/s",
                ],
                batch_rows,
                title="Batch runs",
            )
        )
    if report.scheduler:
        lines.append("")
        sched = report.scheduler
        sched_rows = [
            [
                priority,
                int(stats["count"]),
                round(stats["mean"], 3),
                round(stats["p50"], 3),
                round(stats["p95"], 3),
            ]
            for priority, stats in sched.get("wait_seconds", {}).items()
        ]
        lines.append(
            format_table(
                ["Class", "Calls", "Wait mean (s)", "p50", "p95"],
                sched_rows,
                title="Scheduler",
            )
        )
        lines.append(
            f"steps: {sched.get('steps', 0)}  "
            f"mean step size: {sched.get('step_size', {}).get('mean', 0.0):.2f}  "
            f"preemptions: {sched.get('preemptions', 0)}  "
            f"forced: {sched.get('forced', 0)}  "
            f"queue depth: {sched.get('queue_depth', 0.0):.0f}"
        )
    if report.prefix_cache:
        lines.append("")
        prefix = report.prefix_cache
        radix = prefix.get("radix", {})
        prefix_rows = [
            [
                model,
                int(stats.get("nodes", 0)),
                int(stats.get("leaves", 0)),
                int(stats.get("pinned_blocks", 0)),
            ]
            for model, stats in sorted(radix.items())
        ]
        if prefix_rows:
            lines.append(
                format_table(
                    ["Model", "Radix blocks", "Leaf blocks", "Pinned blocks"],
                    prefix_rows,
                    title="Prefix cache",
                )
            )
        else:
            # Replayed traces have no live model to pull gauges from;
            # the dedup counters below still derive from SCHED events.
            lines.append("Prefix cache")
        step_dedup = prefix.get("step_dedup_tokens", {})
        groups = prefix.get("groups_per_step", {})
        lines.append(
            f"dedup tokens: {prefix.get('dedup_tokens_total', 0)}  "
            f"mean/step: {step_dedup.get('mean', 0.0):.1f}  "
            f"p95/step: {step_dedup.get('p95', 0.0):.0f}  "
            f"trunk groups/step: {groups.get('mean', 0.0):.2f}"
        )
    result_cache = report.result_cache.get("by_operator", {})
    if result_cache:
        lines.append("")
        rc_rows = [
            [op, stats["hits"], round(stats["saved_seconds"], 2)]
            for op, stats in result_cache.items()
        ]
        lines.append(
            format_table(
                ["Operator", "Hits", "Saved (s)"],
                rc_rows,
                title="Result cache",
            )
        )
    if report.resilience:
        lines.append("")
        res = report.resilience
        models = sorted(
            set(res.get("failures_by_model", {}))
            | set(res.get("retries_by_model", {}))
            | set(res.get("breakers", {}))
        )
        res_rows = [
            [
                model,
                res.get("failures_by_model", {}).get(model, 0),
                res.get("retries_by_model", {}).get(model, 0),
                round(
                    res.get("backoff_seconds", {})
                    .get(model, {})
                    .get("total", 0.0),
                    2,
                ),
                res.get("breakers", {}).get(model, {}).get("state", "closed"),
                res.get("breakers", {}).get(model, {}).get("transitions", 0),
            ]
            for model in models
        ]
        lines.append(
            format_table(
                [
                    "Model", "Failures", "Retries", "Backoff (s)",
                    "Breaker", "Transitions",
                ],
                res_rows,
                title="Resilience",
            )
        )
        summary = (
            f"faults injected: {res.get('faults_injected_total', 0)}"
        )
        by_kind = res.get("faults_injected", {})
        if by_kind:
            summary += (
                " ("
                + ", ".join(f"{kind}={n}" for kind, n in by_kind.items())
                + ")"
            )
        degraded_total = res.get("degraded_runs_total", 0)
        if degraded_total:
            targets = ", ".join(
                f"{target}={n}"
                for target, n in res.get("degraded_runs", {}).items()
            )
            summary += f"; degraded runs: {degraded_total} ({targets})"
        lines.append(summary)
    lines.append("")
    totals = report.totals
    lines.append(
        f"totals: {totals['events']} events, {totals['gen_calls']} gen calls, "
        f"{totals['prompt_tokens']} prompt / {totals['cached_tokens']} cached / "
        f"{totals['output_tokens']} output tokens, "
        f"cache hit ratio {totals['cache_hit_ratio'] * 100:.1f}%, "
        f"est. cost ${totals['cost_usd']:.6f}"
    )
    if totals.get("result_cache_hits"):
        lines.append(
            f"result cache: {totals['result_cache_hits']} hits, "
            f"{totals['result_cache_saved_seconds']:.2f}s simulated time saved"
        )
    if report.slowest_spans:
        lines.append("\nslowest spans:")
        for span in report.slowest_spans:
            lines.append(
                f"  {span['wall']:8.2f}s  {span['operator']}"
                f"  (start {span['start']:.2f}s, gen={span['gen_calls']})"
            )
    return "\n".join(lines)


def render_attribution_text(attribution) -> str:
    """Render the refinement-utility section of an attribution report.

    Empty string when no refinement edge has generations on both sides —
    traces without REFINE activity keep their exact historical output.
    """
    if not attribution.refinements:
        return ""
    lines = ["\nRefinement utility (per prompt version):"]
    for row in attribution.refinements:
        before, after, delta = row["before"], row["after"], row["delta"]
        sign = "+" if delta["mean_confidence"] >= 0 else ""
        lines.append(
            f"  {row['key']} v{row['from_version']} -> v{row['to_version']}"
            f" ({row['action']}): confidence {before['mean_confidence']:.3f}"
            f" -> {after['mean_confidence']:.3f}"
            f" ({sign}{delta['mean_confidence']:.3f}),"
            f" latency {before['mean_latency']:.2f}s"
            f" -> {after['mean_latency']:.2f}s,"
            f" cost ${before['cost_usd']:.6f} -> ${after['cost_usd']:.6f}"
            f" ({before['calls']} vs {after['calls']} calls)"
        )
    return "\n".join(lines)


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs import ObsCollector, build_attribution, build_report, to_prometheus
    from repro.runtime.tracing import import_events

    log = import_events(args.file)
    collector = ObsCollector()
    collector.replay(log)

    if args.format == "prometheus":
        print(to_prometheus(collector.registry), end="")
        return 0

    report = build_report(collector, top_k=args.top)
    if args.format == "json":
        print(report.to_json())
        return 0

    print(render_stats_text(report))
    attribution_text = render_attribution_text(build_attribution(log))
    if attribution_text:
        print(attribution_text)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import build_span_tree, render_span_tree
    from repro.runtime.tracing import import_events, render_timeline

    log = import_events(args.file)
    if args.timeline:
        print(render_timeline(log, include_lifecycle=True))
    else:
        print(render_span_tree(build_span_tree(log)))
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    import json

    from repro.eval.tables import format_table
    from repro.obs import Ledger

    ledger = Ledger(args.dir)
    if args.run_id is not None:
        run = ledger.load(args.run_id)
        if args.format == "json":
            payload = {"manifest": run.manifest}
            if (run.path / "report.json").exists():
                payload["report"] = run.report().to_dict()
            if (run.path / "attribution.json").exists():
                payload["attribution"] = run.attribution().to_dict()
            print(json.dumps(payload, indent=2))
            return 0
        print(f"run {run.run_id} [{run.status}] — {run.path}")
        pipeline = run.manifest.get("pipeline") or {}
        print(
            f"  runner: {run.manifest.get('runner', '?')}, "
            f"pipeline: {pipeline.get('name') or '?'}, "
            f"events: {run.manifest.get('event_count', '?')}"
        )
        if (run.path / "report.json").exists():
            print()
            print(render_stats_text(run.report()))
        if (run.path / "attribution.json").exists():
            attribution_text = render_attribution_text(run.attribution())
            if attribution_text:
                print(attribution_text)
        return 0

    run_ids = ledger.list()
    if not run_ids:
        print(f"no runs under {args.dir}")
        return 0
    rows = []
    records = []
    for run_id in run_ids:
        run = ledger.load(run_id)
        totals: dict = {}
        if (run.path / "report.json").exists():
            totals = run.report().totals
        pipeline = run.manifest.get("pipeline") or {}
        rows.append(
            [
                run.run_id,
                run.status,
                run.manifest.get("runner", "?"),
                pipeline.get("name") or "-",
                totals.get("gen_calls", "-"),
                totals.get("prompt_tokens", "-"),
                (
                    f"{totals['cost_usd']:.6f}"
                    if "cost_usd" in totals
                    else "-"
                ),
            ]
        )
        records.append(
            {
                "run_id": run.run_id,
                "status": run.status,
                "runner": run.manifest.get("runner"),
                "pipeline": pipeline.get("name"),
                "totals": totals,
            }
        )
    if args.format == "json":
        print(json.dumps({"runs": records}, indent=2))
    else:
        print(
            format_table(
                [
                    "Run", "Status", "Runner", "Pipeline",
                    "Gen calls", "Prompt tok", "Cost ($)",
                ],
                rows,
                title=f"Ledger runs ({args.dir})",
            )
        )
    return 0


#: report paths gated by ``spear diff --gate``: higher is a regression.
_GATE_METRICS = (
    ("totals", "cost_usd"),
    ("totals", "gen_calls"),
    ("totals", "prompt_tokens"),
    ("totals", "output_tokens"),
    ("totals", "errors"),
)


def _numeric_leaves(tree, prefix=""):
    """Flatten nested dicts to {dotted.path: number} (bools excluded)."""
    leaves: dict[str, float] = {}
    if isinstance(tree, dict):
        for key, value in tree.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            leaves.update(_numeric_leaves(value, path))
    elif isinstance(tree, (int, float)) and not isinstance(tree, bool):
        leaves[prefix] = float(tree)
    return leaves


def _load_run(path: Path):
    from repro.obs.ledger import LedgerRun

    return LedgerRun(path)


def _cmd_diff(args: argparse.Namespace) -> int:
    import json

    from repro.eval.tables import format_table

    run_a, run_b = _load_run(args.run_a), _load_run(args.run_b)
    report_a, report_b = run_a.report().to_dict(), run_b.report().to_dict()
    attr_a, attr_b = run_a.attribution().to_dict(), run_b.attribution().to_dict()
    # Slowest spans are a top-k sample, not a comparable aggregate.
    report_a.pop("slowest_spans", None)
    report_b.pop("slowest_spans", None)

    leaves_a = _numeric_leaves({"report": report_a, "attribution": attr_a})
    leaves_b = _numeric_leaves({"report": report_b, "attribution": attr_b})
    changed = []
    for path in sorted(set(leaves_a) | set(leaves_b)):
        a, b = leaves_a.get(path, 0.0), leaves_b.get(path, 0.0)
        if a == b:
            continue
        pct = ((b - a) / abs(a) * 100.0) if a else None
        changed.append((path, a, b, b - a, pct))

    gate_failures = []
    if args.gate:
        totals_a = report_a.get("totals", {})
        totals_b = report_b.get("totals", {})
        for section, key in _GATE_METRICS:
            a = float(report_a.get(section, {}).get(key, 0.0) or 0.0)
            b = float(report_b.get(section, {}).get(key, 0.0) or 0.0)
            if b <= a:
                continue
            pct = ((b - a) / a * 100.0) if a else float("inf")
            if pct > args.max_regress:
                gate_failures.append((f"{section}.{key}", a, b, pct))
        del totals_a, totals_b

    if args.format == "json":
        print(
            json.dumps(
                {
                    "run_a": str(args.run_a),
                    "run_b": str(args.run_b),
                    "changed": [
                        {
                            "metric": path,
                            "a": a,
                            "b": b,
                            "delta": delta,
                            "pct": pct,
                        }
                        for path, a, b, delta, pct in changed
                    ],
                    "gate": {
                        "enabled": args.gate,
                        "max_regress_pct": args.max_regress,
                        "failures": [
                            {"metric": metric, "a": a, "b": b, "pct": pct}
                            for metric, a, b, pct in gate_failures
                        ],
                    },
                },
                indent=2,
            )
        )
    else:
        print(f"diff {args.run_a} -> {args.run_b}")
        if not changed:
            print("no differences (zero delta)")
        else:
            rows = [
                [
                    path,
                    f"{a:g}",
                    f"{b:g}",
                    f"{delta:+g}",
                    f"{pct:+.2f}%" if pct is not None else "new",
                ]
                for path, a, b, delta, pct in changed
            ]
            print(
                format_table(
                    ["Metric", "A", "B", "Delta", "Pct"],
                    rows,
                    title=f"Changed metrics ({len(changed)})",
                )
            )
        if args.gate:
            if gate_failures:
                print(
                    f"\nGATE FAILED (max regress {args.max_regress:g}%):",
                    file=sys.stderr,
                )
                for metric, a, b, pct in gate_failures:
                    print(
                        f"  {metric}: {a:g} -> {b:g} (+{pct:.2f}%)",
                        file=sys.stderr,
                    )
            else:
                print(f"\ngate passed (max regress {args.max_regress:g}%)")
    return 2 if gate_failures else 0


def _render_top(run, offset: int, aggregates: dict) -> int:
    """Tail new complete lines from events.jsonl into ``aggregates``.

    Returns the new byte offset.  Parsing is plain ``json.loads`` (no
    type-tag rebuilding): the leaderboard needs only scalar fields, and a
    tailed file may legitimately end mid-line — incomplete trailing
    lines are left for the next cycle.
    """
    import json

    events_path = run.path / "events.jsonl"
    if not events_path.exists():
        return offset
    with events_path.open("r", encoding="utf-8") as handle:
        handle.seek(offset)
        chunk = handle.read()
    complete, _, _partial = chunk.rpartition("\n")
    if complete:
        offset += len(complete.encode("utf-8")) + 1
        for line in complete.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            aggregates["events"] += 1
            aggregates["at"] = max(aggregates["at"], float(record.get("at", 0.0)))
            kind = record.get("kind", "?")
            aggregates["kinds"][kind] = aggregates["kinds"].get(kind, 0) + 1
            payload = record.get("payload") or {}
            if kind == "generate":
                key = payload.get("prompt_key", "?")
                version = payload.get("prompt_version")
                name = f"{key}@v{version}" if version is not None else str(key)
                row = aggregates["prompts"].setdefault(
                    name, {"calls": 0, "wall": 0.0, "tokens": 0}
                )
                row["calls"] += 1
                latency = payload.get("latency")
                if isinstance(latency, (int, float)):
                    row["wall"] += float(latency)
                for field in ("prompt_tokens", "output_tokens"):
                    tokens = payload.get(field)
                    if isinstance(tokens, (int, float)):
                        row["tokens"] += int(tokens)
    return offset


def _print_top_snapshot(run, aggregates: dict) -> None:
    from repro.eval.tables import format_table

    status = run.status
    print(
        f"=== spear top — run {run.run_id} [{status}] "
        f"t={aggregates['at']:.2f}s  events={aggregates['events']} ==="
    )
    kinds = ", ".join(
        f"{kind}={count}"
        for kind, count in sorted(aggregates["kinds"].items())
        if not kind.startswith("operator_")
    )
    if kinds:
        print(f"events by kind: {kinds}")
    prompts = sorted(
        aggregates["prompts"].items(),
        key=lambda pair: (-pair[1]["wall"], pair[0]),
    )[:10]
    if prompts:
        rows = [
            [name, row["calls"], f"{row['wall']:.2f}", row["tokens"]]
            for name, row in prompts
        ]
        print(
            format_table(
                ["Prompt", "Calls", "Wall (s)", "Tokens"],
                rows,
                title="Prompt leaderboard (by wall time)",
            )
        )


def _cmd_top(args: argparse.Namespace) -> int:
    import json as _json
    import time as _time

    from repro.obs import Ledger
    from repro.obs.ledger import LedgerRun

    target = args.dir
    if (target / "manifest.json").exists():
        run = LedgerRun(target)
    else:
        latest = Ledger(target).latest()
        if latest is None:
            raise SpearError(f"{target}: no ledger runs to tail")
        run = latest

    aggregates: dict = {"events": 0, "at": 0.0, "kinds": {}, "prompts": {}}
    offset = 0
    while True:
        offset = _render_top(run, offset, aggregates)
        # Re-read the manifest: the writer flips status at finalization.
        run.manifest = _json.loads(
            (run.path / "manifest.json").read_text(encoding="utf-8")
        )
        _print_top_snapshot(run, aggregates)
        if args.once or run.status in ("completed", "failed"):
            return 0
        _time.sleep(args.interval)
        print()


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported lazily: the serve package pulls in the full runtime.
    import json as _json

    from repro.serve import TrafficConfig, build_demo_server, run_traffic

    config = TrafficConfig(
        tenants=args.tenants,
        queue_limit=args.queue_limit,
        overload=args.overload,
        corpus_size=args.corpus,
        seed=args.seed,
    )
    server = build_demo_server(
        config,
        ledger_dir=str(args.ledger_dir) if args.ledger_dir else None,
    )
    metrics = run_traffic(server, config, pipeline=args.pipeline)
    if args.format == "json":
        print(_json.dumps(metrics, indent=2, sort_keys=True))
        return 0
    print(
        f"served {metrics['served']}/{metrics['submitted']} requests "
        f"across {metrics['tenants']} tenants "
        f"(queue limit {metrics['queue_limit']})"
    )
    print(
        f"  shed {metrics['shed']} ({metrics['shed_rate'] * 100:.1f}%)  "
        f"errors {metrics['errors']}"
    )
    print(
        f"  latency p50 {metrics['latency_p50_s']}s  "
        f"p99 {metrics['latency_p99_s']}s (simulated)"
    )
    print(
        f"  queue wait p50 {metrics['queue_wait_p50_s']}s  "
        f"p99 {metrics['queue_wait_p99_s']}s (wall)"
    )
    print(
        f"  throughput {metrics['throughput_rps']} req/s over "
        f"{metrics['wall_elapsed_s']}s wall"
    )
    rows = []
    for name, session in sorted(metrics["sessions"].items()):
        rows.append(
            (
                name,
                session["completed"],
                session["shed"],
                round(session["clock"], 2),
            )
        )
    width = max(len(row[0]) for row in rows) if rows else 6
    print(f"  {'tenant'.ljust(width)}  served  shed  sim_clock_s")
    for name, completed, shed, clock in rows:
        print(f"  {name.ljust(width)}  {completed:>6}  {shed:>4}  {clock:>11}")
    return 0


def _cmd_fmt(args: argparse.Namespace) -> int:
    source = args.file.read_text(encoding="utf-8")
    formatted = format_program(parse(source))
    if args.write:
        args.file.write_text(formatted, encoding="utf-8")
        print(f"reformatted {args.file}")
    else:
        print(formatted, end="")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "experiments": _cmd_experiments,
        "run": _cmd_run,
        "fmt": _cmd_fmt,
        "check": _cmd_check,
        "stats": _cmd_stats,
        "trace": _cmd_trace,
        "runs": _cmd_runs,
        "diff": _cmd_diff,
        "top": _cmd_top,
        "serve": _cmd_serve,
    }
    if args.command in ("check", "stats", "trace", "runs", "diff", "top"):
        # Checked/traced files are untrusted input: a rejected or
        # malformed file is a clean CLI error, not a traceback.
        try:
            return handlers[args.command](args)
        except SpearError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
