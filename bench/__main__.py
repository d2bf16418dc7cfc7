"""``python -m bench`` — the two-clock benchmark.

Two ways in:

- ``python -m bench [--only W] [--seed N] [--trace] [--repeat N --compare]``
  runs every workload in its own fresh subprocess, prints every metric
  by name with its unit, and writes the JSON record set.
- ``python -m bench --workload W --seed N --seconds S --trace 0|1`` runs
  one workload in this process and prints, as the last line, the
  ``{"correct", "attempted", "failed", "metrics"}`` object the PR driver
  reads.  The first form is a loop over the second.

The package finds ``src/`` next to itself, so no ``PYTHONPATH`` is needed.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

from bench import metrics  # noqa: E402
from bench.harness import run_workload  # noqa: E402
from bench.workloads import OUT_DIR, WORKLOADS  # noqa: E402

_IMPORT_S = time.perf_counter() - _STARTED


def _print_record(record: dict[str, Any]) -> None:
    name = record["workload"]
    context = record["context"]
    print(
        f"== {name} seed={record['seed']} size={record['size']} "
        f"digest={record['digest']} reps={context['reps']}"
        + (" TINY" if record.get("tiny") else "")
    )
    for phase, counts in record["phases"].items():
        print(f"   phase {phase}: " + " ".join(f"{k}={v}" for k, v in counts.items()))
    for metric, value in record["end_to_end"].items():
        note = ""
        if metric.startswith("host_op_"):
            note = f"  (n={context['host_op_samples']} per repetition)"
        elif metric == "setup_s":
            note = f"  (driver.import_s={context['driver.import_s']:.3f} s)"
        print(f"   {metric:<46}{value:>16.6g} {metrics.unit_of(metric)}{note}")
    layers = record["layers"]
    spans = {m for m in layers if m.rpartition(".")[2] in metrics.SPAN_FIELDS}
    for metric, value in layers.items():
        if metric in spans:
            continue
        note = ""
        if metric == "runtime.scheduler.utilization":
            note = f"  (sim_sequential_s={context['sim_sequential_s']:.4f})"
        print(f"   {metric:<46}{value:>16.6g} {metrics.unit_of(metric)}{note}")
    if spans:
        # The traced run's layer table, busiest (by CPU) first.
        print(f"   {'layer':<24}{'calls':>9}{'self_s':>11}{'cpu_s':>10}{'share':>9}")
        for layer in sorted(
            {m.rpartition(".")[0] for m in spans},
            key=lambda layer: -layers[f"{layer}.cpu_s"],
        ):
            row = [layers.get(f"{layer}.{what}", 0) for what in metrics.SPAN_FIELDS]
            print("   {:<24}{:>9.0f}{:>11.4f}{:>10.4f}{:>9.4f}".format(layer, *row))


def _driver_line(record: dict[str, Any], traced: bool) -> str:
    """The PR driver's contract: every listed metric, on every workload.

    The driver wants each ``per_layer`` name on each workload, so a pair
    that does not apply (a layer the workload bypasses) reads 0 *here
    only*; the record itself omits such pairs.
    """
    values = {**record["end_to_end"], **record["layers"]}
    names = metrics.driver_per_layer() if traced else metrics.DRIVER_GATED
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": values.get(name, 0), "unit": metrics.unit_of(name)}
                for name in names
            },
        }
    )


def _run_here(args: argparse.Namespace) -> int:
    record = run_workload(
        WORKLOADS[args.workload],
        seed=args.seed,
        seconds=args.seconds,
        tiny=args.tiny,
        traced=bool(args.trace),
        import_s=_IMPORT_S,
    )
    _print_record(record)
    if args.record:
        Path(args.record).write_text(json.dumps(record))
    print(_driver_line(record, bool(args.trace)))
    return 0 if record["correct"] else 1


def _spawn(name: str, args: argparse.Namespace, traced: bool) -> dict[str, Any]:
    """One workload in a fresh interpreter, so ``peak_rss_mb`` is its own."""
    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / f"record-{name}.json"
    record_path.unlink(missing_ok=True)
    command = [
        sys.executable, "-m", "bench", "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(int(traced)), "--record", str(record_path),
    ] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(command, cwd=ROOT, check=False)
    if not record_path.exists():
        raise SystemExit(f"{name}: exited {done.returncode} without a record")
    return json.loads(record_path.read_text())


def _run_set(args: argparse.Namespace) -> dict[str, Any]:
    records = {}
    for name in args.only or list(WORKLOADS):
        record = _spawn(name, args, traced=False)
        if args.trace:
            # End-to-end numbers always come from the untraced process.
            record["layers"].update(_spawn(name, args, traced=True)["layers"])
        records[name] = record
    return records


def _compare(sets: list[dict[str, Any]]) -> tuple[list[dict[str, Any]], bool]:
    """Per (metric, workload): every value, the relative gap and the bound."""
    rows, passed = [], True
    for name in sets[0]:
        for metric, (unit, _, bound) in metrics.END_TO_END.items():
            values = [s[name]["end_to_end"].get(metric) for s in sets]
            if values[0] is None:
                continue
            middle = statistics.median(values)
            gap = (max(values) - min(values)) / middle if middle else 0.0
            if bound == 0.0:
                verdict = "equal" if gap == 0.0 else "DIFFERENT"
            else:
                # A spread wider than the bound cannot show "unchanged".
                verdict = "within bound" if gap <= bound else "UNRESOLVED"
            passed = passed and verdict in ("equal", "within bound")
            rows.append(
                {
                    "workload": name, "metric": metric, "unit": unit,
                    "values": values, "gap": gap, "bound": bound,
                    "verdict": verdict,
                }
            )
    print(f"\n{'workload':<13}{'metric':<20}{'values':<34}{'gap':>9}{'bound':>7}  verdict")
    for row in rows:
        shown = " ".join(f"{value:.6g}" for value in row["values"])
        print(
            f"{row['workload']:<13}{row['metric']:<20}{shown:<34}"
            f"{row['gap']:>9.4f}{row['bound']:>7.2f}  {row['verdict']}"
        )
    return rows, passed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run this one workload in-process (driver contract)")
    parser.add_argument("--only", action="append", choices=list(WORKLOADS),
                        help="restrict the set to this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=7,
                        help="input seed; a claim must also hold at a seed other than 7")
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="wall time the timed repetitions of one workload fill")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="also do the traced per-layer run")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size (1/20, one repetition); never commit")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the whole set this many times")
    parser.add_argument("--compare", action="store_true",
                        help="with --repeat: print the per-row agreement table")
    parser.add_argument("--output", type=Path, default=OUT_DIR / "results.json")
    parser.add_argument("--record", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload:
        return _run_here(args)

    sets = [_run_set(args) for _ in range(args.repeat)]
    result: dict[str, Any] = {
        "seed": args.seed, "seconds": args.seconds, "traced": bool(args.trace),
        "sets": sets,
    }
    if args.tiny:
        result["tiny"] = True
    passed = all(record["correct"] for s in sets for record in s.values())
    if args.compare:
        result["compare"], agree = _compare(sets)
        passed = passed and agree
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(result, indent=1) + "\n")
    print(f"\nwrote {args.output}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
