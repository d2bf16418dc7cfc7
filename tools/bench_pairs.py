#!/usr/bin/env python
"""Alternating benchmark pairs between two checkouts, with the pair rule.

Runs ``python3 -m bench --workload W --seed S --seconds T --trace 0`` in
a parent checkout and in a changed one, one process at a time, for N
pairs whose order alternates (parent first in odd pairs, change first in
even ones), and reads ``host_items_per_s`` from each run's JSON record
line (the last line of stdout).  It prints every pair's values and ratio,
both medians, the parent's q1–q3 spread, the median gap and the wins, and
says whether the gain claim holds: at least 9 wins in 10 and a median gap
wider than the parent's q1–q3 spread.  An untraced record line carries
the three end-to-end metrics only, so bit-equality of ``sim_*`` is
checked apart (``python -m bench --compare`` records, or ``--trace 1``
runs).

Usage::

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload table3_wide \\
        --seed 7 --pairs 10 [--seconds 12] [--json claims/NAME.json]

``--json PATH`` also writes the claim as one record: both sides (their git
commit, or null for a directory that is not a checkout, and a sha256 of
their ``src/`` files), workload, seed, the raw per-pair values, and the
summary with its verdict.  :func:`check_record` recomputes a record's
summary from its raw values; the tier-1 suite runs it over every record
committed under ``claims/``.

Nothing here imports ``bench``: the tool only reads its record line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

#: share of pairs the change must win for a claim.
WIN_SHARE = 0.9


def summarize(parent: list[float], change: list[float]) -> dict[str, Any]:
    """The pair rule over index-aligned values, higher being better.

    Pair ``i`` is ``(parent[i], change[i])``; a tied pair is not a win.
    Quartiles are ``statistics.quantiles(..., n=4, method="inclusive")``;
    ``holds`` needs ``wins >= 0.9 * pairs`` and a median gap wider than
    the parent's q1–q3 spread.
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two equally long lists of at least two values")
    ratios = [c / p for p, c in zip(parent, change)]
    wins = sum(1 for p, c in zip(parent, change) if c > p)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    gap = change_median - parent_median
    return {
        "pairs": len(parent),
        "ratios": ratios,
        "parent_median": parent_median,
        "change_median": change_median,
        "median_ratio": change_median / parent_median,
        "parent_q1": q1,
        "parent_q3": q3,
        "spread": q3 - q1,
        "gap": gap,
        "wins": wins,
        "holds": wins >= WIN_SHARE * len(parent) and gap > q3 - q1,
    }


def check_record(record: dict[str, Any]) -> list[str]:
    """What is wrong with a claim record; empty when it holds up.

    The stored summary must equal :func:`summarize` of the stored raw
    values, field for field, and the verdict must be the one the numbers
    give.  A corrupted raw value, an edited median or a ``holds`` that
    the pairs do not support each show up here.
    """
    problems = []
    try:
        expected = summarize(record["parent_values"], record["change_values"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as error:
        return [f"raw values unreadable: {error!r}"]
    summary = record.get("summary", {})
    for key, value in expected.items():
        stored = summary.get(key)
        if stored != value:
            problems.append(f"{key}: stored {stored!r}, recomputed {value!r}")
    stored, verdict = record.get("holds"), expected["holds"]
    if stored != verdict:
        problems.append(f"holds: stored {stored!r}, the pairs give {verdict!r}")
    if len(record.get("first", ())) != expected["pairs"]:
        problems.append("first: one entry per pair expected")
    return problems


def describe_tree(tree: Path) -> dict[str, Any]:
    """A side of a claim: its git commit (None outside a checkout) and a
    sha256 over its ``src/`` files, paths and bytes in sorted order."""
    done = subprocess.run(
        ["git", "-C", str(tree), "rev-parse", "--show-toplevel", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    lines = done.stdout.split()
    # A copy inside some other checkout is not that checkout's HEAD.
    checkout = (
        done.returncode == 0
        and len(lines) == 2
        and Path(lines[0]).resolve() == tree.resolve()
    )
    digest = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        digest.update(path.relative_to(tree).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "commit": lines[1] if checkout else None,
        "src_sha256": digest.hexdigest(),
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict[str, Any]:
    """One benchmark process in ``tree``; returns its last stdout line, parsed."""
    done = subprocess.run(
        [
            sys.executable, "-m", "bench", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=tree,
        capture_output=True,
        text=True,
        check=False,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"error: {tree}: exit {done.returncode}\n{done.stderr}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout with the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument(
        "--json", type=Path, metavar="PATH", help="also write the claim record here"
    )
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {"parent": [], "change": []}
    first: list[str] = []
    print(f"{args.workload} seed {args.seed}, host_items_per_s")
    print(f"{'pair':>4}  {'first':<6} {'parent':>12} {'change':>12} {'ratio':>8}")
    for index in range(args.pairs):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        first.append(order[0])
        for side in order:
            record = run_once(
                getattr(args, side), args.workload, args.seed, args.seconds
            )
            if not record["correct"] or record["failed"]:
                raise SystemExit(f"error: {side} run {index + 1} is not correct")
            values[side].append(float(record["metrics"]["host_items_per_s"]["value"]))
        parent, change = values["parent"][-1], values["change"][-1]
        print(
            f"{index + 1:>4}  {order[0]:<6} {parent:>12.6g} {change:>12.6g}"
            f" {change / parent:>7.3f}x"
        )

    summary = summarize(values["parent"], values["change"])
    print(
        f"parent median {summary['parent_median']:.6g} (q1 {summary['parent_q1']:.6g},"
        f" q3 {summary['parent_q3']:.6g}, spread {summary['spread']:.6g})"
    )
    print(
        f"change median {summary['change_median']:.6g}"
        f" ({summary['median_ratio']:.3f}x)"
    )
    print(
        f"median gap {summary['gap']:+.6g} against spread {summary['spread']:.6g};"
        f" wins {summary['wins']}/{summary['pairs']}"
    )
    print(f"claim holds: {'yes' if summary['holds'] else 'no'}")
    if args.json is not None:
        record = {
            "metric": "host_items_per_s",
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "parent": describe_tree(args.parent),
            "change": describe_tree(args.change),
            "first": first,
            "parent_values": values["parent"],
            "change_values": values["change"],
            "summary": summary,
            "holds": summary["holds"],
        }
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(record, indent=1) + "\n")
        print(f"record written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
