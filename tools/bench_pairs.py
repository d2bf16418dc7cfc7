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
        --seed 7 --pairs 10 [--seconds 12]

Nothing here imports ``bench``: the tool only reads its record line.
"""

from __future__ import annotations

import argparse
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
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {"parent": [], "change": []}
    print(f"{args.workload} seed {args.seed}, host_items_per_s")
    print(f"{'pair':>4}  {'first':<6} {'parent':>12} {'change':>12} {'ratio':>8}")
    for index in range(args.pairs):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
