#!/usr/bin/env python
"""The claim records under ``claims/``, per workload and seed, in commit order.

Prints, for each workload and seed, one line per record: the parent commit
the claim was measured against, the median ratio, the wins and whether the
pair rule held.  The lines are context for the next claim (how far earlier
changes moved the same workload), not claims: each record only speaks for
its own parent and change.

The order is the parent commits' order in ``git log`` when the claims
directory lies in a checkout, oldest first; elsewhere, or for a commit the
log does not hold, it is the file name's (``<parent>-<workload>-seed<S>``).

Usage::

    python tools/claims_trajectory.py [CLAIMS_DIR]
"""

from __future__ import annotations

import argparse
import json
import subprocess
from pathlib import Path
from typing import Any

_CLAIMS = Path(__file__).resolve().parents[1] / "claims"


def commit_order(directory: Path) -> list[str]:
    """Full commit hashes of the checkout holding ``directory``, oldest
    first; empty outside a checkout."""
    done = subprocess.run(
        ["git", "-C", str(directory), "log", "--format=%H"],
        capture_output=True, text=True, check=False,
    )
    return done.stdout.split()[::-1] if done.returncode == 0 else []


def trajectory(directory: Path) -> dict[tuple[str, int], list[dict[str, Any]]]:
    """``(workload, seed)`` -> its records' rows, in commit order.

    A row is ``{"parent", "median_ratio", "wins", "pairs", "holds"}``;
    ``parent`` is the record's parent commit, or its file name's when the
    record names none.
    """
    order = commit_order(directory)
    rows: dict[tuple[str, int], list[tuple[tuple[int, str], dict[str, Any]]]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        parent = record["parent"]["commit"] or path.name.split("-", 1)[0]
        position = next(
            (index for index, commit in enumerate(order) if commit.startswith(parent)),
            len(order),
        )
        summary = record["summary"]
        rows.setdefault((record["workload"], record["seed"]), []).append((
            (position, path.name),
            {
                "parent": parent,
                "median_ratio": summary["median_ratio"],
                "wins": summary["wins"],
                "pairs": summary["pairs"],
                "holds": record["holds"],
            },
        ))
    return {key: [row for _, row in sorted(found)] for key, found in sorted(rows.items())}


def render(table: dict[tuple[str, int], list[dict[str, Any]]]) -> str:
    lines = [
        "Claim records in commit order: context for a new claim, not claims.",
    ]
    for (workload, seed), rows in table.items():
        lines.append(f"{workload} seed {seed}")
        lines.append(f"  {'parent':<7} {'median ratio':>13} {'wins':>7}  holds")
        for row in rows:
            wins = f"{row['wins']}/{row['pairs']}"
            lines.append(
                f"  {row['parent'][:7]:<7} {row['median_ratio']:>12.3f}x"
                f" {wins:>7}  {'yes' if row['holds'] else 'no'}"
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("claims", type=Path, nargs="?", default=_CLAIMS)
    args = parser.parse_args(argv)
    print(render(trajectory(args.claims)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
