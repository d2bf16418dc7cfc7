#!/usr/bin/env python
"""Seed a regression fixture from a real ledger run (for gate testing).

Copies a finalized ``runs/<run_id>/`` directory and inflates the gated
report totals (cost, tokens) by ``--inflate-pct``, producing a run that
``spear diff <original> <fixture> --gate`` must reject with exit 2.  CI
uses this to prove the gate actually fires — a diff gate that never
fails is indistinguishable from one that never runs.

Usage::

    python tools/seed_regression.py RUNS/runs_0/000001 regressed/
    spear diff RUNS/runs_0/000001 regressed/ --gate   # must exit 2
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

#: report totals inflated in the fixture; must overlap the CLI's gated
#: metrics (``repro.cli._GATE_METRICS``) so the gate trips.
INFLATED_TOTALS = ("cost_usd", "prompt_tokens", "output_tokens")


def seed_regression(run_dir: Path, out_dir: Path, inflate_pct: float) -> list[str]:
    """Copy ``run_dir`` to ``out_dir`` with inflated report totals."""
    report_path = run_dir / "report.json"
    if not report_path.exists():
        raise SystemExit(
            f"error: {run_dir} has no report.json (not a finalized ledger run)"
        )
    if out_dir.exists():
        raise SystemExit(f"error: {out_dir} already exists")
    shutil.copytree(run_dir, out_dir)

    factor = 1.0 + inflate_pct / 100.0
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    totals = report.get("totals", {})
    touched = []
    for key in INFLATED_TOTALS:
        value = totals.get(key)
        if not value:
            continue
        totals[key] = (
            round(value * factor, 6)
            if isinstance(value, float)
            else int(value * factor)
        )
        touched.append(f"{key}: {value} -> {totals[key]}")
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    return touched


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run_dir", type=Path, help="a finalized ledger run")
    parser.add_argument("out_dir", type=Path, help="fixture destination")
    parser.add_argument(
        "--inflate-pct",
        type=float,
        default=10.0,
        help="percent inflation applied to the gated totals (default: 10)",
    )
    args = parser.parse_args(argv)
    touched = seed_regression(args.run_dir, args.out_dir, args.inflate_pct)
    if not touched:
        print("error: no non-zero gated totals to inflate", file=sys.stderr)
        return 1
    print(f"seeded regression fixture at {args.out_dir}:")
    for line in touched:
        print(f"  {line}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
