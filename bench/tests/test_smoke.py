"""Smoke test of the benchmark itself, at ``--tiny`` size.

Run with ``python -m pytest bench/tests -q`` from the repository root;
deliberately outside the tier-1 ``testpaths``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from bench import metrics
from bench.__main__ import main
from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent.parent

_ALWAYS = {"setup_s", "host_items_per_s", "peak_rss_mb", "failed_share"}
_SIM_LATENCY = {"sim_latency_p50_s", "sim_latency_p99_s"}
_HOST_OP = {"host_op_p50_ms", "host_op_p90_ms"}
#: the end-to-end names each workload must emit: exactly these, no n/a pairs.
EXPECTED = {
    "table3_wide": _ALWAYS | {"sim_items_per_s"} | _SIM_LATENCY,
    "hol_mixed": _ALWAYS | {"sim_items_per_s"} | _SIM_LATENCY,
    "refine_loop": _ALWAYS | {"sim_items_per_s"},
    "serve_mixed": _ALWAYS | {"sim_items_per_s"} | _SIM_LATENCY | _HOST_OP,
    "check_cold": _ALWAYS | _HOST_OP,
}


def run_tiny(name: str, tmp_path: Path, *extra: str) -> tuple[int, dict]:
    record = tmp_path / f"{name}.json"
    code = main(["--workload", name, "--tiny", "--record", str(record), *extra])
    return code, json.loads(record.read_text())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_is_correct_and_emits_exactly_the_catalogue(name, tmp_path):
    code, record = run_tiny(name, tmp_path)
    assert code == 0 and record["correct"] and record["failed"] == 0
    assert record["tiny"] is True
    assert set(record["end_to_end"]) == EXPECTED[name]
    assert set(record["layers"]) <= set(metrics.PER_LAYER)
    values = {**record["end_to_end"], **record["layers"]}
    assert all(isinstance(value, (int, float)) for value in values.values())
    assert all(counts["failed"] == 0 for counts in record["phases"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_load_and_same_simulated_numbers(name, tmp_path):
    _, first = run_tiny(name, tmp_path, "--seed", "11")
    _, again = run_tiny(name, tmp_path, "--seed", "11")
    _, other = run_tiny(name, tmp_path, "--seed", "12")
    assert first["digest"] == again["digest"] != other["digest"]
    sim = lambda record: {  # noqa: E731
        key: value
        for key, value in record["end_to_end"].items()
        if key.startswith("sim_")
    }
    assert sim(first) == sim(again)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_a_corrupted_oracle_entry_fails_the_run(name, tmp_path, monkeypatch):
    workload = WORKLOADS[name]
    honest = workload.reference

    def corrupted(inputs):
        reference, sim_sequential_s = honest(inputs)
        # serve_mixed's oracle is keyed by tweet: spoil one that is requested.
        index = inputs[2][0][1] if name == "serve_mixed" else 0
        reference[index] = object()
        return reference, sim_sequential_s

    monkeypatch.setattr(workload, "reference", corrupted)
    code, record = run_tiny(name, tmp_path)
    assert code != 0 and not record["correct"]
    assert record["end_to_end"]["failed_share"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_the_residual_and_every_driver_metric(
    name, tmp_path, capsys
):
    code, record = run_tiny(name, tmp_path, "--trace", "1")
    assert code == 0
    layers = record["layers"]
    assert layers["trace.missing_targets"] == 0
    assert "driver.share" in layers and "trace.overhead_share" in layers
    assert abs(sum(v for k, v in layers.items() if k.endswith(".share")) - 1) < 1e-6
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(metrics.driver_per_layer())


def test_untraced_driver_line_carries_the_gated_metrics(tmp_path, capsys):
    run_tiny("check_cold", tmp_path)
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line["metrics"]) == set(metrics.DRIVER_GATED)
    assert all(entry["value"] > 0 for entry in line["metrics"].values())


def test_benchmark_json_mirrors_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    } == {name: metrics.END_TO_END[name] for name in metrics.DRIVER_GATED}
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]
    } == metrics.driver_per_layer()
