"""The run shape every workload shares.

One process runs one workload: an untimed warm-up at a tenth of the
size (imports, regexes, lazy set-up), an untimed oracle run (the
reference outputs, and ``sim_sequential_s`` where a sequential run
exists), then timed repetitions on fresh state — cold caches each time,
because users pay that — until ``seconds`` of wall time have passed.
Host metrics are the median over repetitions, speed-corrected;
``sim_*`` metrics must be identical in every repetition.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any

from bench import trace
from bench.workloads import OUT_DIR, Run, Workload, percentile

MIN_REPS = 3
SETUP_SAMPLES = 9
TINY_DIVISOR = 20
WARMUP_DIVISOR = 10

#: The speed probe: a fixed pure-Python kernel and how long it takes on
#: this box at full speed.  The box is a 2-vCPU VM on shared cores whose
#: effective speed drifts by up to 1.8x over minutes (see README, "Speed
#: correction"); the probe brackets every timed region to measure it.
PROBE_ITERATIONS = 200_000
NOMINAL_PROBE_S = 0.011


def _probe(probes: list[float] | None) -> None:
    """Append one speed sample: the median of five kernel runs."""
    if probes is None:
        return
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(PROBE_ITERATIONS):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    probes.append(statistics.median(times))


def _shrink(size: dict[str, int], divisor: int) -> dict[str, int]:
    return {key: max(1, value // divisor) for key, value in size.items()}


@dataclass
class Repetition:
    #: raw seconds before the first timed call.
    setup_s: float
    run: Run
    #: outputs that differ from the reference.
    wrong: int


def _fresh(
    workload: Workload, seed: int, size: dict[str, int], probes: list[float] | None
) -> tuple[float, Any]:
    """Inputs from the seed + fresh state: ``(setup_s, ctx)``, probed around."""
    gc.collect()
    _probe(probes)
    start = time.perf_counter()
    ctx = workload.setup(workload.inputs(seed, size))
    setup_s = time.perf_counter() - start
    _probe(probes)
    return setup_s, ctx


def _repetition(
    workload: Workload,
    seed: int,
    size: dict[str, int],
    reference: Any,
    probes: list[float] | None = None,
) -> Repetition:
    """Fresh state, one timed run, outputs checked against the reference."""
    setup_s, ctx = _fresh(workload, seed, size, probes)
    try:
        run = workload.run(ctx)
    finally:
        workload.close(ctx)
    _probe(probes)
    wrong = 0 if reference is None else workload.wrong(run.outputs, reference)
    return Repetition(setup_s, run, wrong)


def run_workload(
    workload: Workload,
    *,
    seed: int,
    seconds: float,
    tiny: bool = False,
    traced: bool = False,
    import_s: float = 0.0,
) -> dict[str, Any]:
    """Run one workload end to end; returns its record (see README)."""
    size = _shrink(workload.size, TINY_DIVISOR if tiny else 1)
    _repetition(workload, seed, _shrink(size, WARMUP_DIVISOR), None)

    inputs = workload.inputs(seed, size)
    digest = workload.digest(inputs)
    reference, sim_sequential_s = workload.reference(inputs)
    del inputs

    # Every timed region is bracketed by speed probes; the run's
    # machine-speed factor is their median over the nominal probe time.
    # One factor per process: the box drifts over minutes, while a single
    # 55 ms probe wobbles by 10 % and would add that to every repetition.
    probes: list[float] = []
    reps: list[Repetition] = []
    started = time.perf_counter()
    while True:
        reps.append(_repetition(workload, seed, size, reference, probes))
        if tiny or traced:
            break
        if len(reps) >= MIN_REPS and time.perf_counter() - started >= seconds:
            break
    setups = [rep.setup_s for rep in reps]
    # A set-up is milliseconds against the repetitions' seconds: a few
    # more samples make its median as steady as theirs.
    while not tiny and len(setups) < SETUP_SAMPLES:
        setup_s, ctx = _fresh(workload, seed, size, probes)
        workload.close(ctx)
        setups.append(setup_s)
    speed = statistics.median(probes) / NOMINAL_PROBE_S

    runs = [rep.run for rep in reps]
    attempted = sum(sum(p["sent"] for p in run.phases.values()) for run in runs)
    failed = sum(run.failed for run in runs) + sum(rep.wrong for rep in reps)
    sim_repeats = all(run.sim == runs[0].sim for run in runs)
    if not sim_repeats:
        failed += 1

    last = runs[-1]
    end_to_end = {
        "setup_s": statistics.median(setups) / speed,
        "host_items_per_s": speed
        * statistics.median(run.items / run.host_s for run in runs),
        **last.sim,
        "failed_share": failed / attempted,
    }
    if last.op_ms:
        for name, q in (("host_op_p50_ms", 0.50), ("host_op_p90_ms", 0.90)):
            end_to_end[name] = (
                statistics.median(percentile(run.op_ms, q) for run in runs) / speed
            )
    layers = dict(last.layers)
    if workload.lanes:
        layers["runtime.scheduler.utilization"] = sim_sequential_s / (
            workload.lanes * last.sim_makespan_s
        )

    if traced:
        layers.update(_traced_run(workload, seed, size, reference, last))
    end_to_end["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )

    phases: dict[str, dict[str, int]] = {}
    for run in runs:
        for name, counts in run.phases.items():
            total = phases.setdefault(name, dict.fromkeys(counts, 0))
            for key, value in counts.items():
                total[key] += value
    record = {
        "workload": workload.name,
        "seed": seed,
        "size": size,
        "digest": digest,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "phases": phases,
        "end_to_end": end_to_end,
        "layers": layers,
        "context": {
            "reps": len(reps),
            "driver.import_s": import_s,
            "host_op_samples": len(last.op_ms),
            "sim_repeats_across_reps": sim_repeats,
            "speed": speed,
            "probe_s": probes,
            "host_s_raw": [run.host_s for run in runs],
            "setup_s_raw": setups,
        },
    }
    if sim_sequential_s is not None:
        record["context"]["sim_sequential_s"] = sim_sequential_s
    if tiny:
        record["tiny"] = True
    return record


def _traced_run(
    workload: Workload,
    seed: int,
    size: dict[str, int],
    reference: Any,
    untraced: Run,
) -> dict[str, float]:
    """One more repetition with the tracer installed: the layer table."""
    layers: dict[str, float] = {}
    if workload.growth_divisor:
        small = _repetition(
            workload, seed, _shrink(size, workload.growth_divisor), None
        ).run
        layers["runtime.parallel.host_growth_ratio"] = (
            untraced.host_s / untraced.items
        ) / (small.host_s / small.items)

    tracer = trace.Tracer()
    tracer.install()
    try:
        start, cpu_start = time.perf_counter(), time.thread_time()
        # No probes inside the traced window: they would read as driver
        # time.  The traced numbers are raw seconds.
        run = _repetition(workload, seed, size, reference).run
        wall, cpu = time.perf_counter() - start, time.thread_time() - cpu_start
    finally:
        tracer.uninstall()
    layers.update(tracer.layer_table(wall, cpu))
    layers["trace.overhead_share"] = run.host_s / untraced.host_s - 1
    layers["trace.missing_targets"] = len(tracer.missing)
    for target in tracer.missing:
        print(f"trace: target not found, skipped: {target}", file=sys.stderr)
    events = run.layers.get("runtime.events.events")
    if events:
        layers["runtime.events.host_us_per_event"] = (
            tracer.inclusive_ns("runtime.events") / 1e3 / events
        )

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload.name}.json"
    path.write_text(json.dumps(tracer.dump()))
    return layers
