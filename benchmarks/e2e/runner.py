"""One run of one workload, and the repeats that make a measurement.

:func:`run_child` is the whole protocol in one process: set-up, the timed
phase cut into fixed op-index batches, the crash phase. :func:`measure`
launches it in fresh child interpreters, one at a time (so ``ru_maxrss``
and heap state do not leak between runs), and folds the repeats:

* simulated, ratio and count figures must be bit-identical across the
  repeats and the traced run — asserted, which doubles as a determinism
  check;
* ``cpu_us_per_op`` is the sum over batches of the *minimum* batch time
  across repeats, divided by ops. The work is deterministic, so the
  minimum of a batch is its cost without interference; summing per-batch
  minima removes far more noise than the minimum of whole-run totals;
* every CPU time is first scaled to reference speed by the calibration
  kernel runs around it (:mod:`benchmarks.e2e.calibrate`), which removes
  the slow drifts of the box that repeats cannot.
"""

from __future__ import annotations

import gc
import json
import resource
import subprocess
import sys
from pathlib import Path
from time import process_time

from benchmarks.e2e.calibrate import REFERENCE_S, at_reference, calibrate
from benchmarks.e2e.metrics import (
    member_bytes,
    percentile,
    ratio,
    snapshot,
    space_amp,
    traced_metrics,
    window_metrics,
)
from benchmarks.e2e.stack import MB, Stack
from benchmarks.e2e.trace import Tracer, layer_table
from benchmarks.e2e.workloads import WORKLOADS

BATCHES = 12
RECOVER_CYCLES = 7
MIN_REPEATS = 3
MAX_REPEATS = 8
CHILD_TIMEOUT_S = 170
RUN_PY = Path(__file__).with_name("run.py")


def run_child(name: str, seed: int, scale: float, traced: bool, out: Path) -> dict:
    """Set up, run the timed phase, crash and recover; return every figure."""
    tracer = Tracer() if traced else None
    workload = WORKLOADS[name](seed, scale)

    setup_speed = calibrate()
    stack = Stack(tracer, group_commit=workload.group_commit)
    workload.setup(stack)
    # From interpreter start: imports are set-up too, and the child process
    # does nothing else before this point.
    setup_cpu_s = process_time()
    speed = [calibrate()]  # kernel times: before the first batch, after each
    workload.reset_tally()

    # -- timed phase ---------------------------------------------------------
    total = workload.total_ops()
    edges = [total * (k + 1) // BATCHES for k in range(BATCHES - 1)]
    steps = workload.steps()
    tally = workload.tally
    lld = stack.lld
    free_min = lld.free_segment_count()
    before = snapshot(stack)
    if tracer is not None:
        tracer.recording = True
    batch_cpu_s: list[float] = []
    k = 0
    cpu = process_time()
    for index, item in enumerate(steps):
        if tracer is not None:
            tracer.request = index
        workload.step(item)
        free = lld.free_segment_count()
        if free < free_min:
            free_min = free
        while k < len(edges) and tally.completed >= edges[k]:
            batch_cpu_s.append(process_time() - cpu)
            speed.append(calibrate())
            cpu = process_time()
            k += 1
    batch_cpu_s.append(process_time() - cpu)
    speed.append(calibrate())
    if tracer is not None:
        tracer.recording = False
    after = snapshot(stack)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ops = tally.completed
    elapsed = after["clock"] - before["clock"]
    latencies = sorted(tally.latencies)
    waited = [latency for latency in latencies if latency > 0.0]
    member_read, member_written = member_bytes(before, after)
    sim = {
        "ops": ops,
        "elapsed_sim_s": elapsed,
        "sim_ops_per_s": ops / elapsed,
        "sim_mb_per_s": (tally.user_read + tally.user_written) / MB / elapsed,
        "sim_op_p50_ms": percentile(waited, 0.50) * 1000,
        "sim_op_p99_ms": percentile(latencies, 0.99) * 1000,
        "latency_samples": len(latencies),
        "waited_samples": len(waited),
        "write_amp": ratio(member_written, tally.user_written),
        "read_amp": ratio(member_read, tally.user_read),
        "space_amp": space_amp(stack, workload.live_bytes()),
    }
    workload.after_timed()
    layers = window_metrics(before, after)
    layers["fs.absorbed_op_frac"] = 1.0 - len(waited) / len(latencies)
    layers["lld.free_segments_min"] = free_min
    layers["sched.tenant_spread"] = 1.0
    layers.update(workload.extra)

    # -- crash phase ---------------------------------------------------------
    workload.play_tail()
    recover_cpu_ms: list[float] = []
    recover_speed = [calibrate()]
    for cycle in range(max(2, round(RECOVER_CYCLES * min(scale, 1.0)))):  # --quick: fewer
        if tracer is not None and cycle == 0:
            tracer.request = -1
            tracer.recording = True
        gc.collect()  # every cycle starts from the same collector state
        sim_start = stack.clock.now
        cpu = process_time()
        stack.crash_and_recover()
        workload.remount()
        recover_cpu_ms.append((process_time() - cpu) * 1000)
        recover_speed.append(calibrate())
        if cycle == 0:
            sim["recover_sim_ms"] = (stack.clock.now - sim_start) * 1000
            report = stack.lld.recovery_report
            layers["lld.recover_segments_scanned"] = report.segments_scanned
            layers["lld.recover_records_seen"] = report.records_seen
            if tracer is not None:
                tracer.recording = False
    workload.verify_after_crash()

    result = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "attempted": workload.tally.attempted,
        "failed": workload.tally.failed,
        "failures": workload.tally.failures,
        "sim": sim,
        "layers": layers,
        "setup_cpu_s": setup_cpu_s,
        "setup_speed_s": setup_speed,
        "batch_cpu_s": batch_cpu_s,
        "speed_s": speed,
        "recover_cpu_ms": recover_cpu_ms,
        "recover_speed_s": recover_speed,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        timed = [s for s in tracer.spans if s.request >= 0]
        mean_speed = sum(speed) / len(speed)
        result["trace"] = traced_metrics(
            layer_table(timed, tracer.extra_bytes), ops, REFERENCE_S / mean_speed
        )
        out.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(out / f"spans-{name}.jsonl")
    return result


def spawn(name: str, seed: int, scale: float, traced: bool, out: Path) -> dict:
    """Run :func:`run_child` in a fresh interpreter and parse its last line."""
    done = subprocess.run(
        [
            sys.executable, str(RUN_PY), "--child", "--workload", name,
            "--seed", str(seed), "--scale", repr(scale),
            "--trace", str(int(traced)), "--out", str(out),
        ],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{name} child exited with {done.returncode}:\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _batch(run: dict, k: int) -> float:
    """CPU seconds of batch ``k`` of one run, at reference speed."""
    return at_reference(run["batch_cpu_s"][k], *run["speed_s"][k : k + 2])


def measure(
    name: str, seed: int, *, scale: float, seconds: float, repeats: int | None,
    traced: bool, out: Path,
) -> dict:
    """Untraced repeats (and one traced run) of one workload, folded.

    With ``repeats=None`` the identical stream is repeated until the timed
    phases add up to ``seconds`` of CPU, at least ``MIN_REPEATS`` times.
    """
    runs = []
    timed_cpu = 0.0
    while len(runs) < (repeats or MAX_REPEATS):
        runs.append(spawn(name, seed, scale, False, out))
        timed_cpu += sum(runs[-1]["batch_cpu_s"])
        if repeats is None and len(runs) >= MIN_REPEATS and timed_cpu >= seconds:
            break
    first = runs[0]
    mismatches: list[str] = []  # figures that must repeat exactly and did not
    trace_run = spawn(name, seed, scale, True, out) if traced else None
    for run in (*runs[1:], *([trace_run] if trace_run else [])):
        for section in ("sim", "layers", "attempted", "failed"):
            if run[section] != first[section]:
                mismatches.append(f"{section} figures differ between runs of one seed")

    ops = first["sim"]["ops"]
    batch_min = [min(_batch(run, k) for run in runs) for k in range(BATCHES)]
    end_to_end = {
        key: first["sim"][key]
        for key in (
            "sim_ops_per_s", "sim_mb_per_s", "sim_op_p50_ms", "sim_op_p99_ms",
            "write_amp", "read_amp", "space_amp", "recover_sim_ms",
        )
    }
    end_to_end["setup_s"] = min(
        at_reference(run["setup_cpu_s"], run["setup_speed_s"], run["speed_s"][0]) for run in runs
    )
    end_to_end["cpu_us_per_op"] = sum(batch_min) / ops * 1e6
    end_to_end["peak_rss_mb"] = min(run["peak_rss_mb"] for run in runs)
    end_to_end["recover_cpu_ms"] = min(
        at_reference(ms, *run["recover_speed_s"][cycle : cycle + 2])
        for run in runs
        for cycle, ms in enumerate(run["recover_cpu_ms"])
    )

    per_layer = dict(first["layers"])
    if trace_run is not None:
        per_layer.update(trace_run["trace"])
        per_layer["trace.overhead_frac"] = (
            sum(_batch(trace_run, k) for k in range(BATCHES)) / sum(batch_min) - 1.0
        )
        if per_layer["trace.self_sum_error"] > 0.01:
            mismatches.append("layer self times do not sum to the root spans within 1%")
    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "repeats": len(runs),
        "ops": ops,
        "latency_samples": first["sim"]["latency_samples"],
        "waited_samples": first["sim"]["waited_samples"],
        "ops_attempted": first["attempted"],
        "ops_failed": first["failed"] + len(mismatches),
        "problems": first["failures"] + mismatches,
        "kernel_ms": [1000 * t for run in runs for t in run["speed_s"]],
        "cpu_us_per_op_unscaled": sum(
            min(run["batch_cpu_s"][k] for run in runs) for k in range(BATCHES)
        ) / ops * 1e6,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
