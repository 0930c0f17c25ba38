"""Command line of the composed-stack benchmark.

Three ways in, one measurement underneath (:func:`runner.measure`):

* **full run** (default): every workload — or ``--workload NAME`` — with
  three untraced repeats and one traced run; prints every metric by name
  with its unit and a layer table per workload, writes ``results.json``
  under ``--out``, and exits non-zero on any correctness failure.
  ``--quick`` (one repeat, a tenth of the ops) is for the self-tests;
  ``--check-agreement`` runs the set twice and compares.
* **one contract run**: ``--workload W --seed N --seconds S --trace 0|1``,
  as ``BENCHMARK.json`` documents; the last stdout line is one JSON object.
* ``--child``: one run in this interpreter, used by the two above.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from benchmarks.e2e.calibrate import REFERENCE_S
from benchmarks.e2e.metrics import END_TO_END, PER_LAYER, RUN_SECONDS, manifest
from benchmarks.e2e.runner import MIN_REPEATS, measure, run_child
from benchmarks.e2e.trace import LAYERS
from benchmarks.e2e.workloads import WORKLOADS

DEFAULT_OUT = Path(__file__).with_name("out")
QUICK_SCALE = 0.1


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1993)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="one workload only")
    parser.add_argument("--quick", action="store_true", help="1 repeat, a tenth of the ops")
    parser.add_argument("--check-agreement", action="store_true",
                        help="run the set twice; fail unless the two agree")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="directory for spans-*.jsonl and results.json")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="contract run: CPU seconds of timed phase to accumulate")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="contract run: 0 = end-to-end metrics, 1 = per-layer")
    parser.add_argument("--manifest", action="store_true", help="print BENCHMARK.json")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def contract_line(report: dict, metrics) -> str:
    """The one JSON object a contract run prints last."""
    values = {**report["end_to_end"], **report["per_layer"]}
    return json.dumps({
        "correct": report["ops_failed"] == 0,
        "attempted": report["ops_attempted"],
        "failed": report["ops_failed"],
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in metrics},
    })


def print_report(report: dict) -> None:
    """Every metric by name with its unit, then the layer table."""
    print(
        f"\n== {report['workload']}  seed {report['seed']}  {report['ops']} ops  "
        f"{report['repeats']} untraced repeat(s)  "
        f"ops_attempted={report['ops_attempted']} ops_failed={report['ops_failed']}"
    )
    for problem in report["problems"]:
        print(f"  FAILED: {problem}")
    print(
        f"  latency samples: {report['latency_samples']} "
        f"(p50 over the {report['waited_samples']} that waited on the disk)"
    )
    print(
        f"  calibration kernel: median {statistics.median(report['kernel_ms']):.2f} ms "
        f"(reference {1000 * REFERENCE_S:g} ms); cpu_us_per_op before scaling "
        f"{report['cpu_us_per_op_unscaled']:.1f} us"
    )
    for metric in END_TO_END:
        print(f"  {metric.name:<34}{report['end_to_end'][metric.name]:>16.6g} {metric.unit}")
    layers = report["per_layer"]
    for metric in PER_LAYER:
        if metric.name in layers:
            print(f"  {metric.name:<34}{layers[metric.name]:>16.6g} {metric.unit}")
    if "fs.calls" in layers:
        print_layer_table(report)


def print_layer_table(report: dict) -> None:
    """Per layer: calls, CPU self, share, simulated self, bytes, amplification.

    The sum row must match the root spans of the traced run (``cpu_share``
    sums to 1 and ``trace.self_sum_error`` is asserted below 1%); the
    end-to-end row is the *untraced* figure, so the two differ by the
    tracing overhead and by the driver's own share of an op. Disk
    simulated time is spindle busy time on private clocks and is left out
    of the simulated sum, which is the shared clock's.
    """
    layers = report["per_layer"]
    e2e = report["end_to_end"]
    print(f"  {'layer':<8}{'calls':>9}{'cpu us/op':>11}{'share':>8}{'sim ms/op':>11}"
          f"{'bytes in':>13}{'amp below':>11}")
    cpu = share = sim = 0.0
    for layer in LAYERS:
        amp = layers.get(f"{layer}.amp_below")
        print(
            f"  {layer:<8}{layers[f'{layer}.calls']:>9.0f}"
            f"{layers[f'{layer}.cpu_self_us_per_op']:>11.2f}"
            f"{layers[f'{layer}.cpu_share']:>8.3f}"
            f"{layers[f'{layer}.sim_self_ms_per_op']:>11.4f}"
            f"{layers[f'{layer}.bytes_in']:>13.0f}"
            + (f"{amp:>11.3f}" if amp is not None else f"{'-':>11}")
        )
        cpu += layers[f"{layer}.cpu_self_us_per_op"]
        share += layers[f"{layer}.cpu_share"]
        if layer != "disk":
            sim += layers[f"{layer}.sim_self_ms_per_op"]
    print(f"  {'sum':<8}{'':>9}{cpu:>11.2f}{share:>8.3f}{sim:>11.4f}")
    print(
        f"  {'end2end':<8}{'':>9}{e2e['cpu_us_per_op']:>11.2f}{'':>8}"
        f"{1000 / e2e['sim_ops_per_s']:>11.4f}   "
        f"(untraced; tracing adds {layers['trace.overhead_frac']:.1%})"
    )


def full_run(args: argparse.Namespace) -> list[dict]:
    names = [args.workload] if args.workload else list(WORKLOADS)
    reports = []
    for name in names:
        report = measure(
            name, args.seed,
            scale=QUICK_SCALE if args.quick else 1.0,
            seconds=0.0,
            repeats=1 if args.quick else MIN_REPEATS,
            traced=True,
            out=args.out,
        )
        print_report(report)
        reports.append(report)
    return reports


def disagreements(first: list[dict], second: list[dict]) -> int:
    """Print the per-metric spread of two full runs; count the violations."""
    bad = 0
    print(f"\n{'workload':<18}{'metric':<18}{'run 1':>14}{'run 2':>14}{'spread':>9}{'bound':>8}")
    for a, b in zip(first, second):
        for metric in END_TO_END:
            x, y = a["end_to_end"][metric.name], b["end_to_end"][metric.name]
            spread = abs(x - y) / min(abs(x), abs(y))
            ok = x == y if metric.exact else spread <= metric.bound
            bad += not ok
            print(
                f"{a['workload']:<18}{metric.name:<18}{x:>14.6g}{y:>14.6g}"
                f"{spread:>9.2%}{metric.bound:>8.0%}{'' if ok else '  DISAGREE'}"
            )
        for metric in PER_LAYER:
            x, y = a["per_layer"][metric.name], b["per_layer"][metric.name]
            if metric.exact and x != y:
                bad += 1
                print(f"{a['workload']:<18}{metric.name}: {x!r} != {y!r}  DISAGREE")
    return bad


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    if args.child:
        print(json.dumps(run_child(args.workload, args.seed, args.scale, bool(args.trace), args.out)))
        return 0
    if args.trace is not None:
        if args.workload is None:
            print("a contract run needs --workload", file=sys.stderr)
            return 2
        traced = bool(args.trace)
        report = measure(
            args.workload, args.seed, scale=1.0, seconds=args.seconds,
            repeats=1 if traced else None, traced=traced, out=args.out,
        )
        for problem in report["problems"]:
            print(f"FAILED: {problem}", file=sys.stderr)
        print(contract_line(report, PER_LAYER if traced else END_TO_END))
        return 0

    reports = full_run(args)
    failed = sum(report["ops_failed"] for report in reports)
    if args.check_agreement:
        failed += disagreements(reports, full_run(args))
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "results.json").write_text(json.dumps(reports, indent=1) + "\n")
    print(f"\nresults: {args.out / 'results.json'}   ops_failed + disagreements: {failed}")
    return 1 if failed else 0
