"""The one CI gate: ``benchmarks/check_regression.py`` over its row table.

The committed ``BENCH_multitenant.json`` / ``BENCH_volume_scaling.json``,
the bare-disk ``BENCH_read_path`` / ``write_path`` / ``recovery_time`` and
``BENCH_crash_matrix.json`` reports are the inputs: each must pass
against itself, and a copy with any one gated figure broken by hand must
fail with a line naming that figure.
An unusable *committed* report (the cases of ``test_baseline.py``) skips
its comparison rows and still exits 0.
"""

import copy
import json
from pathlib import Path
from typing import NamedTuple

import pytest

from benchmarks.check_regression import (
    COMPARED_KINDS,
    MAX_DIFFERENCES,
    TABLE,
    Row,
    judge,
    lookup,
    main,
)

from tests.bench.test_baseline import write

ROOT = Path(__file__).resolve().parents[2]
REPORTS = {
    "multitenant": ROOT / "BENCH_multitenant.json",
    "volume_scaling": ROOT / "BENCH_volume_scaling.json",
    "read_path": ROOT / "BENCH_read_path.json",
    "write_path": ROOT / "BENCH_write_path.json",
    "recovery_time": ROOT / "BENCH_recovery_time.json",
    "crash_matrix": ROOT / "BENCH_crash_matrix.json",
}


def run(capsys, committed, fresh):
    status = main(["check_regression.py", str(committed), str(fresh)])
    return status, capsys.readouterr().out


def set_path(report, dotted, value):
    """Set ``a.b.0.c``; a tuple spells keys that themselves contain dots."""
    *parents, leaf = dotted.split(".") if isinstance(dotted, str) else dotted
    for key in parents:
        report = report[int(key)] if isinstance(report, list) else report[key]
    report[leaf] = value


def test_lookup_paths():
    report = {
        "a": {"b": 2},
        "pick": 8,
        "arms": [{"n": 4, "x": 1.0}, {"n": 8, "x": 3.0}],
    }
    assert lookup(report, "a.b") == 2
    assert lookup(report, "a.missing") is None
    assert lookup(report, "a.b.deeper") is None
    assert lookup(report, "arms[*].x") == [1.0, 3.0]
    assert lookup(report, "arms[n=pick].x") == 3.0
    assert lookup(report, "arms[n=a.b].x") is None  # no arm with n == 2
    assert lookup(report, "a[*].b") is None  # not a list
    flat = {"metrics": {"disk.seeks": 3, "disk.reads": 5, "lld.flushes": 1}}
    assert lookup(flat, "metrics[disk.*]") == {"disk.seeks": 3, "disk.reads": 5}
    assert lookup(flat, "metrics[fs.*]") is None  # no such keys: absent, not {}
    assert lookup(report, "arms[n*]") is None  # prefix selector needs a dict


def test_every_kind_passes_and_fails():
    fresh = {"flag": True, "x": 2.5, "floor": 2.0, "sweep": [0.0, 0.5, 1.0]}
    ok = [
        Row("t", "flag", "identity"),
        Row("t", "x", "floor", "floor"),
        Row("t", "x", "ceiling", 3.0),
        Row("t", "x", "not-below-committed", 1.25),
        Row("t", "sweep", "monotone-to", 1.0),
    ]
    for row in ok:
        assert judge(row, fresh, {"x": 3.0})[0] == "OK", row
    same = Row("t", "sim", "same-as-committed")
    tree = {"sim": {"seconds": 0.1 + 0.2, "paths": {"rmw": 3}, "sweep": [1, 2]}}
    assert judge(same, tree, json.loads(json.dumps(tree)))[0] == "OK"
    for leaf, value in [("seconds", 0.3), ("paths", {"rmw": 3.0}), ("sweep", [1]), ("extra", 0)]:
        moved = copy.deepcopy(tree)
        moved["sim"][leaf] = value
        status, detail = judge(same, moved, tree)
        assert status == "FAIL" and f"sim.{leaf}" in detail, detail
        assert judge(same, tree, moved)[0] == "FAIL"
    bad = [
        (Row("t", "missing", "identity"), fresh),
        (Row("t", "x", "floor", 2.6), fresh),
        (Row("t", "x", "floor", "no_such_floor"), fresh),
        (Row("t", "x", "ceiling", 2.4), fresh),
        (Row("t", "missing", "ceiling", 2.4), fresh),
        (Row("t", "x", "not-below-committed", 1.25), fresh),  # 2.5 * 1.25 < 3.2
        (Row("t", "sweep", "monotone-to", 1.0), {"sweep": [0.0, 0.6, 0.5, 1.0]}),
        (Row("t", "sweep", "monotone-to", 1.0), {"sweep": [0.0, 0.5]}),
        (Row("t", "sweep", "monotone-to", 1.0), {"sweep": [1.0]}),
    ]
    for row, report in bad:
        assert judge(row, report, {"x": 3.2})[0] == "FAIL", row


def test_failing_same_as_committed_row_lists_every_differing_leaf(capsys, tmp_path):
    """The reason a PR gives for re-committing a report is read off this
    output: each moved leaf as ``path: committed -> now``, not just the
    first one, and a bounded list however much of the subtree moved."""
    row = Row("t", "lld", "same-as-committed")
    committed = {"lld": {"1": {"seconds": 0.5, "reads": 77}, "4": {"seconds": 0.25, "runs": [3, 4]}}}
    fresh = {"lld": {"1": {"seconds": 0.75, "reads": 77}, "4": {"seconds": 0.125, "runs": [3, 5]}}}
    status, detail = judge(row, fresh, committed)
    assert status == "FAIL"
    assert detail.splitlines()[1:] == [
        "       lld.1.seconds: 0.5 -> 0.75",
        "       lld.4.runs.1: 4 -> 5",
        "       lld.4.seconds: 0.25 -> 0.125",
    ]
    wide = {"lld": {f"k{i:02}": i for i in range(MAX_DIFFERENCES + 5)}}
    status, detail = judge(row, {"lld": {key: -1 for key in wide["lld"]}}, wide)
    lines = detail.splitlines()
    assert status == "FAIL" and f"{MAX_DIFFERENCES + 5} leaves" in lines[0]
    assert len(lines) == 1 + MAX_DIFFERENCES + 1 and lines[-1].endswith("... and 5 more")
    # Through the command line: continuation lines are indented, so the
    # one-status-line-per-row shape the other tests count still holds.
    report = json.loads(REPORTS["volume_scaling"].read_text(encoding="utf-8"))
    moved = copy.deepcopy(report)
    moved["lld"]["1"]["recovery_seconds"] = 1.0
    moved["lld"]["4"]["write_seconds"] = 2.0
    status, out = run(capsys, REPORTS["volume_scaling"], write(tmp_path, moved, "fresh.json"))
    assert status == 1
    assert f"lld.1.recovery_seconds: {report['lld']['1']['recovery_seconds']!r} -> 1.0" in out
    assert f"lld.4.write_seconds: {report['lld']['4']['write_seconds']!r} -> 2.0" in out
    assert sum(line.startswith(("OK ", "FAIL ", "SKIP ")) for line in out.splitlines()) == sum(
        r.benchmark == "volume_scaling" for r in TABLE
    )


def test_comparison_rows_skip_without_a_committed_figure():
    row = Row("t", "x", "not-below-committed", 1.25)
    assert judge(row, {"x": 1.0}, None)[0] == "SKIP"
    assert judge(row, {"x": 1.0}, {"other": 3.0})[0] == "SKIP"
    assert judge(row, {}, None)[0] == "FAIL"  # a bad fresh report never skips
    same = Row("t", "x", "same-as-committed")
    assert judge(same, {"x": 1.0}, None)[0] == "SKIP"
    assert judge(same, {"x": 1.0}, {"other": 3.0})[0] == "SKIP"
    assert judge(same, {}, {"x": 1.0})[0] == "FAIL"


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_committed_report_passes_against_itself(capsys, name):
    status, out = run(capsys, REPORTS[name], REPORTS[name])
    assert status == 0, out
    assert out.count("\n") == sum(r.benchmark == name for r in TABLE) + 1
    assert "FAIL" not in out and "SKIP" not in out


class Off(NamedTuple):
    """A simulated leaf broken off the committed value: ``committed *
    factor + plus``, which no re-commit of the report can land on (an
    absolute value can become the committed one, and the case then passes
    for nothing). ``was`` is the absolute value the case was written with,
    kept as its id."""

    was: float
    factor: float = 1.0
    plus: int = 0


def scaled(was: float) -> Off:
    return Off(was, factor=1.01)


def counted(was: int) -> Off:
    return Off(was, plus=1)


def get_path(report, dotted):
    """The value ``set_path`` would replace."""
    for key in dotted.split(".") if isinstance(dotted, str) else dotted:
        report = report[int(key)] if isinstance(report, list) else report[key]
    return report


def case_id(value):
    return str(value.was) if isinstance(value, Off) else None


BROKEN = [
    ("multitenant", "single_tenant.figures_identical", False),
    ("multitenant", "single_tenant.wall_ratio", 2.5),
    ("multitenant", "qos_vs_fifo_throughput_x", 1.9),  # under the 2x floor
    ("multitenant", "qos_vs_fifo_throughput_x", 2.01),  # > 25% under committed
    ("multitenant", "sweep.3.fairness_ratio", 1.6),
    ("multitenant", "fifo_baseline.tenants", 3),  # no qos arm to compare
    ("volume_scaling", "write_speedup_at_4", 2.9),
    ("volume_scaling", "read_speedup_at_4", None),
    ("volume_scaling", "identity.clock_identical", False),
    ("volume_scaling", "identity.stats_identical", False),
    ("volume_scaling", "raid5.write_paths.full_vs_rmw_x", 1.5),
    ("volume_scaling", "raid5.write_paths.full_vs_rmw_x", 3.0),  # vs committed 4.3
    ("volume_scaling", "raid5.degraded_read.reconstructed_reads", 0),
    ("volume_scaling", "raid5.rebuild.2.rebuild_progress", 0.05),  # not monotone
    ("volume_scaling", "raid5.rebuild.3.rebuild_progress", 0.9),  # never completes
    ("volume_scaling", "raid5", None),
    # Simulated leaves must equal the committed report's exactly.
    ("volume_scaling", "identity.volume_clock_s", scaled(4.5343518518518)),
    ("volume_scaling", "raw.4.read_seconds", scaled(2.5444444444444)),
    ("volume_scaling", "lld.4.recovery_read_requests", counted(75)),
    ("volume_scaling", "raid5.write_paths.rmw.rmw_writes", counted(286)),
    ("volume_scaling", "raid5.degraded_read.degraded_mb_per_s", scaled(4.26)),
    # Bare-disk reports: the disk's time model and request stream.
    ("read_path", "baseline.sim_time", scaled(24.9159814814814)),
    ("read_path", "baseline_disk.rotation_time", scaled(19.2009830497293)),
    ("read_path", "baseline_disk.request_sizes.8", counted(1983)),
    ("write_path", "baseline.disk_writes", counted(103)),
    ("write_path", "delta.sim_time", scaled(2.98629629629629)),
    ("write_path", "delta", None),
    ("recovery_time", "ld_seconds", scaled(0.93396296296296)),
    ("recovery_time", "fs_mount_seconds", scaled(0.054)),
    ("recovery_time", ("metrics", "disk.seek_time"), scaled(0.41722508433746)),
    ("recovery_time", ("metrics", "disk.request_sizes", "32"), counted(153)),
    # MINIX on the LD store above the bare disk (appended: the tuple-path
    # rows above take their test ids from their position in this list).
    ("read_path", "fs_demand.sequential.disk_reads", counted(1988)),
    ("read_path", "fs_demand.random.zones_per_ld_request", scaled(1.0)),
    # Commits that wait inside the server again: all their time idled away.
    ("multitenant", "overlap.idle_frac", 0.6),
    ("multitenant", "overlap", None),
    # A stripe cache that silently stopped hitting: the second write of a
    # range reads its old bytes back from the members again.
    ("volume_scaling", "raid5.write_paths.rmw_resident.rewrite_member_reads", 48),
    ("volume_scaling", "raid5.write_paths.rmw_resident", None),
    # Reads that wait inside the server again: none parked on the RAID-5 arm.
    ("multitenant", "overlap.reads_parked", 0),
    # Crash matrix: a moved state count, a violation, an uncaught mutant.
    ("crash_matrix", "checkpoint.raid5_rows.states_explored", counted(2550)),
    ("crash_matrix", "degraded_parity.failed_members.2.states_explored", counted(773)),
    ("crash_matrix", "checkpoint.bare.violation_count", 1),
    ("crash_matrix", "checkpoint.bare.mutant_no_chain.violation_count", 0),
    # Partial rows that pre-read behind a busy member again.
    ("volume_scaling", "raid5.write_paths.busy_member.reconstruct_writes", 0),
    # A rebuild scanner that writes a row before its source reads are back
    # again: the foreground's seconds move off the committed sweep.
    ("volume_scaling", "raid5.rebuild.1.foreground_seconds", scaled(22.953351851851853)),
    # A volume that reads back sectors it never wrote again.
    ("volume_scaling", "raid5.write_paths.blank.member_reads", 576),
    # The multi-tenant arms' simulated leaves: the one the committed report
    # carried before the summary header grew twenty bytes (its stale value
    # from before the row was gated is the current one again), and one of
    # each other subtree.
    ("multitenant", "fifo_baseline.elapsed_sim_s", scaled(3.9748518518518523)),
    ("multitenant", "sweep.0.sched.rounds", counted(74)),
    ("multitenant", "overlap.commit_inflight_s", scaled(1.0064259259259258)),
    ("multitenant", "single_tenant.direct.disk_writes", counted(197)),
    # A scanner that rebuilds a 512 KB chunk in one go again: the read
    # behind it waits for the whole row (what such a scanner measures).
    ("volume_scaling", "raid5.rebuild_512k.worst_read_ms", 436.7962962962966),
]


@pytest.mark.parametrize("name, dotted, value", BROKEN, ids=case_id)
def test_hand_broken_copy_fails_readably(capsys, tmp_path, name, dotted, value):
    report = json.loads(REPORTS[name].read_text(encoding="utf-8"))
    if isinstance(value, Off):
        value = get_path(report, dotted) * value.factor + value.plus
    if name == "multitenant" and dotted.startswith("sweep."):
        arm = report["sweep"][3]
        assert arm["tenants"] == report["fifo_baseline"]["tenants"]
    broken = copy.deepcopy(report)
    set_path(broken, dotted, value)
    status, out = run(capsys, REPORTS[name], write(tmp_path, broken, "fresh.json"))
    assert status == 1, out
    failing = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert failing and all(f"{name}: " in line for line in failing)
    assert out.splitlines()[-1].startswith("FAIL: ")


@pytest.mark.parametrize(
    "committed",
    [None, "{not json", [1, 2, 3], {"schema_version": 2}, {"benchmark": "x"}],
    ids=["missing", "unparseable", "non-object", "schema-mismatch", "figure-less"],
)
def test_unusable_committed_report_skips_and_exits_zero(capsys, tmp_path, committed):
    path = tmp_path / "absent.json"
    if committed is not None:
        path = write(tmp_path, committed, "committed.json")
    status, out = run(capsys, path, REPORTS["volume_scaling"])
    assert status == 0, out
    assert out.startswith("SKIP: committed baseline")
    compared = [
        row for row in TABLE
        if row.benchmark == "volume_scaling" and row.kind in COMPARED_KINDS
    ]
    assert sum(line.startswith("SKIP ") for line in out.splitlines()) == len(compared)
    assert "FAIL" not in out


def test_bad_fresh_report_fails_even_without_a_baseline(capsys, tmp_path):
    fresh = write(tmp_path, {"benchmark": "volume_scaling"}, "fresh.json")
    status, out = run(capsys, tmp_path / "absent.json", fresh)
    assert status == 1
    assert "carries no such figure" in out


def test_unknown_benchmark_and_usage(capsys, tmp_path):
    fresh = write(tmp_path, {"benchmark": "no_such_report"}, "fresh.json")
    status, out = run(capsys, fresh, fresh)
    assert status == 1 and "no rows for benchmark 'no_such_report'" in out
    assert main(["check_regression.py"]) == 2
