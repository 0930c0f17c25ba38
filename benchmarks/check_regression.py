"""CI gate: one table of acceptance rows over the committed BENCH reports.

Usage::

    python benchmarks/check_regression.py REPORT_COMMITTED REPORT_FRESH

The fresh report's ``"benchmark"`` name selects its rows from ``TABLE``;
each row is ``(benchmark, json-path, kind, bound)`` and prints one line:

* ``identity`` — the flag at the path must be ``true`` (a layer that
  claims to be figure-identical to what it wraps still is);
* ``floor`` / ``ceiling`` — the figure must stay ``>=`` / ``<=`` the
  bound, a number or a json-path to the floor the report itself records;
* ``not-below-committed`` — the figure times the slack must reach the
  committed report's (simulated figures: at equal scale they match
  exactly, so the slack only absorbs a deliberate re-scale);
* ``same-as-committed`` — the value (a figure or a whole subtree) must
  equal the committed report's exactly: simulated figures are
  deterministic, so a CPU-only or structural change moves none of them.
  A failing row lists every differing leaf as ``path: committed -> now``
  (the first dozen), which is the line a PR that moves one on purpose
  quotes as its reason for re-committing the report;
* ``monotone-to`` — a sweep's figures never decrease and end at or above
  the bound.

Paths: ``a.b`` descends keys, ``a[*].b`` collects ``b`` over list ``a``,
``a[k=p].b`` picks the element of ``a`` whose ``k`` equals the report's
value at path ``p``, and ``a[p*]`` keeps the keys of dict ``a`` that start
with ``p`` (the flat ``"disk.seeks"``-style keys of a ``metrics`` block,
which a dotted path cannot name). A figure the *fresh* report lacks fails
its row — it was produced by the very CI run being judged. A missing,
unreadable, schema-incompatible or figure-less *committed* report is not
a regression: its rows print SKIP and the exit status stays 0.

There are no CPU rows: real-time claims are judged end to end and
calibrated on ``cpu_us_per_op`` by ``benchmarks/e2e`` (BENCHMARK.json).
"""

from __future__ import annotations

import json
import re
import sys
from typing import Callable, NamedTuple

#: Report schema the gate understands; reports carrying a different
#: ``schema_version`` cannot be compared. Reports without the key predate
#: versioning and use the version-1 shape.
SCHEMA_VERSION = 1

SLACK = 1.25

#: Row kinds that read the committed report (and SKIP when it is unusable).
COMPARED_KINDS = ("not-below-committed", "same-as-committed")


class Row(NamedTuple):
    benchmark: str
    path: str
    kind: str
    bound: float | str | None = None


TABLE = [
    # Multi-tenant scheduler (BENCH_multitenant.json): one tenant through
    # the scheduler reproduces the direct path's simulated figures, the
    # queue hop stays a gross-regression guard (wall time is
    # machine-dependent), and QoS keeps paying for itself against FIFO.
    Row("multitenant", "single_tenant.figures_identical", "identity"),
    Row("multitenant", "single_tenant.wall_ratio", "ceiling", 2.0),
    Row("multitenant", "qos_vs_fifo_throughput_x", "floor", "throughput_floor_x"),
    Row("multitenant", "qos_vs_fifo_throughput_x", "not-below-committed", SLACK),
    Row(
        "multitenant",
        "sweep[tenants=fifo_baseline.tenants].fairness_ratio",
        "ceiling",
        "fairness_ceiling",
    ),
    # Commits do not stop the server: of the time group commits were in
    # flight on the RAID-5 arm, the share the server idled away (the rest
    # was covered by other tenants' ops).
    Row("multitenant", "overlap.idle_frac", "ceiling", "idle_frac_ceiling"),
    # ... and neither do reads: the arm's reads are parked while the
    # members work, not waited for (a server that reads synchronously
    # again parks none).
    Row("multitenant", "overlap.reads_parked", "floor", "reads_parked_floor"),
    # Volume layer (BENCH_volume_scaling.json): N=4 scaling, the 1-member
    # volume identical to the bare disk it wraps, and the RAID-5 arms —
    # full-stripe beats read-modify-write, degraded reads really
    # reconstruct, the rebuild-rate sweep completes at its top rate.
    Row("volume_scaling", "write_speedup_at_4", "floor", "speedup_floor"),
    Row("volume_scaling", "read_speedup_at_4", "floor", "speedup_floor"),
    Row("volume_scaling", "write_speedup_at_4", "not-below-committed", SLACK),
    Row("volume_scaling", "identity.clock_identical", "identity"),
    Row("volume_scaling", "identity.stats_identical", "identity"),
    Row(
        "volume_scaling",
        "raid5.write_paths.full_vs_rmw_x",
        "floor",
        "raid5.full_vs_rmw_floor",
    ),
    Row(
        "volume_scaling",
        "raid5.write_paths.full_vs_rmw_x",
        "not-below-committed",
        SLACK,
    ),
    # A sub-chunk range written twice: the second write's pre-reads come
    # from the volume's stripe cache, so it issues no member read at all.
    Row(
        "volume_scaling",
        "raid5.write_paths.rmw_resident.rewrite_member_reads",
        "ceiling",
        0,
    ),
    Row("volume_scaling", "raid5.degraded_read.reconstructed_reads", "floor", 1),
    Row("volume_scaling", "raid5.rebuild[*].rebuild_progress", "monotone-to", 1.0),
    # Every leaf under these is simulated (virtual-clock seconds, request
    # and path counters), so each must reproduce the committed value bit
    # for bit — "simulated figures byte-identical", checked here instead
    # of by hand in each PR.
    Row("volume_scaling", "identity.volume_clock_s", "same-as-committed"),
    Row("volume_scaling", "raw", "same-as-committed"),
    Row("volume_scaling", "lld", "same-as-committed"),
    # The raw LD streaming onto RAID-5: seconds, full-stripe and RMW counts,
    # parity write amplification (the log leaves a stripe row at a time).
    Row("volume_scaling", "lld_raid5", "same-as-committed"),
    Row("volume_scaling", "raid5.write_paths", "same-as-committed"),
    Row("volume_scaling", "raid5.degraded_read", "same-as-committed"),
    # Bare-disk reports (one SimulatedDisk under the LLD, no volume): the
    # same rule for the figures a change to the disk's byte store or time
    # model would move first — request counts, every DiskStats float, the
    # virtual-clock seconds of each arm.
    Row("read_path", "baseline", "same-as-committed"),
    Row("read_path", "baseline_disk", "same-as-committed"),
    # MINIX on the LD store above the same bare disk: cold 8 KB fs.read
    # calls, sequential and random — seconds, disk requests, zones per LD
    # request (the demand gather of DESIGN.md §7).
    Row("read_path", "fs_demand", "same-as-committed"),
    Row("write_path", "baseline", "same-as-committed"),
    Row("write_path", "delta", "same-as-committed"),
    # The default build's crash recovery (a checkpoint and its tail) takes
    # at most half the one-slot build's sweep of the same crash.
    Row("recovery_time", "checkpoint.ld_seconds", "ceiling", "checkpoint.ld_seconds_ceiling"),
    # So does a crash on a full log, following the chain past the list.
    Row("recovery_time", "full_log.ld_seconds", "ceiling", "full_log.ld_seconds_ceiling"),
    Row("recovery_time", "ld_seconds", "same-as-committed"),
    Row("recovery_time", "fs_mount_seconds", "same-as-committed"),
    Row("recovery_time", "clean_start_seconds", "same-as-committed"),
    Row("recovery_time", "metrics[disk.*]", "same-as-committed"),
]


class BaselineUnusable(Exception):
    """The committed baseline cannot participate in the comparison."""


def load_committed_baseline(
    path: str,
    *,
    schema_version: int = SCHEMA_VERSION,
    require: Callable[[dict], str | None] | None = None,
) -> dict:
    """The committed report, or :class:`BaselineUnusable` explaining why.

    ``require`` receives the parsed report and returns a human-readable
    reason when it lacks the figures the gate compares (``None`` when
    usable); the reason is folded into the exception message.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
    except FileNotFoundError:
        raise BaselineUnusable(f"committed baseline {path!r} does not exist")
    except (OSError, ValueError) as exc:
        raise BaselineUnusable(f"committed baseline {path!r} is unreadable: {exc}")
    if not isinstance(report, dict):
        raise BaselineUnusable(
            f"committed baseline {path!r} is not a report object "
            f"(got {type(report).__name__})"
        )
    version = report.get("schema_version", 1)
    if version != schema_version:
        raise BaselineUnusable(
            f"committed baseline {path!r} has schema_version {version!r}, "
            f"this checker understands {schema_version}"
        )
    if require is not None:
        reason = require(report)
        if reason:
            raise BaselineUnusable(f"committed baseline {path!r} {reason}")
    return report


_PART = re.compile(r"([^.\[\]]+)(?:\[([^\]]*)\])?")


def lookup(report: dict, path: str):
    """The value at ``path`` (see the module docstring), ``None`` if absent."""
    return _walk(report, report, _PART.findall(path))


def _walk(root: dict, node, parts: list[tuple[str, str]]):
    for i, (key, selector) in enumerate(parts):
        node = node.get(key) if isinstance(node, dict) else None
        if not selector:
            continue
        prefix = selector[:-1]
        if prefix and selector.endswith("*") and isinstance(node, dict):
            node = {k: v for k, v in node.items() if k.startswith(prefix)} or None
            continue
        if not isinstance(node, list):
            return None
        if selector == "*":
            return [_walk(root, item, parts[i + 1 :]) for item in node]
        field, _, ref = selector.partition("=")
        want = lookup(root, ref)
        node = next(
            (item for item in node if isinstance(item, dict) and item.get(field) == want),
            None,
        )
    return node


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: Differing leaves a failing ``same-as-committed`` row spells out.
MAX_DIFFERENCES = 12


def differences(committed, fresh, at: str = "") -> list[str]:
    """Every leaf where two JSON values differ, as ``path: committed -> now``.

    Dicts descend by key, lists of equal length by index; anything else —
    two lists of different lengths included — is one leaf.
    """
    if isinstance(committed, dict) and isinstance(fresh, dict):
        keys = sorted(committed.keys() | fresh.keys())
        pairs = [(key, committed.get(key), fresh.get(key)) for key in keys]
    elif (
        isinstance(committed, list)
        and isinstance(fresh, list)
        and len(committed) == len(fresh)
    ):
        pairs = [(i, a, b) for i, (a, b) in enumerate(zip(committed, fresh))]
    elif json.dumps(committed, sort_keys=True) == json.dumps(fresh, sort_keys=True):
        return []  # the same bytes in a report: 3 and 3.0 are not
    else:
        return [f"{at}: {committed!r} -> {fresh!r}"]
    return [line for key, a, b in pairs for line in differences(a, b, f"{at}.{key}")]


def judge(row: Row, fresh: dict, committed: dict | None) -> tuple[str, str]:
    """``(OK | FAIL | SKIP, detail)`` for one row."""
    value = lookup(fresh, row.path)
    if row.kind == "identity":
        return ("OK" if value is True else "FAIL"), f"is {value!r} (must be true)"
    if row.kind == "same-as-committed":
        if value is None:
            return "FAIL", "is absent: the fresh report carries no such figure"
        base = None if committed is None else lookup(committed, row.path)
        if base is None:
            return "SKIP", "no usable committed baseline for it"
        found = differences(base, value, row.path)
        if not found:
            return "OK", "equals the committed report's"
        shown = found[:MAX_DIFFERENCES]
        if len(found) > len(shown):
            shown.append(f"... and {len(found) - len(shown)} more")
        return "FAIL", f"differs in {len(found)} leaves, committed -> now:" + "".join(
            f"\n       {line}" for line in shown
        )
    if row.kind == "monotone-to":
        ok = (
            isinstance(value, list)
            and len(value) >= 2
            and all(_is_number(v) for v in value)
            and value == sorted(value)
            and value[-1] >= row.bound
        )
        detail = f"= {value!r} (never decreasing, reaching {row.bound})"
        return ("OK" if ok else "FAIL"), detail
    if not _is_number(value):
        return "FAIL", f"is {value!r}: the fresh report carries no such figure"
    if row.kind == "not-below-committed":
        if committed is None:
            return "SKIP", "no usable committed baseline"
        base = lookup(committed, row.path)
        if not _is_number(base) or not base:
            return "SKIP", "committed baseline carries no such figure"
        detail = (
            f"= {value:.4g}, committed {base:.4g} "
            f"(allowed >= {base / row.bound:.4g})"
        )
        return ("OK" if value * row.bound >= base else "FAIL"), detail
    bound = lookup(fresh, row.bound) if isinstance(row.bound, str) else row.bound
    if not _is_number(bound):
        return "FAIL", f"has no bound: the fresh report carries no {row.bound}"
    ok = value >= bound if row.kind == "floor" else value <= bound
    return ("OK" if ok else "FAIL"), f"= {value:.4g} ({row.kind} {bound})"


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    with open(argv[2], encoding="utf-8") as handle:
        fresh = json.load(handle)
    name = fresh.get("benchmark")
    rows = [row for row in TABLE if row.benchmark == name]
    if not rows:
        print(f"FAIL: the gate has no rows for benchmark {name!r}")
        return 1

    compared = [row.path for row in rows if row.kind in COMPARED_KINDS]

    def figure_less(report: dict) -> str | None:
        if not any(lookup(report, path) for path in compared):
            return f"carries none of the compared figures ({', '.join(compared)})"
        return None

    try:
        committed = load_committed_baseline(argv[1], require=figure_less)
    except BaselineUnusable as exc:
        print(f"SKIP: {exc}")
        committed = None

    failed = 0
    for row in rows:
        status, detail = judge(row, fresh, committed)
        failed += status == "FAIL"
        print(f"{status:<4} {name}: {row.path} {detail}")
    if failed:
        print(f"FAIL: {failed} of {len(rows)} {name} rows outside their bounds")
        return 1
    print(f"OK: {name} figures within thresholds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
