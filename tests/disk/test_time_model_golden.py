"""Golden for the disk time model, pinned across CPU-only changes to
``SimulatedDisk._charge_access`` and ``DiskGeometry``.

A seeded stream of 2 000 requests — single sectors, track-sized and
multi-cylinder transfers, runs that end exactly on a track or cylinder
boundary, back-to-back sequential requests and full-stroke jumps — is
issued against the HP C3010 profile and against a tiny geometry whose
tracks and cylinders are a few sectors long, so almost every request
crosses a head and most cross a cylinder. After the stream the test
compares ``repr(clock.now)`` and ``stats.as_dict()``: the float
accumulators only match if every ``advance`` / ``+=`` happened with the
same operands in the same order.

The constants below were captured from the PARENT commit of the PR that
introduced this file (16cbe8b, per-sector dict store, ``decompose()`` per
track) by running, in a checkout of that commit with this file copied in::

    PYTHONPATH=src python tests/disk/test_time_model_golden.py

which prints the ``GOLDEN`` table.
"""

import hashlib
import json
import random

import pytest

from repro.disk import DiskGeometry, SimulatedDisk, hp_c3010
from repro.sim import VirtualClock

REQUESTS = 2000

GEOMETRIES = {
    "hp_c3010": lambda: hp_c3010(capacity_mb=64),
    "tiny": lambda: DiskGeometry(
        sector_size=512,
        sectors_per_track=7,
        heads=3,
        cylinders=23,
        rpm=3600,
        min_seek_ms=2.0,
        max_seek_ms=17.0,
        head_switch_ms=0.7,
        request_overhead_ms=0.9,
    ),
}

GOLDEN = {
    "hp_c3010": (
        "108.34007407407407",
        "3433a71086702081113ff52c4e77a7d6663f155c1796d980a7878c5dda09d023",
    ),
    "tiny": (
        "82.17142857142856",
        "b805eb7a3e4dd304aaef403bc96a62c33400d0c9d913000a4d753c8b3742e6b5",
    ),
}


def request_stream(geo: DiskGeometry, seed: int):
    """``(lba, nsectors, write)`` requests stressing every boundary case."""
    rng = random.Random(seed)
    total = geo.total_sectors
    track = geo.sectors_per_track
    cylinder = geo.sectors_per_cylinder
    cursor = 0
    for _ in range(REQUESTS):
        shape = rng.randrange(6)
        if shape == 0:  # one sector anywhere
            lba, n = rng.randrange(total), 1
        elif shape == 1:  # ends exactly on a track boundary
            lba = rng.randrange(total)
            n = track - lba % track
        elif shape == 2:  # ends exactly on a cylinder boundary
            lba = rng.randrange(total)
            n = cylinder - lba % cylinder
        elif shape == 3:  # several tracks, usually several cylinders
            lba = rng.randrange(total)
            n = rng.randrange(1, 3 * cylinder)
        elif shape == 4:  # sequential: starts where the last request ended
            lba, n = cursor % total, rng.randrange(1, 2 * track)
        else:  # full-stroke jump to either edge
            n = rng.randrange(1, track + 1)
            lba = rng.choice((0, total - n))
        n = min(n, total - lba)
        cursor = lba + n
        yield lba, n, rng.random() < 0.5


def run_stream(name: str) -> tuple[str, str]:
    geo = GEOMETRIES[name]()
    disk = SimulatedDisk(geo, VirtualClock())
    for lba, n, write in request_stream(geo, seed=1993):
        if write:
            disk.write(lba, bytes(n * geo.sector_size))
        else:
            disk.read(lba, n)
    stats = json.dumps(disk.stats.as_dict(), sort_keys=True)
    return repr(disk.clock.now), hashlib.sha256(stats.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_clock_and_stats_match_parent(name):
    assert run_stream(name) == GOLDEN[name]


def test_stream_crosses_every_boundary_kind():
    """The stream is only a golden for the loop if it exercises the loop."""
    for name, make in GEOMETRIES.items():
        geo = make()
        track, cylinder = geo.sectors_per_track, geo.sectors_per_cylinder
        stream = list(request_stream(geo, seed=1993))
        last = [(lba, lba + n - 1) for lba, n, _write in stream]
        assert sum(a // track != b // track for a, b in last) > 200, name
        assert sum(a // cylinder != b // cylinder for a, b in last) > 200, name
        assert sum((lba + n) % track == 0 for lba, n, _ in stream) > 200, name
        assert sum((lba + n) % cylinder == 0 for lba, n, _ in stream) > 200, name


if __name__ == "__main__":
    print("GOLDEN = {")
    for name in sorted(GEOMETRIES):
        now, digest = run_stream(name)
        print(f'    "{name}": (\n        "{now}",\n        "{digest}",\n    ),')
    print("}")
