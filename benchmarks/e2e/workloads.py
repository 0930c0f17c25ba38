"""The five workloads: seeded op streams and the code that drives them.

Each workload has a *pure* part — :meth:`Workload.stream` and
:meth:`Workload.tail`, functions of ``(seed, scale)`` alone — and a driven
part that plays the stream against a :class:`~benchmarks.e2e.stack.Stack`
and checks every read-back against the shadow model. The program under
test receives only the generated inputs.

A stream is a list of tuples. Ops are the unit of every per-op metric:

* ``("create", fid, size, sync)`` / ``("readfile", fid)`` /
  ``("unlink", fid, sync)`` — whole small files;
* ``("write", fid, unit, sync)`` / ``("read", fid, unit)`` — one I/O unit
  of a file that stays open.

Markers are played but are not ops: ``("drop",)`` (``drop_caches`` at a
phase boundary), ``("fail", member)``, ``("replace", member)``,
``("mark",)`` and the closing ``("commit",)``, after which every
write of the stream is acknowledged.
"""

from __future__ import annotations

from random import Random

from benchmarks.e2e.model import FileSet, RawSet, Tally
from benchmarks.e2e.stack import KB, MB, Stack

MARKERS = frozenset({"drop", "fail", "replace", "mark", "commit"})


SMALL_SIZES = (1 * KB, 2 * KB, 4 * KB)
SMALL_SYNC_EVERY = 8


def small_sizes(rng: Random, count: int) -> list[int]:
    sizes = [SMALL_SIZES[i % 3] for i in range(count)]  # equal thirds: the bytes
    rng.shuffle(sizes)  # do not vary with the seed, only their order does
    return sizes


def small_file_round(
    rng: Random, live: list[int], next_fid: int, count: int, *, drop: bool
) -> list[tuple]:
    """Create ``count`` files, read ``count`` live ones, unlink ``count``.

    ``live`` is updated in place; with ``drop`` the reads start from a cold
    buffer cache.
    """
    every = SMALL_SYNC_EVERY
    ops: list[tuple] = []
    for i, size in enumerate(small_sizes(rng, count)):
        ops.append(("create", next_fid + i, size, i % every == every - 1))
        live.append(next_fid + i)
    if drop:
        ops.append(("drop",))
    ops.extend(("readfile", fid) for fid in rng.sample(live, count))
    victims = rng.sample(live, count)
    ops.extend(("unlink", fid, i % every == every - 1) for i, fid in enumerate(victims))
    gone = set(victims)
    live[:] = [fid for fid in live if fid not in gone]
    return ops


def _xor(buffers) -> bytes:
    acc = 0
    for buf in buffers:
        acc ^= int.from_bytes(buf, "little")
    return acc.to_bytes(len(buf), "little")


class Workload:
    """Base: accounting, the stream player for one MINIX tenant."""

    name = ""
    why = ""
    group_commit = 1
    unit = 4 * KB

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale
        self.tally = Tally()
        #: Figures a workload measures itself, keyed by per-layer metric name.
        self.extra: dict[str, float] = {}
        #: Whatever ``("mark",)`` markers record, in stream order.
        self.marks: list = []
        self.stack: Stack | None = None
        self.files: FileSet | None = None

    def rng(self, part: str) -> Random:
        return Random(f"{self.name}:{self.seed}:{part}")

    def scaled(self, full: int) -> int:
        return max(1, round(full * self.scale))

    # -- the pure part -----------------------------------------------------

    def stream(self) -> list[tuple]:
        raise NotImplementedError

    def tail(self) -> list[tuple]:
        """A handful of un-synced ops played just before the crash."""
        raise NotImplementedError

    def total_ops(self) -> int:
        return sum(1 for op in self.stream() if op[0] not in MARKERS)

    # -- the driven part ---------------------------------------------------

    def steps(self):
        return iter(self.stream())

    def setup(self, stack: Stack) -> None:
        """Add the tenant, pre-populate, and run one untimed warm-up pass."""
        self.stack = stack
        self.files = FileSet(self.tally, stack.add_minix("fs"), self.seed, self.unit)
        self.populate()
        self.commit()

    def populate(self) -> None:
        raise NotImplementedError

    def members(self) -> list:
        """The shadow models this workload drives (one per tenant)."""
        return [self.files]

    def reset_tally(self) -> None:
        """Forget set-up and warm-up: accounting starts with the timed phase."""
        self.tally = Tally()
        for member in self.members():
            member.tally = self.tally

    def step(self, op: tuple) -> None:
        if op[0] in MARKERS:
            self.marker(op)
        else:
            self.play(self.files, op)

    def play(self, files: FileSet, op: tuple) -> None:
        """One op against one tenant's files; its latency is simulated time."""
        kind = op[0]
        tally = self.tally
        clock = self.stack.clock
        start = clock.now
        tally.attempted += 1
        try:
            if kind == "write":
                files.write_unit(op[1], op[2])
                sync = op[3]
            elif kind == "read":
                files.read_unit(op[1], op[2])
                sync = False
            elif kind == "create":
                files.create(op[1], op[2])
                sync = op[3]
            elif kind == "readfile":
                files.read_file(op[1])
                sync = False
            else:
                files.unlink(op[1])
                sync = op[2]
            if sync:
                files.fs.sync()
        except Exception as exc:  # an op that raises is a failed op
            tally.fail(f"{op}: {exc!r}")
        tally.latencies.append(clock.now - start)
        tally.completed += 1

    def marker(self, op: tuple) -> None:
        kind = op[0]
        if kind == "drop":
            self.files.fs.drop_caches()
        elif kind == "commit":
            self.commit()
        else:
            raise ValueError(f"{self.name} has no marker {op!r}")

    def commit(self) -> None:
        """Make everything written so far durable, and remember that it is."""
        self.files.fs.sync()  # group_commit=1: the flush intent commits at once
        self.files.mark_durable()

    def live_bytes(self) -> int:
        return sum(member.live_bytes() for member in self.members())

    def after_timed(self) -> None:
        """Checks on the finished timed phase (outside the measured window)."""

    def play_tail(self) -> None:
        for op in self.tail():
            self.step(op)

    def remount(self) -> None:
        """Reattach the tenants to a recovered stack (timed: part of recovery)."""
        self.files.remount(self.stack.add_minix("fs", mkfs=False))

    def verify_after_crash(self) -> None:
        self.files.verify_durable()


class SmallfileChurn(Workload):
    name = "smallfile_churn"
    why = (
        "Table 4 made steady-state: fs is most of the CPU, and every sync "
        "drives an LLD partial-segment flush and a RAID-5 read-modify-write"
    )
    PREPOP = 600
    PER_ROUND = 300
    ROUNDS = 6

    def populate(self) -> None:
        for fid, size in enumerate(small_sizes(self.rng("setup"), self.PREPOP)):
            self.files.create(fid, size)
            if fid % SMALL_SYNC_EVERY == SMALL_SYNC_EVERY - 1:
                self.files.fs.sync()
        # The warm-up round creates, reads and unlinks its own files only.
        for op in small_file_round(self.rng("warmup"), [], 10**6, 30, drop=True):
            self.step(op)

    def stream(self) -> list[tuple]:
        rng = self.rng("stream")
        live = list(range(self.PREPOP))
        ops: list[tuple] = []
        for round_no in range(self.scaled(self.ROUNDS)):
            next_fid = self.PREPOP + round_no * self.PER_ROUND
            ops += small_file_round(rng, live, next_fid, self.PER_ROUND, drop=True)
        ops.append(("commit",))
        return ops

    def tail(self) -> list[tuple]:
        return [("create", 2 * 10**6 + i, SMALL_SIZES[i % 3], False) for i in range(6)]


class LargefileStream(Workload):
    name = "largefile_stream"
    why = (
        "Table 5 on a file 20x the buffer cache: fs does little per byte, "
        "lld sealing and vectored reads, volume and disk do most; an "
        "fs-only optimisation should predict no change here"
    )
    unit = 8 * KB
    FILE_BYTES = 12 * MB
    PASSES = 2  # the second pass writes into a used log

    def populate(self) -> None:
        for unit in range(16):
            self.files.write_unit(10**6, unit)
        for unit in range(16):
            self.files.read_unit(10**6, unit)
        self.files.unlink(10**6)

    def stream(self) -> list[tuple]:
        rng = self.rng("stream")
        chunks = max(64, round(self.FILE_BYTES * self.scale) // self.unit)
        ops: list[tuple] = []
        for _pass in range(self.PASSES):
            ops += [("write", 0, i, False) for i in range(chunks)]
            ops.append(("drop",))
            ops += [("read", 0, i) for i in range(chunks)]
            ops.append(("drop",))
            ops += [("write", 0, i, False) for i in rng.sample(range(chunks), chunks)]
            ops.append(("drop",))
            ops += [("read", 0, i) for i in rng.sample(range(chunks), chunks)]
            ops.append(("drop",))
            ops += [("read", 0, i) for i in range(chunks)]
            ops.append(("drop",))
        ops.append(("commit",))
        return ops

    def tail(self) -> list[tuple]:
        return [("write", 0, i, False) for i in (0, 7, 8, 21, 40, 41)]


class AgedOverwrite(Workload):
    name = "aged_overwrite"
    why = (
        "an 80%-full log under skewed overwrites: the lld cleaner does most "
        "of the work, write cost, read cost and space trade against each "
        "other, and background cleaning makes the latency tail"
    )
    FILES = 30
    UNITS = MB // (4 * KB)  # 1 MB files of 4 KB units
    #: Untimed overwrites of set-up: the same mix, played until the cleaner
    #: has been running for a while, so the timed phase starts in the
    #: regime where write amplification has levelled off.
    AGING = 4_000
    OVERWRITES = 4_500
    READS = 500
    HOT_FILES = 3
    HOT_PERCENT = 90
    SYNC_EVERY = 16

    def populate(self) -> None:
        for fid in range(self.FILES):
            for unit in range(self.UNITS):
                self.files.write_unit(fid, unit)
            self.files.fs.sync()
        for op in self._overwrites(self.rng("aging"), self._hot(), self.scaled(self.AGING)):
            self.step(op)

    def _hot(self) -> list[int]:
        return self.rng("hot").sample(range(self.FILES), self.HOT_FILES)

    def _overwrites(self, rng: Random, hot: list[int], count: int) -> list[tuple]:
        cold = [fid for fid in range(self.FILES) if fid not in hot]
        every = self.SYNC_EVERY
        ops: list[tuple] = []
        for i in range(count):
            pool = hot if rng.randrange(100) < self.HOT_PERCENT else cold
            ops.append(("write", rng.choice(pool), rng.randrange(self.UNITS), i % every == every - 1))
        return ops

    def stream(self) -> list[tuple]:
        rng = self.rng("stream")
        writes = self._overwrites(rng, self._hot(), self.scaled(self.OVERWRITES))
        third = max(1, len(writes) // 3)
        ops: list[tuple] = []
        for start in range(0, 3 * third, third):
            ops.append(("mark",))
            ops += writes[start : start + third]
        ops.append(("mark",))
        ops += writes[3 * third :]
        ops += [
            ("read", rng.randrange(self.FILES), rng.randrange(self.UNITS))
            for _ in range(self.scaled(self.READS))
        ]
        ops.append(("commit",))
        return ops

    def marker(self, op: tuple) -> None:
        if op[0] == "mark":
            stats = self.stack.lld.stats
            self.marks.append((stats.data_bytes_physical, stats.data_bytes_logical))
        else:
            super().marker(op)

    def after_timed(self) -> None:
        """Write amplification must have levelled off (full-size runs only)."""
        if self.scale < 1.0:
            return
        amps = [
            (p1 - p0) / (l1 - l0)
            for (p0, l0), (p1, l1) in zip(self.marks, self.marks[1:])
        ]
        self.tally.attempted += 1
        if abs(amps[2] / amps[1] - 1.0) > 0.10:
            self.tally.fail(
                f"lld write amplification has not levelled off: thirds {amps}"
            )

    def tail(self) -> list[tuple]:
        return [("write", fid, 3 * fid, False) for fid in range(6)]


class DegradedRebuild(Workload):
    name = "degraded_rebuild"
    why = (
        "one read/write mix healthy, degraded and rebuilding: XOR "
        "reconstruction and the rebuild scanner compete with foreground "
        "I/O, so the foreground p99 under rebuild is measured"
    )
    unit = 8 * KB
    FILES = 16
    UNITS = MB // (8 * KB)
    PHASES = (3_000, 4_500, 4_500)  # healthy, member 1 failed, rebuilding
    READ_PERCENT = 70
    #: With a sync every 16 only 1.9% of the ops carried one, so p99 sat on
    #: the steep edge of their 60-640 sim-ms latencies and moved 20% with
    #: the seed; every 8 puts it well inside.
    SYNC_EVERY = 8
    MEMBER = 1
    #: Stripe rows reconstructed per foreground volume request. A 13 MB
    #: member has only 25 rows of 512 KB, so any rate >= 1 finishes within a
    #: few dozen requests; this one spreads the scan over about 40% of the
    #: third phase, which is what puts it in that phase's latency tail.
    REBUILD_RATE = 0.01

    def populate(self) -> None:
        for fid in range(self.FILES):
            for unit in range(self.UNITS):
                self.files.write_unit(fid, unit)
            self.files.fs.sync()
        self.files.fs.drop_caches()
        for op in self._mix(self.rng("warmup"), 64):
            self.step(op)

    def _mix(self, rng: Random, count: int) -> list[tuple]:
        every = self.SYNC_EVERY
        ops: list[tuple] = []
        for i in range(count):
            fid, unit = rng.randrange(self.FILES), rng.randrange(self.UNITS)
            if rng.randrange(100) < self.READ_PERCENT:
                ops.append(("read", fid, unit))
            else:
                ops.append(("write", fid, unit, i % every == every - 1))
        return ops

    def stream(self) -> list[tuple]:
        rng = self.rng("stream")
        healthy, degraded, rebuilding = (self.scaled(n) for n in self.PHASES)
        ops = self._mix(rng, healthy)
        ops.append(("fail", self.MEMBER))
        ops += self._mix(rng, degraded)
        ops.append(("replace", self.MEMBER))
        ops += self._mix(rng, rebuilding)
        ops.append(("commit",))
        return ops

    def marker(self, op: tuple) -> None:
        volume = self.stack.volume
        if op[0] == "fail":
            volume.fail_member(op[1])
        elif op[0] == "replace":
            volume.replace_member(op[1], self.stack.new_member())
            volume.rebuild_rate = self.REBUILD_RATE / self.scale
        else:
            super().marker(op)

    def after_timed(self) -> None:
        """The rebuilt member equals what a never-failed twin would hold.

        A twin stack cannot be compared byte for byte: i-node mtimes come
        from the virtual clock, which a degraded volume advances
        differently. The twin's member is therefore computed, not run: on
        a parity volume it is the XOR of the three never-failed members,
        row by row, and those three are checked by reading every file back.
        """
        volume = self.stack.volume
        tally = self.tally
        tally.attempted += 1
        if volume.rebuild_active or volume.degraded:
            tally.fail("the rebuild did not complete within the third phase")
            return
        chunk = volume.chunk_sectors
        rebuilt = volume.disks[self.MEMBER]
        others = [d for i, d in enumerate(volume.disks) if i != self.MEMBER]
        for row in range(volume.parity_map.rows):
            lba = volume.parity_map.row_lba(row)
            twin = _xor(d.peek(lba, chunk) for d in others)
            if rebuilt.peek(lba, chunk) != twin:
                tally.fail(f"rebuilt member differs from the twin in stripe row {row}")
                return

    def tail(self) -> list[tuple]:
        return [("write", fid, 5 * fid, False) for fid in range(6)]


class MultitenantMix(Workload):
    name = "multitenant_mix"
    why = (
        "two MINIX and four raw-LD tenants on one server: the only workload "
        "where sched does real work (DRR, elevator read batches, "
        "cross-tenant group commit), the sharing the paper designs LD for"
    )
    group_commit = 4
    MINIX = (("mA", 1.0), ("mB", 2.0))  # mA first: LDStore.mount() reads bid 1
    MINIX_PREPOP = 100
    MINIX_OPS = 3_000
    MINIX_CYCLE = 20  # create, read, unlink this many files per cycle
    RAW_TENANTS = 4
    RAW_OPS = 5_000
    RAW_BLOCKS = 64
    RAW_IO = 1 * KB
    #: Outstanding submit_* ops per raw tenant. With 4, the ops that queue
    #: behind a segment seal were just 1% of all ops, so p99 sat on the edge
    #: of that tail and flipped between 175 and 350 sim-ms with the seed.
    WINDOW = 8

    # -- the pure part -----------------------------------------------------

    def stream(self) -> dict[str, list[tuple]]:
        scripts: dict[str, list[tuple]] = {}
        for name, _weight in self.MINIX:
            scripts[name] = self._minix_script(self.rng(name))
        for i in range(self.RAW_TENANTS):
            scripts[f"r{i}"] = self._raw_script(self.rng(f"r{i}"), i)
        return scripts

    def _minix_script(self, rng: Random) -> list[tuple]:
        cycle = self.MINIX_CYCLE
        live = list(range(self.MINIX_PREPOP))
        ops: list[tuple] = []
        for number in range(max(1, self.scaled(self.MINIX_OPS) // (3 * cycle))):
            next_fid = self.MINIX_PREPOP + number * cycle
            ops += small_file_round(rng, live, next_fid, cycle, drop=False)
        return ops

    def _raw_script(self, rng: Random, tenant: int) -> list[tuple]:
        """Even tenants read-heavy (70/30), odd ones write-heavy (30/70)."""
        read_percent, flush_every = (70, 8) if tenant % 2 == 0 else (30, 4)
        ops: list[tuple] = []
        for k in range(self.scaled(self.RAW_OPS)):
            if (k + 1) % flush_every == 0:
                ops.append(("flush",))
            elif rng.randrange(100) < read_percent:
                ops.append(("read", rng.randrange(self.RAW_BLOCKS)))
            else:
                ops.append(("write", rng.randrange(self.RAW_BLOCKS)))
        return ops

    def tail(self) -> dict[str, list[tuple]]:
        return {
            "mA": [("create", 2 * 10**6 + i, SMALL_SIZES[i % 3], False) for i in range(3)],
            "r0": [("write", i) for i in range(3)],
        }

    def total_ops(self) -> int:
        return sum(
            1 for script in self.stream().values() for op in script if op[0] != "flush"
        )

    # -- the driven part ---------------------------------------------------

    def setup(self, stack: Stack) -> None:
        self.stack = stack
        tally = self.tally
        self.minix: dict[str, FileSet] = {}
        for name, weight in self.MINIX:
            files = FileSet(tally, stack.add_minix(name, weight=weight), self.seed, self.unit)
            for fid in range(self.MINIX_PREPOP):
                files.create(fid, SMALL_SIZES[fid % 3])
            files.fs.sync()
            self.minix[name] = files
        self.raw = [
            RawSet(tally, stack.open_session(f"r{i}"), self.seed, i, self.RAW_BLOCKS, self.RAW_IO)
            for i in range(self.RAW_TENANTS)
        ]
        self.commit()
        scripts = self.stream()
        self._scripts = [scripts[name] for name, _w in self.MINIX]
        self._raw_scripts = [scripts[f"r{i}"] for i in range(self.RAW_TENANTS)]
        self._cursor = [0] * len(self._scripts)
        self._raw_cursor = [0] * self.RAW_TENANTS
        self._inflight: list[list] = [[] for _ in range(self.RAW_TENANTS)]
        self._raw_done = [0] * self.RAW_TENANTS
        self._raw_last = [0.0] * self.RAW_TENANTS
        self._start = stack.clock.now

    def members(self) -> list:
        return [*self.minix.values(), *self.raw]

    def steps(self):
        turn = 0
        while self._busy():
            yield turn
            turn += 1
        yield ("commit",)

    def _busy(self) -> bool:
        return (
            any(c < len(s) for c, s in zip(self._cursor, self._scripts))
            or any(c < len(s) for c, s in zip(self._raw_cursor, self._raw_scripts))
            or any(self._inflight)
        )

    def step(self, turn) -> None:
        """One turn of the closed loop: top up, one op per MINIX tenant, step."""
        if turn == ("commit",):
            self.commit()
            return
        for i, tenant in enumerate(self.raw):
            self._top_up(i, tenant)
        for i, files in enumerate(self.minix.values()):
            script = self._scripts[i]
            if self._cursor[i] < len(script):
                self.play(files, script[self._cursor[i]])
                self._cursor[i] += 1
        self.stack.server.step()
        for i, tenant in enumerate(self.raw):
            self._harvest(i, tenant)

    def _top_up(self, i: int, tenant: RawSet) -> None:
        script = self._raw_scripts[i]
        inflight = self._inflight[i]
        session = tenant.session
        while len(inflight) < self.WINDOW and self._raw_cursor[i] < len(script):
            op = script[self._raw_cursor[i]]
            self._raw_cursor[i] += 1
            if op[0] == "flush":
                inflight.append((session.submit_flush(force=False), None))
            elif op[0] == "read":
                expected = tenant.expected(op[1], tenant.versions[op[1]])
                inflight.append((session.submit_read(tenant.bids[op[1]]), expected))
            else:
                data = tenant.next_write(op[1])
                inflight.append((session.submit_write(tenant.bids[op[1]], data), data))

    def _harvest(self, i: int, tenant: RawSet) -> None:
        """Account the tenant's completed ops; latency includes queueing."""
        inflight = self._inflight[i]
        if not any(op.done for op, _ in inflight):
            return
        tally = self.tally
        tracer = self.stack.tracer
        for op, expected in inflight:
            if not op.done or expected is None:
                continue  # still queued, or a flush intent (not an op)
            tally.attempted += 1
            tally.completed += 1
            tally.latencies.append(op.completed_at - op.submitted_at)
            self._raw_done[i] += 1
            self._raw_last[i] = op.completed_at
            if op.error is not None:
                tally.fail(f"raw tenant {i} {op.kind}: {op.error!r}")
            elif op.kind == "write":
                tally.user_written += len(expected)
            else:
                tally.user_read += len(op.result)
                if tracer is not None:
                    tracer.add_bytes("sched", len(op.result))
                if op.result != expected:
                    tally.fail(f"raw tenant {i} read: content differs from the model")
        inflight[:] = [entry for entry in inflight if not entry[0].done]

    def commit(self) -> None:
        server = self.stack.server
        server.drain()
        for files in self.minix.values():
            files.fs.sync()
        self.raw[0].session.flush()  # forced: commits every pooled intent
        for member in self.members():
            member.mark_durable()

    def after_timed(self) -> None:
        """Max/min ops per simulated second among the equal-weight raw tenants."""
        rates = [
            done / (last - self._start)
            for done, last in zip(self._raw_done, self._raw_last)
        ]
        self.extra["sched.tenant_spread"] = max(rates) / min(rates)

    def play_tail(self) -> None:
        tail = self.tail()
        for op in tail["mA"]:
            self.play(self.minix["mA"], op)
        tenant = self.raw[0]
        for _kind, index in tail["r0"]:
            self.tally.attempted += 1
            tenant.session.write(tenant.bids[index], tenant.next_write(index))

    def remount(self) -> None:
        """Only the first MINIX tenant can remount (its superblock is bid 1)."""
        self.minix["mA"].remount(self.stack.add_minix("mA", mkfs=False))

    def verify_after_crash(self) -> None:
        self.minix["mA"].verify_durable()
        session = self.stack.open_session("verify")
        for tenant in self.raw:
            tenant.verify_durable(session)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (SmallfileChurn, LargefileStream, MultitenantMix, AgedOverwrite, DegradedRebuild)
}
