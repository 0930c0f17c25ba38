"""The shadow model: what every file and raw block must contain.

Payloads are regenerated from ``(seed, file, unit, version)``, never
stored, so the model costs a version number per unit. A read-back that
differs from the model, an op that raises, and an acknowledged write that
is missing after the crash each count one failed op on the owning
:class:`Tally`.
"""

from __future__ import annotations

import copy
import struct
from dataclasses import dataclass, field
from hashlib import blake2b

from repro.fs import FileNotFound
from repro.ld import LIST_HEAD

_KEY = struct.Struct("<qqqq")


def payload(seed: int, file: int, unit: int, version: int, nbytes: int) -> bytes:
    digest = blake2b(_KEY.pack(seed, file, unit, version), digest_size=32).digest()
    return (digest * (nbytes // 32 + 1))[:nbytes]


@dataclass
class Tally:
    """Op accounting shared by everything one workload run drives."""

    completed: int = 0  # ops of the timed phase; the unit of per-op metrics
    attempted: int = 0  # completed + crash-phase ops + post-crash checks
    failed: int = 0
    user_read: int = 0  # payload bytes, as the user of the stack sees them
    user_written: int = 0
    latencies: list[float] = field(default_factory=list)  # simulated seconds
    failures: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 8:
            self.failures.append(message)


@dataclass
class FileState:
    size: int
    versions: list[int]  # one per unit; the last unit may be partial


class FileSet:
    """One MINIX tenant's files and their model.

    ``unit`` is the I/O size of the workload (whole small files, 8 KB
    chunks, 4 KB blocks). ``live`` follows every op; ``durable`` is the
    copy taken at the last point where everything was known to be
    acknowledged (:meth:`mark_durable`), which is what must survive a crash.
    """

    def __init__(self, tally: Tally, fs, seed: int, unit: int) -> None:
        self.tally = tally
        self.fs = fs
        self.seed = seed
        self.unit = unit
        self.live: dict[int, FileState] = {}
        self.durable: dict[int, FileState] = {}
        self._fds: dict[int, int] = {}

    @staticmethod
    def path(fid: int) -> str:
        return f"/f{fid}"

    def live_bytes(self) -> int:
        return sum(state.size for state in self.live.values())

    def mark_durable(self) -> None:
        self.durable = copy.deepcopy(self.live)

    def remount(self, fs) -> None:
        self.fs = fs
        self._fds.clear()

    # -- whole-file ops (small files) -----------------------------------

    def create(self, fid: int, size: int) -> None:
        fs = self.fs
        fd = fs.open(self.path(fid), create=True)
        fs.write(fd, payload(self.seed, fid, 0, 0, size))
        fs.close(fd)
        self.live[fid] = FileState(size, [0])
        self.tally.user_written += size

    def read_file(self, fid: int) -> None:
        fs = self.fs
        state = self.live[fid]
        fd = fs.open(self.path(fid))
        data = fs.read(fd, state.size)
        fs.close(fd)
        self.tally.user_read += len(data)
        if data != payload(self.seed, fid, 0, state.versions[0], state.size):
            self.tally.fail(f"read {self.path(fid)}: content differs from the model")

    def unlink(self, fid: int) -> None:
        fd = self._fds.pop(fid, None)
        if fd is not None:
            self.fs.close(fd)
        self.fs.unlink(self.path(fid))
        del self.live[fid]

    # -- unit ops on files kept open (large files) ------------------------

    def _fd(self, fid: int) -> int:
        fd = self._fds.get(fid)
        if fd is None:
            fd = self._fds[fid] = self.fs.open(self.path(fid), create=fid not in self.live)
        return fd

    def write_unit(self, fid: int, unit: int) -> None:
        """Overwrite unit ``unit`` of a file, or append it as the next unit."""
        fs = self.fs
        fd = self._fd(fid)  # creates the file on first use
        state = self.live.get(fid)
        if state is None:
            state = self.live[fid] = FileState(0, [])
        if unit == len(state.versions):
            state.versions.append(0)
            state.size += self.unit
        else:
            state.versions[unit] += 1
        fs.seek(fd, unit * self.unit)
        fs.write(fd, payload(self.seed, fid, unit, state.versions[unit], self.unit))
        self.tally.user_written += self.unit

    def read_unit(self, fid: int, unit: int) -> None:
        fs = self.fs
        fd = self._fd(fid)
        fs.seek(fd, unit * self.unit)
        data = fs.read(fd, self.unit)
        self.tally.user_read += len(data)
        if data != payload(self.seed, fid, unit, self.live[fid].versions[unit], self.unit):
            self.tally.fail(f"read {self.path(fid)} unit {unit}: content differs from the model")

    # -- after the crash ---------------------------------------------------

    def verify_durable(self) -> None:
        """Every acknowledged file is readable with acknowledged content.

        A unit the un-synced tail rewrote may hold the acknowledged version
        or any later one (a sealed segment makes un-synced writes durable
        too); it may not hold anything else.
        """
        tally = self.tally
        for fid, old in self.durable.items():
            tally.attempted += 1
            new = self.live.get(fid, old)
            try:
                fd = self.fs.open(self.path(fid))
            except FileNotFound:
                tally.fail(f"{self.path(fid)}: acknowledged file missing after the crash")
                continue
            if not self._acked_content(fid, fd, old, new):
                tally.fail(f"{self.path(fid)}: acknowledged content lost in the crash")
            self.fs.close(fd)

    def _acked_content(self, fid: int, fd: int, old: FileState, new: FileState) -> bool:
        for index, acked in enumerate(old.versions):
            nbytes = min(self.unit, old.size - index * self.unit)
            got = self.fs.read(fd, nbytes)
            if not any(
                got == payload(self.seed, fid, index, version, nbytes)
                for version in range(acked, new.versions[index] + 1)
            ):
                return False
        return True


class RawSet:
    """One raw-LD tenant: a list of fixed-size blocks and their versions."""

    def __init__(self, tally: Tally, session, seed: int, tenant: int, nblocks: int, io_bytes: int) -> None:
        self.tally = tally
        self.session = session
        self.seed = seed
        self.tenant = tenant  # stands in for the file id in payloads
        self.io_bytes = io_bytes
        self.bids: list[int] = []
        self.versions = [0] * nblocks
        self.durable: list[int] = []
        lid = session.new_list()
        pred = LIST_HEAD
        for index in range(nblocks):
            pred = session.new_block(lid, pred)
            self.bids.append(pred)
            session.write(pred, self.expected(index, 0))

    def expected(self, index: int, version: int) -> bytes:
        return payload(self.seed, -1 - self.tenant, index, version, self.io_bytes)

    def live_bytes(self) -> int:
        return len(self.bids) * self.io_bytes

    def mark_durable(self) -> None:
        self.durable = list(self.versions)

    def next_write(self, index: int) -> bytes:
        self.versions[index] += 1
        return self.expected(index, self.versions[index])

    def verify_durable(self, session) -> None:
        tally = self.tally
        for index, acked in enumerate(self.durable):
            tally.attempted += 1
            data = session.read(self.bids[index])
            if not any(
                data == self.expected(index, version)
                for version in range(acked, self.versions[index] + 1)
            ):
                tally.fail(f"raw tenant {self.tenant} block {index}: acknowledged write lost")
