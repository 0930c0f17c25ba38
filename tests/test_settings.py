"""Every settable value in ``src/``, listed once.

A settable value is a public config field (a field with a default of a
public dataclass named ``*Config``, ``*Spec`` or ``*Params``) or a
keyword with a default of a public class's constructor. The test walks
the source for them and compares the result with :data:`SETTINGS`, so
adding or removing a setting is a visible diff of this file in review.
A new setting earns its line when two callers outside the tests need
different values (the simplicity rule for options); one that only a
test sets is a constant.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

CONFIG_SUFFIXES = ("Config", "Spec", "Params")

SETTINGS = (
    "bench.builders.BuildSpec.scale",
    "bench.builders.BuildSpec.partition_mb",
    "bench.builders.BuildSpec.cache_bytes",
    "bench.builders.BuildSpec.segment_size",
    "bench.builders.BuildSpec.block_size",
    "bench.builders.BuildSpec.ninodes",
    "crashsim.explorer.CrashStateEnumerator(max_torn_splits_per_write=)",
    "crashsim.explorer.CrashStateEnumerator(max_reorder_epoch_writes=)",
    "crashsim.explorer.CrashStateEnumerator(reorder_samples_per_epoch=)",
    "crashsim.explorer.CrashStateEnumerator(max_states=)",
    "crashsim.explorer.CrashStateEnumerator(seed=)",
    "crashsim.oracle.OracleDriver(recording=)",
    "fs.ffs.store.FFSStore(cache_bytes=)",
    "fs.minix.classic_store.ClassicStore(block_size=)",
    "fs.minix.classic_store.ClassicStore(cache_bytes=)",
    "fs.minix.fs.MinixFS(readahead=)",
    "fs.minix.fs.MinixFS(readahead_blocks=)",
    "fs.minix.ld_store.LDStore(block_size=)",
    "fs.minix.ld_store.LDStore(cache_bytes=)",
    "fs.minix.ld_store.LDStore(list_per_file=)",
    "fs.minix.ld_store.LDStore(inode_block_mode=)",
    "fs.sprite.model.CostParams.epsilon",
    "fs.sprite.model.CostParams.delta",
    "lld.config.LLDConfig.segment_size",
    "lld.config.LLDConfig.summary_capacity",
    "lld.config.LLDConfig.block_size",
    "lld.config.LLDConfig.checkpoint_slots",
    "lld.config.LLDConfig.clean_policy",
    "lld.config.LLDConfig.lists_enabled",
    "lld.config.LLDConfig.max_tombstones",
    "lld.config.LLDConfig.read_cache_enabled",
    "lld.config.LLDConfig.read_ahead_blocks",
    "lld.config.LLDConfig.delta_partial_flush",
    "lld.lld.LLD(config=)",
    "lld.lld.LLD(nvram=)",
    "lld.log.LogWriter(nvram=)",
    "lld.log.LogWriter(read_cache=)",
    "lld.readcache.ReadCache(counters=)",
    "lld.segment.OpenSegment(buffer=)",
    "lld.slots.SlotTable(moved=)",
    "memmodel.MemoryModelParams.disk_bytes",
    "memmodel.MemoryModelParams.compression_ratio",
    "obs.events.EventLog(clock=)",
    "obs.events.EventLog(capacity=)",
    "obs.trace.Tracer(enabled=)",
    "sched.queues.TenantQueue(weight=)",
    "sched.queues.TenantQueue(bucket=)",
    "sched.queues.TenantQueue(stats=)",
    "sched.server.LDServer(scheduler=)",
    "sched.server.LDServer(group_commit=)",
    "sched.server.LDServer(record_dispatch=)",
    "sim.clock.VirtualClock(start=)",
    "volume.volume.VolumeGeometry(full_stripe_sectors=)",
    "volume.volume.Volume(clock=)",
    "volume.volume.Volume(layout=)",
    "volume.volume.Volume(chunk_sectors=)",
)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _settings_of(module: str, node: ast.ClassDef):
    if _is_dataclass(node) and node.name.endswith(CONFIG_SUFFIXES):
        for stmt in node.body:
            if (
                isinstance(stmt, ast.AnnAssign)
                and stmt.value is not None
                and isinstance(stmt.target, ast.Name)
                and not stmt.target.id.startswith("_")
            ):
                yield f"{module}.{node.name}.{stmt.target.id}"
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            args = stmt.args
            positional = args.posonlyargs + args.args
            for arg in positional[len(positional) - len(args.defaults):]:
                yield f"{module}.{node.name}({arg.arg}=)"
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield f"{module}.{node.name}({arg.arg}=)"


def settings_in_source() -> list[str]:
    found = []
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if any(part.startswith("_") and part != "__init__" for part in parts):
            continue
        module = ".".join(parts)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                found.extend(_settings_of(module, node))
    return found


def test_the_settings_are_the_listed_ones():
    found = settings_in_source()
    assert len(found) == len(set(found))
    added = sorted(set(found) - set(SETTINGS))
    gone = sorted(set(SETTINGS) - set(found))
    assert (added, gone) == ([], [])
