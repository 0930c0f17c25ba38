"""Every settable value in ``src/``, listed once.

A settable value is a public config field (a field with a default of a
public dataclass named ``*Config``, ``*Spec`` or ``*Params``) or a
keyword with a default of a public class's constructor. The test walks
the source for them and compares the result with :data:`SETTINGS`, so
adding or removing a setting is a visible diff of this file in review.
A new setting earns its line when two callers outside the tests need
different values (the simplicity rule for options); one that only a
test sets is a constant. The second test holds the source to that: every
listed setting is set by some call in ``src/``, ``benchmarks/`` or
``examples/``, except the few in :data:`UNSET_OUTSIDE_TESTS`, each with
its reason.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

ROOT = SRC.parent.parent

CONFIG_SUFFIXES = ("Config", "Spec", "Params")

SETTINGS = (
    "bench.builders.BuildSpec.scale",
    "bench.builders.BuildSpec.partition_mb",
    "bench.builders.BuildSpec.cache_bytes",
    "bench.builders.BuildSpec.segment_size",
    "bench.builders.BuildSpec.block_size",
    "bench.builders.BuildSpec.ninodes",
    "crashsim.explorer.CrashStateEnumerator(reorder_samples_per_epoch=)",
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
    "lld.config.LLDConfig.read_cache_enabled",
    "lld.config.LLDConfig.delta_partial_flush",
    "lld.lld.LLD(config=)",
    "lld.lld.LLD(nvram=)",
    "lld.log.LogWriter(nvram=)",
    "lld.log.LogWriter(read_cache=)",
    "memmodel.MemoryModelParams.disk_bytes",
    "memmodel.MemoryModelParams.compression_ratio",
    "obs.events.EventLog(clock=)",
    "obs.events.EventLog(capacity=)",
    "obs.trace.Tracer(enabled=)",
    "sched.server.LDServer(scheduler=)",
    "sched.server.LDServer(group_commit=)",
    "sched.server.LDServer(record_dispatch=)",
    "sim.clock.VirtualClock(start=)",
    "volume.volume.Volume(clock=)",
    "volume.volume.Volume(layout=)",
    "volume.volume.Volume(chunk_sectors=)",
)

#: Listed settings no call outside ``tests/`` sets, and why they stay.
UNSET_OUTSIDE_TESTS = {
    # The paper's cost model inputs: its figures are these defaults.
    "fs.sprite.model.CostParams.epsilon",
    "fs.sprite.model.CostParams.delta",
    # The paper's memory model inputs: its figures are these defaults.
    "memmodel.MemoryModelParams.disk_bytes",
    "memmodel.MemoryModelParams.compression_ratio",
    # Bounds the event ring's memory, whatever the run.
    "obs.events.EventLog(capacity=)",
    # Test-only, to retire (ROADMAP 11(f)): no clock means explicit times.
    "obs.events.EventLog(clock=)",
    # Test-only, to retire (ROADMAP 11(f)): the clock tests start mid-run.
    "sim.clock.VirtualClock(start=)",
    # Test-only, to retire (ROADMAP 11(f)): small blocks in the dir tests.
    "fs.minix.classic_store.ClassicStore(block_size=)",
    "fs.minix.ld_store.LDStore(block_size=)",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _settings_of(module: str, node: ast.ClassDef):
    """``(setting, name, position)`` per setting of a class: a field is
    set by a constructor call by name or at its place in the field
    order, a keyword at its place among the positional parameters
    (None: keyword-only)."""
    if _is_dataclass(node) and node.name.endswith(CONFIG_SUFFIXES):
        fields = [
            stmt.target.id
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        ]
        for stmt in node.body:
            if (
                isinstance(stmt, ast.AnnAssign)
                and stmt.value is not None
                and isinstance(stmt.target, ast.Name)
                and not stmt.target.id.startswith("_")
            ):
                name = stmt.target.id
                yield f"{module}.{node.name}.{name}", name, fields.index(name)
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            args = stmt.args
            positional = (args.posonlyargs + args.args)[1:]  # after self
            first = len(positional) - len(args.defaults)
            for index, arg in enumerate(positional[first:], start=first):
                yield f"{module}.{node.name}({arg.arg}=)", arg.arg, index
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield f"{module}.{node.name}({arg.arg}=)", arg.arg, None


def _classes():
    """``(module, class node)`` of every public class in ``src/``."""
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if any(part.startswith("_") and part != "__init__" for part in parts):
            continue
        module = ".".join(parts)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                yield module, node


def settings_in_source() -> list[str]:
    return [
        setting
        for module, node in _classes()
        for setting, _name, _index in _settings_of(module, node)
    ]


def _dict_keys(tree: ast.Module) -> dict[str, set[str]]:
    """Module-level ``NAME = dict(key=...)`` / ``{"key": ...}`` (or
    ``dict(OTHER, key=...)``): the keys a ``**NAME`` passes."""
    keys: dict[str, set[str]] = {}
    for stmt in tree.body:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
            continue
        target, value = stmt.targets[0], stmt.value
        if not isinstance(target, ast.Name):
            continue
        if isinstance(value, ast.Dict) and all(
            isinstance(key, ast.Constant) for key in value.keys
        ):
            keys[target.id] = {key.value for key in value.keys}
        elif isinstance(value, ast.Call) and getattr(value.func, "id", None) == "dict":
            names = {keyword.arg for keyword in value.keywords}
            for arg in value.args:
                names |= keys.get(getattr(arg, "id", None), {None})
            if None not in names:
                keys[target.id] = names
    return keys


def _constructor_calls() -> dict[str, list[tuple[set, int, bool]]]:
    """Calls outside ``tests/`` by the name they call — ``Name(...)``,
    ``module.Name(...)``, and ``cls(...)`` inside ``class Name`` — each as
    ``(keywords passed, positional arguments, passes unknown ones)``."""
    calls: dict[str, list[tuple[set, int, bool]]] = {}
    for directory in ("src", "benchmarks", "examples"):
        for path in (ROOT / directory).rglob("*.py"):
            tree = ast.parse(path.read_text())
            mappings = _dict_keys(tree)
            owner = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    for inner in ast.walk(node):
                        owner[inner] = node.name
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name == "cls":
                    name = owner.get(node, name)
                keywords, unknown = set(), False
                for keyword in node.keywords:
                    if keyword.arg is not None:
                        keywords.add(keyword.arg)
                    elif getattr(keyword.value, "id", None) in mappings:
                        keywords |= mappings[keyword.value.id]
                    else:
                        unknown = True
                unknown |= any(isinstance(arg, ast.Starred) for arg in node.args)
                calls.setdefault(name, []).append((keywords, len(node.args), unknown))
    return calls


def _sets(call: tuple[set, int, bool], name: str, index: int | None) -> bool:
    """Does a call pass the setting: by name, at its place, or maybe
    through ``*args`` / ``**kwargs``?"""
    keywords, positional, unknown = call
    return unknown or name in keywords or (index is not None and positional > index)


def test_the_settings_are_the_listed_ones():
    found = settings_in_source()
    assert len(found) == len(set(found))
    added = sorted(set(found) - set(SETTINGS))
    gone = sorted(set(SETTINGS) - set(found))
    assert (added, gone) == ([], [])


def test_every_listed_setting_is_set_outside_the_tests():
    calls = _constructor_calls()
    unset = sorted(
        setting
        for module, node in _classes()
        for setting, name, index in _settings_of(module, node)
        if not any(_sets(call, name, index) for call in calls.get(node.name, ()))
    )
    assert set(unset) == UNSET_OUTSIDE_TESTS, (
        "set only by tests (make it a constant, or allow-list it with a "
        f"reason): {sorted(set(unset) - UNSET_OUTSIDE_TESTS)}; set outside the "
        f"tests now: {sorted(UNSET_OUTSIDE_TESTS - set(unset))}"
    )
