"""Property-based tests: LLD against the crash oracle's client model.

A random sequence of LD operations runs through an
:class:`~repro.crashsim.OracleDriver`, which applies each to LLD and
mirrors it into the expected client-visible view. Invariants:

* after every operation the visible state (list contents, block data)
  matches the model;
* after flush + crash + recovery, the recovered state matches the model
  exactly;
* a clean shutdown/startup round-trip also matches.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crashsim import OracleDriver
from repro.ld import LIST_HEAD

from tests.lld.conftest import make_lld, reopen


# Operation encoding for hypothesis: a list of (op, arg1, arg2) tuples with
# indices resolved modulo the live population at execution time.
ops = st.lists(
    st.tuples(
        st.sampled_from(["new_list", "new_block", "write", "delete_block", "delete_list"]),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=255),
    ),
    min_size=1,
    max_size=40,
)


def run_ops(lld, driver: OracleDriver, operations) -> None:
    for op, index, value in operations:
        lids = sorted(driver.lists)
        if op == "new_list" or not lids:
            driver.new_list(lld)
            continue
        lid = lids[index % len(lids)]
        chain = driver.lists[lid]
        if op == "new_block":
            pred = chain[index % len(chain)] if chain and value % 2 == 0 else LIST_HEAD
            driver.new_block(lld, lid, pred)
        elif op == "write":
            if chain:
                driver.write(lld, chain[index % len(chain)], bytes([value]) * ((value % 16 + 1) * 64))
        elif op == "delete_block":
            if chain:
                driver.delete_block(lld, chain[index % len(chain)], lid)
        elif op == "delete_list":
            driver.delete_list(lld, lid)


def check_matches(lld, driver: OracleDriver) -> None:
    for lid, chain in driver.lists.items():
        assert lld.list_blocks(lid) == chain
        for bid in chain:
            assert lld.read(bid) == driver.blocks.get(bid, b"")


@settings(max_examples=40, deadline=None)
@given(ops)
def test_visible_state_matches_model(operations):
    lld = make_lld()
    driver = OracleDriver(lld)
    run_ops(lld, driver, operations)
    check_matches(lld, driver)


@settings(max_examples=30, deadline=None)
@given(ops)
def test_flush_crash_recover_matches_model(operations):
    lld = make_lld()
    driver = OracleDriver(lld)
    run_ops(lld, driver, operations)
    lld.flush()
    recovered = reopen(lld)
    check_matches(recovered, driver)


@settings(max_examples=20, deadline=None)
@given(ops)
def test_clean_shutdown_matches_model(operations):
    lld = make_lld()
    driver = OracleDriver(lld)
    run_ops(lld, driver, operations)
    fresh = reopen(lld, after_crash=False)
    check_matches(fresh, driver)


@settings(max_examples=20, deadline=None)
@given(ops, ops)
def test_recover_then_continue(operations, more_operations):
    """Recovery must leave the LD fully usable for further operations."""
    lld = make_lld()
    driver = OracleDriver(lld)
    run_ops(lld, driver, operations)
    lld.flush()
    recovered = reopen(lld)
    run_ops(recovered, driver, more_operations)
    check_matches(recovered, driver)


@settings(max_examples=15, deadline=None)
@given(ops)
def test_aborted_aru_leaves_model_state(operations):
    """Everything inside an unfinished ARU disappears; nothing else does."""
    lld = make_lld()
    driver = OracleDriver(lld)
    run_ops(lld, driver, operations)
    lld.flush()
    lld.begin_aru()
    lid = lld.new_list()
    bid = lld.new_block(lid, LIST_HEAD)
    lld.write(bid, b"inside aborted aru")
    lld.flush()
    recovered = reopen(lld)
    check_matches(recovered, driver)


@settings(max_examples=15, deadline=None)
@given(ops)
def test_usage_table_consistent_with_blocks(operations):
    """The segment usage table equals the sum of live stored lengths."""
    lld = make_lld()
    driver = OracleDriver(lld)
    run_ops(lld, driver, operations)
    per_segment: dict[int, int] = {}
    for bid, entry in lld.state.blocks.items():
        if entry.segment >= 0:
            per_segment[entry.segment] = (
                per_segment.get(entry.segment, 0) + entry.stored_length
            )
    for segment, expected in per_segment.items():
        assert lld.state.usage.get(segment, 0) == expected
    for segment, used in lld.state.usage.items():
        assert used == per_segment.get(segment, 0)
