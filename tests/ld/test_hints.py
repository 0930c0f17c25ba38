"""Tests for list hints and sentinels."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ld import LIST_HEAD, ListHints, NoSuchListError

from tests.loge.test_loge import make_loge
from tests.uld.test_uld import make_uld


def test_defaults_cluster_without_compression():
    hints = ListHints()
    assert hints.cluster
    assert not hints.compress
    assert hints.interlist_cluster


def test_pack_unpack_roundtrip_defaults():
    hints = ListHints()
    assert ListHints.unpack(hints.pack()) == hints


@given(st.booleans(), st.booleans(), st.booleans())
def test_pack_unpack_roundtrip_all(cluster, compress, interlist):
    hints = ListHints(cluster=cluster, compress=compress, interlist_cluster=interlist)
    assert ListHints.unpack(hints.pack()) == hints


def test_list_head_sentinel_is_negative():
    # Must never collide with a real block/list id (those are >= 0).
    assert LIST_HEAD < 0


def test_hints_are_immutable():
    hints = ListHints()
    try:
        hints.cluster = False
        mutated = True
    except AttributeError:
        mutated = False
    assert not mutated


@pytest.mark.parametrize("make", [make_uld, make_loge], ids=["uld", "loge"])
def test_lists_are_placed_after_their_predecessor(make):
    """ULD and Loge keep the list of lists in memory and place a new or
    moved list with one helper (``place_list``)."""
    ld = make()
    a = ld.new_list()
    b = ld.new_list(a)
    c = ld.new_list(LIST_HEAD)
    assert ld.list_order == [c, a, b]
    ld.move_list(c, b)
    assert ld.list_order == [a, b, c]
    ld.move_list(b, LIST_HEAD)
    assert ld.list_order == [b, a, c]
    with pytest.raises(NoSuchListError):
        ld.new_list(max(ld.list_order) + 10)
