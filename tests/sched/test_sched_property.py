"""Property tests: dispatch is a program-order-preserving permutation.

The scheduler contract, checked against randomly generated multi-tenant
scripts on both shipped policies:

* every submitted op is dispatched exactly once (a permutation);
* each tenant's ops dispatch in submission order (program order);
* a group commit never crosses a barrier epoch: when an intent batch
  commits, every earlier op of every committed tenant has already been
  dispatched;
* completion follows the disks (``check_completions`` in the conftest):
  no op is ``done`` ahead of the clock, a commit's trigger and its
  acknowledgement are no earlier than the device's write horizon, what a
  commit covers is fixed when it is issued, and ``drain``/``close`` leave
  nothing parked.

Scripts run on a bare disk, where a write is done when it returns, and on
a RAID-5 volume, where a commit is in flight long after it is issued, a
read of a block on the medium is parked until the members deliver it, and
other tenants' ops are dispatched meanwhile. Every tenant's blocks start
on the medium, so reads go to the disks until the script rewrites them;
every read must complete exactly when the device delivered it.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.sched.conftest import (
    check_completions,
    make_server,
    populate,
    run_to_quiescence,
    watch_flushes,
    watch_reads,
)

KINDS = (
    "write", "read", "read_blocks", "flush", "flush_force", "flush_list",
    "meta", "aru",
)


@st.composite
def scripts(draw):
    n_tenants = draw(st.integers(min_value=2, max_value=4))
    per_tenant = [
        draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=10))
        for _ in range(n_tenants)
    ]
    # A submission interleaving: which tenant submits its next op.
    order = []
    remaining = [len(script) for script in per_tenant]
    while any(remaining):
        runnable = [i for i, left in enumerate(remaining) if left]
        i = draw(st.sampled_from(runnable))
        order.append(i)
        remaining[i] -= 1
    weights = [
        draw(st.sampled_from([0.5, 1.0, 2.0, 4.0])) for _ in range(n_tenants)
    ]
    scheduler = draw(st.sampled_from(["fifo", "qos"]))
    group_commit = draw(st.integers(min_value=1, max_value=3))
    device = draw(st.sampled_from(["bare", "raid5"]))
    return per_tenant, order, weights, scheduler, group_commit, device


def run_script(per_tenant, order, weights, scheduler_name, group_commit, device="bare"):
    from repro.bench import make_scheduler

    server, lld = make_server(
        make_scheduler(scheduler_name),
        group_commit=group_commit,
        record_dispatch=True,
        device=device,
    )
    sessions = []
    for i, weight in enumerate(weights):
        sess = server.open_session(f"t{i}", weight=weight)
        lid, bids = populate(sess, 3, size=512, tag=f"t{i}")
        sessions.append((sess, lid, bids))
    lld.log.seal()  # every tenant's blocks onto the medium
    sessions[0][0].flush()
    setup = [sess._seq for sess, _lid, _bids in sessions]  # seqs the setup used
    server.drain()
    watch_reads(server, lld)
    mark = len(server.dispatch_log)
    horizons = watch_flushes(lld)
    cursors = [0] * len(sessions)
    submitted = []
    for i in order:
        sess, lid, bids = sessions[i]
        kind = per_tenant[i][cursors[i]]
        cursors[i] += 1
        k = cursors[i]
        if kind == "write":
            submitted.append(sess.submit_write(bids[k % 3], b"w" * 1024))
        elif kind == "read":
            submitted.append(sess.submit_read(bids[k % 3]))
        elif kind == "read_blocks":
            submitted.append(sess.submit_read_blocks(bids[:2]))
        elif kind == "flush":
            submitted.append(sess.submit_flush(force=False))
        elif kind == "flush_force":
            submitted.append(sess.submit_flush(force=True))
        elif kind == "flush_list":
            op = sess.submit_flush(force=True)
            op.method, op.args = "flush_list", (lid,)
            submitted.append(op)
        elif kind == "aru":
            submitted.append(sess.submit_call("begin_aru"))
            submitted.append(sess.submit_write(bids[k % 3], b"u" * 1024))
            submitted.append(sess.submit_call("end_aru"))
        else:
            submitted.append(sess.submit_call("list_length", lid))
    first_seen = run_to_quiescence(server, submitted)
    server.drain()
    server.close()
    check_completions(server, submitted, horizons, first_seen, mark)
    return server, submitted, mark, setup


@given(scripts())
@settings(max_examples=40, deadline=None)
def test_dispatch_invariants(script):
    per_tenant, order, weights, scheduler, group_commit, device = script
    server, submitted, mark, _setup = run_script(
        per_tenant, order, weights, scheduler, group_commit, device
    )
    events = server.dispatch_log[mark:]
    submits = [(e[1], e[2]) for e in events if e[0] == "submit"]
    dispatches = [(e[1], e[2]) for e in events if e[0] == "dispatch"]

    # Permutation: every submitted op dispatched exactly once.
    assert Counter(dispatches) == Counter(submits)
    assert all(op.done for op in submitted)
    assert all(op.error is None for op in submitted)

    # Program order: per-tenant dispatch seqs strictly increase.
    per_tenant_seqs: dict[str, list[int]] = {}
    for tenant, seq in dispatches:
        per_tenant_seqs.setdefault(tenant, []).append(seq)
    for seqs in per_tenant_seqs.values():
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    # Barrier epochs: at each commit, every earlier op of every committed
    # tenant has already been dispatched.
    phase_seqs: dict[str, set[int]] = {}
    for tenant, seq in submits:
        phase_seqs.setdefault(tenant, set()).add(seq)
    dispatched_so_far: dict[str, set[int]] = {}
    for event in events:
        if event[0] == "dispatch":
            dispatched_so_far.setdefault(event[1], set()).add(event[2])
        elif event[0] == "commit":
            for tenant, seq in event[1]:
                earlier = {s for s in phase_seqs.get(tenant, ()) if s < seq}
                missing = earlier - dispatched_so_far.get(tenant, set())
                assert not missing, (
                    f"commit of {tenant}/{seq} crossed undispatched "
                    f"ops {sorted(missing)}"
                )

    # Accounting closes: nothing queued, nothing pending.
    assert server.queued == 0
    assert server.pending_intents == 0
    assert server.stats.ops_submitted == server.stats.ops_dispatched


@given(scripts())
@settings(max_examples=15, deadline=None)
def test_results_are_independent_of_policy(script):
    """Both policies drain any script to the same per-op results."""
    per_tenant, order, weights, _scheduler, group_commit, device = script
    outcomes = []
    for name in ("fifo", "qos"):
        _server, submitted, _mark, _setup = run_script(
            per_tenant, order, weights, name, group_commit, device
        )
        # Not a flush's result (which commit it joined) nor an ARU's id (a
        # log timestamp): those depend on the interleaving.
        outcomes.append(
            [
                op.result if op.kind != "flush" and op.method != "begin_aru" else None
                for op in submitted
            ]
        )
    assert outcomes[0] == outcomes[1]


def test_scripts_park_reads_on_raid5():
    """The property scripts reach the window: reads of two tenants on the
    RAID-5 device, parked and completed at the members' time."""
    per_tenant = [["read", "write", "read_blocks", "flush"], ["read", "read", "flush_force"]]
    order = [0, 1, 0, 1, 0, 1, 0]
    for scheduler in ("fifo", "qos"):
        server, submitted, _mark, _setup = run_script(
            per_tenant, order, [1.0, 1.0], scheduler, 2, "raid5"
        )
        assert server.stats.reads_parked >= 2
        assert all(op.done and op.error is None for op in submitted)
