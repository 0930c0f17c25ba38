"""The span tree is well formed, and the layer rows sum to the root spans."""

import json

import pytest

from benchmarks.e2e.stack import Stack
from benchmarks.e2e.trace import LAYERS, Tracer, layer_table
from benchmarks.e2e.workloads import WORKLOADS


def traced_run(name: str):
    tracer = Tracer()
    workload = WORKLOADS[name](11, 0.03)
    stack = Stack(tracer, group_commit=workload.group_commit)
    workload.setup(stack)
    assert tracer.spans == [], "nothing is recorded before the timed phase"
    workload.reset_tally()
    tracer.recording = True
    for index, item in enumerate(workload.steps()):
        tracer.request = index
        workload.step(item)
    tracer.recording = False
    assert workload.tally.failed == 0, workload.tally.failures
    return tracer, workload


@pytest.mark.parametrize("name", ["smallfile_churn", "multitenant_mix"])
def test_span_tree_is_well_formed_and_rows_sum(name, tmp_path):
    tracer, workload = traced_run(name)
    spans = tracer.spans
    assert spans and all(s is not None for s in spans)
    order = {layer: depth for depth, layer in enumerate(LAYERS)}
    for index, span in enumerate(spans):
        assert span.id == index
        assert span.layer in order
        assert span.start_ns <= span.end_ns
        assert span.sim_start <= span.sim_end
        assert 0 <= span.request
        if span.parent == -1:
            continue
        parent = spans[span.parent]
        assert parent.id < span.id
        assert parent.start_ns <= span.start_ns and span.end_ns <= parent.end_ns
        assert order[parent.layer] <= order[span.layer], "calls only go down the stack"
        assert parent.request == span.request

    table = layer_table(spans, tracer.extra_bytes)
    assert table.self_sum_error <= 0.01
    assert sum(row.cpu_self_ns for row in table.rows.values()) == pytest.approx(
        table.root_ns, rel=0.01
    )
    # Simulated time passes in the volume only (disk time is on private clocks).
    shared = sum(table.rows[layer].sim_self_s for layer in LAYERS if layer != "disk")
    assert shared == pytest.approx(table.root_sim_s, rel=1e-9)
    assert table.rows["volume"].sim_self_s == pytest.approx(shared, rel=1e-9)
    # Payload bytes: what the spans saw is what the driver moved.
    tally = workload.tally
    top = "fs" if name == "smallfile_churn" else "sched"
    if top == "fs":
        assert table.rows["fs"].bytes_in == tally.user_read + tally.user_written
    assert table.rows["sched"].bytes_in == table.rows["lld"].bytes_in

    tracer.write_jsonl(tmp_path / "spans.jsonl")
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert len(lines) == len(spans)
    first = json.loads(lines[0])
    assert set(first) == {
        "id", "parent", "request", "layer", "name", "start_ns", "end_ns",
        "sim_start", "sim_end", "bytes",
    }
