"""The verifier catches a corrupted read-back and a lost acknowledged write."""

from benchmarks.e2e.stack import Stack
from benchmarks.e2e.workloads import SmallfileChurn


def fresh():
    workload = SmallfileChurn(3, 0.1)
    stack = Stack()
    workload.setup(stack)
    workload.reset_tally()
    return workload, stack


def test_corrupted_read_back_is_a_failed_op():
    workload, stack = fresh()
    workload.step(("readfile", 5))
    assert workload.tally.failed == 0
    fs = workload.files.fs
    honest = fs.read

    def flip_first_bit(fd, nbytes):
        data = honest(fd, nbytes)
        return bytes([data[0] ^ 1]) + data[1:]

    fs.read = flip_first_bit
    workload.step(("readfile", 5))
    assert workload.tally.failed == 1
    assert workload.tally.attempted == workload.tally.completed == 2
    assert "differs from the model" in workload.tally.failures[0]


def test_an_op_that_raises_is_a_failed_op():
    workload, _stack = fresh()
    workload.step(("unlink", 123456, False))  # no such file
    assert workload.tally.failed == 1 and workload.tally.completed == 1


def test_acknowledged_write_dropped_by_the_crash_is_a_failed_op():
    workload, stack = fresh()
    workload.step(("create", 999_999, 2048, True))  # synced: really acknowledged
    workload.files.mark_durable()
    workload.step(("create", 999_998, 2048, False))  # still in the buffer cache
    workload.files.mark_durable()  # a lying acknowledgement
    stack.crash_and_recover()
    workload.remount()
    workload.verify_after_crash()
    assert workload.tally.failed == 1
    assert "f999998" in workload.tally.failures[0]


def test_acknowledged_content_replaced_by_the_crash_is_a_failed_op():
    workload, stack = fresh()
    workload.commit()
    workload.files.live[5].versions[0] += 1  # the model acknowledges a rewrite
    workload.files.mark_durable()  # that never reached the log
    stack.crash_and_recover()
    workload.remount()
    workload.verify_after_crash()
    assert workload.tally.failed == 1
    assert "f5:" in workload.tally.failures[0]
