"""Crash-state explorer: exhaustive torn/reordered-write simulation.

In the spirit of CrashMonkey and ALICE, this package records every sector
write an LD issues together with the write-ordering barriers that delimit
its durability epochs, enumerates the crash states a power failure could
leave on the medium — epoch-aligned prefixes, torn multi-sector writes,
and bounded intra-epoch reorderings — and runs recovery on each state,
checking machine-verified invariants against a durability oracle.
"""

from repro.crashsim.explorer import (
    CrashState,
    CrashStateEnumerator,
    ExplorationReport,
    Violation,
)
from repro.crashsim.oracle import (
    DurabilityOracle,
    LLDCrashChecker,
    OracleDriver,
    OraclePoint,
    client_view,
    recovered_tables,
    run_checkpoint_matrix_workload,
    run_matrix_workload,
    run_multitenant_matrix_workload,
)
from repro.crashsim.recording import BarrierEvent, RecordingDisk, WriteEvent
from repro.crashsim.volume import (
    MirrorRecording,
    ParityRecording,
    VolumeCrashState,
    degraded_mirror_volume,
    enumerate_parity_crash_states,
    explore_degraded_mirror,
    explore_degraded_parity,
    materialize_parity_crash_state,
)

__all__ = [
    "BarrierEvent",
    "CrashState",
    "CrashStateEnumerator",
    "DurabilityOracle",
    "ExplorationReport",
    "LLDCrashChecker",
    "MirrorRecording",
    "OracleDriver",
    "OraclePoint",
    "ParityRecording",
    "RecordingDisk",
    "Violation",
    "VolumeCrashState",
    "WriteEvent",
    "client_view",
    "recovered_tables",
    "run_checkpoint_matrix_workload",
    "degraded_mirror_volume",
    "enumerate_parity_crash_states",
    "explore_degraded_mirror",
    "explore_degraded_parity",
    "materialize_parity_crash_state",
    "run_matrix_workload",
    "run_multitenant_matrix_workload",
]
