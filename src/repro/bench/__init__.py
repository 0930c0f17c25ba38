"""Benchmark harness: workloads, system builders, and table rendering.

One module per workload family from the paper's evaluation (section 4.2):

* :mod:`repro.bench.smallfile` — create/read/delete many small files
  (Table 4),
* :mod:`repro.bench.largefile` — the five-phase 80 MB benchmark (Table 5),
* :mod:`repro.bench.recovery` — crash + restart timing,
* :mod:`repro.bench.builders` — construct each system under test on a
  fresh simulated disk with the paper's configuration,
* :mod:`repro.bench.report` — paper-vs-measured table rendering.
"""

from repro.bench.builders import (
    BuildSpec,
    build_ld_server,
    build_minix,
    build_minix_lld,
    build_ffs,
    default_scale,
    make_scheduler,
)
from repro.bench.smallfile import SmallFilePhases, small_file_benchmark
from repro.bench.largefile import LargeFilePhases, large_file_benchmark
from repro.bench.report import (
    crash_matrix_summary,
    render_json,
    render_table,
    write_json_report,
    write_path_summary,
)

__all__ = [
    "BuildSpec",
    "build_ld_server",
    "build_minix",
    "build_minix_lld",
    "build_ffs",
    "default_scale",
    "make_scheduler",
    "SmallFilePhases",
    "small_file_benchmark",
    "LargeFilePhases",
    "large_file_benchmark",
    "crash_matrix_summary",
    "render_json",
    "render_table",
    "write_json_report",
    "write_path_summary",
]
