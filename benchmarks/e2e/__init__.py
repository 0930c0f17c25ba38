"""The composed-stack benchmark: MINIX -> LDServer -> LLD -> RAID-5 -> disks.

Five workloads on one fixed stack, twelve end-to-end metrics in two
currencies (simulated disk time on the virtual clock, real CPU time from
``process_time``), and per-layer rows (fs / sched / lld / volume / disk)
taken from outside the program: spans recorded by this package's own
wrappers, and window deltas of the layers' public stats objects.

Run ``PYTHONPATH=src python -m benchmarks.e2e --seed 1993`` for the full
set; ``BENCHMARK.json`` at the repository root is the machine-readable
contract (``benchmarks/e2e/run.py`` is its one-run entry point). See
``README.md`` in this directory for the tables and how to read them.

The package imports only public names of ``repro.{sim,disk,volume,lld,ld,
sched,fs,obs}`` — never ``repro.bench`` or the sibling ``benchmarks/*.py``
— so later changes may delete or rewrite those freely.
"""
