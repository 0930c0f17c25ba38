"""Script entry point: ``python3 benchmarks/e2e/run.py ...`` from the repo root.

Puts the repository root (for ``benchmarks.e2e``) and ``src`` (for
``repro``) on ``sys.path``, then hands over to :func:`benchmarks.e2e.cli.main`.
``python -m benchmarks.e2e`` with ``PYTHONPATH=src`` is the same thing.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    root = Path(__file__).resolve().parents[2]
    sys.path[:0] = [str(root), str(root / "src")]
    from benchmarks.e2e.cli import main

    sys.exit(main())
