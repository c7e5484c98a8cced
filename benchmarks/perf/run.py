"""``BENCHMARK.json``'s command: measure one workload in this process.

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Prints the metrics by name, then — as
the last line of standard output — one JSON object with exactly the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Exits non-zero when an oracle fails, or when the
reproduction's sources are not there to import.
"""

from __future__ import annotations

import sys
from pathlib import Path

if __name__ == "__main__":
    # The script's own directory would shadow top-level module names
    # (``trace``); import through the package from the checkout root.
    _root = Path(__file__).resolve().parent.parent.parent
    if not (_root / "src" / "repro").is_dir():
        sys.exit(f"run.py: nothing to measure, {_root / 'src' / 'repro'} is missing")
    sys.path[0] = str(_root)
    sys.path.insert(1, str(_root / "src"))

    from benchmarks.perf.cli import main_single

    sys.exit(main_single())
