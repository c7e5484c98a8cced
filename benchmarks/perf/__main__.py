"""``PYTHONPATH=src python -m benchmarks.perf run|compare`` (see cli)."""

import sys

from benchmarks.perf.cli import main

sys.exit(main())
