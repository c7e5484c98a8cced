"""Golden outputs: the CLI's and the examples' bytes, checked by a test.

Every file under ``tests/golden/`` is what one command printed, recorded
once and compared byte for byte from then on.  The fast commands run here
under two ``PYTHONHASHSEED`` values, so a set-ordering leak into printed
output fails tier-1.  The slow ones (the classroom runs and the MovieLens
assignment, ~1-14 s each) are compared by CI's ``chaos`` job with
``cmp``; to refresh one after an intended change, re-run its command
from the repository root with ``PYTHONPATH=src`` and redirect it over
the file.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden"

#: golden name -> (arguments after ``python``, exit code).  A name's
#: ``.stdout`` / ``.stderr`` file holds that stream; a missing one means
#: the stream must be empty.
FAST = {
    "repro_handout_execute": (["-m", "repro", "handout", "--execute"], 0),
    "repro_dfsadmin": (["-m", "repro", "dfsadmin", "-saveNamespace", "-metasave"], 0),
    "repro_dfsadmin_no_journal": (
        ["-m", "repro", "dfsadmin", "-saveNamespace", "-metasave", "--no-journal"],
        2,
    ),
    "airline_delay_analysis": (["examples/airline_delay_analysis.py"], 0),
    "ecosystem_tour": (["examples/ecosystem_tour.py"], 0),
    "google_trace_analysis": (["examples/google_trace_analysis.py"], 0),
    "myhadoop_workflow": (["examples/myhadoop_workflow.py"], 0),
    "quickstart": (["examples/quickstart.py"], 0),
    "workloads_on_fast_engine": (["examples/workloads_on_fast_engine.py"], 0),
    "repro_lint_fixtures": (
        [
            "-m", "repro", "lint",
            "--family", "jobs", "--family", "engine",
            "--family", "sparklite", "--family", "hive",
            "tests/analysis/fixtures",
        ],
        1,
    ),
}

#: Compared in CI (``.github/workflows/ci.yml``, job ``chaos``), not here.
SLOW = {
    "repro_classroom",  # python -m repro classroom --seed 2012
    "classroom_deadline_simulation",
    "movie_ratings_assignment",
}


def _golden(name: str, stream: str) -> bytes:
    path = GOLDEN / f"{name}.{stream}"
    return path.read_bytes() if path.exists() else b""


@pytest.mark.parametrize("hashseed", ["0", "1"])
@pytest.mark.parametrize("name", sorted(FAST))
def test_output_is_byte_identical_to_golden(name, hashseed):
    args, returncode = FAST[name]
    result = subprocess.run(
        [sys.executable, *args],
        cwd=REPO,
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONHASHSEED=hashseed),
        timeout=120,
    )
    assert (result.returncode, result.stderr) == (
        returncode, _golden(name, "stderr")
    )
    assert result.stdout == _golden(name, "stdout")


def test_every_golden_file_has_a_checker():
    recorded = {path.stem for path in GOLDEN.iterdir()}
    assert recorded == set(FAST) | SLOW
    examples = {path.stem for path in (REPO / "examples").glob("*.py")}
    assert examples <= recorded
