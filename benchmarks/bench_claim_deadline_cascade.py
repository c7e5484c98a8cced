"""Claim C3 (Section II.A) — the Version-1 deadline meltdown, and the
Version-2 fix.

Paper, Version 1 (shared dedicated cluster): deadline congestion, heap
leaks crashing TaskTracker+DataNode daemons, 15+ minute restarts,
resubmissions creating under-replicated blocks, a corrupted cluster —
"only about one third of the students ... were able to complete the
second assignment."

Paper, Version 2 (per-student myHadoop clusters): "all of the students
completed both MapReduce assignments on time."

The benchmark replays the same 39-student class (same behavioural
parameters, same seed) on both platforms.
"""

from benchmarks.conftest import banner, show
from repro.core.classroom import ClassroomScenario, run_classroom
from repro.util.textable import TextTable
from repro.util.units import HOUR, MINUTE


def _scenario(platform: str, seed: int) -> ClassroomScenario:
    return ClassroomScenario(
        name=f"semester-{platform}-{seed}",
        platform=platform,
        num_students=39,
        window=48 * HOUR,
        buggy_probability=0.55,
        fix_probability=0.45,
        instructor_reaction_delay=45 * MINUTE,
        input_bytes=120 * 1024,
        seed=seed,
    )


def _run_both():
    v1 = run_classroom(_scenario("dedicated", seed=2012))
    v2 = run_classroom(_scenario("myhadoop", seed=2012))
    return v1, v2


def bench_claim_deadline_cascade(benchmark):
    v1, v2 = benchmark.pedantic(_run_both, rounds=1, iterations=1)
    banner("Claim C3: the deadline cascade — shared cluster (v1) vs "
           "per-student myHadoop clusters (v2)")
    table = TextTable(
        ["Metric", "v1 shared (Fall 2012)", "v2 myHadoop (Spring 2013)"]
    )
    table.add_row(
        ["completion",
         f"{v1.completed}/{v1.num_students} ({v1.completion_fraction:.0%})",
         f"{v2.completed}/{v2.num_students} ({v2.completion_fraction:.0%})"]
    )
    table.add_row(["job submissions", v1.total_job_submissions,
                   v2.total_job_submissions])
    table.add_row(["daemon crashes", v1.daemon_crashes, v2.daemon_crashes])
    table.add_row(["cluster restarts", v1.cluster_restarts, v2.cluster_restarts])
    table.add_row(
        ["restart downtime",
         f"{v1.restart_downtime / 60:.0f} min",
         f"{v2.restart_downtime / 60:.0f} min"]
    )
    table.add_row(["max under-replicated blocks", v1.max_under_replicated,
                   v2.max_under_replicated])
    table.add_row(["missing blocks at deadline",
                   v1.missing_blocks_at_deadline,
                   v2.missing_blocks_at_deadline])
    show(table.render())
    show("paper: v1 ~1/3 completed on a corrupted cluster; v2 everyone "
         "finished on time")

    # Shape: the shared cluster melts down...
    assert v1.daemon_crashes > 10
    assert v1.cluster_restarts >= 2
    # each restart costs at least the 15-minute integrity rescan...
    assert v1.restart_downtime >= v1.cluster_restarts * 10 * MINUTE
    assert v1.max_under_replicated > 0
    # ...and completion collapses toward the paper's one-third...
    assert v1.completion_fraction < 0.6
    # ...while isolation keeps most of the class on track.
    assert v2.completion_fraction > 0.75
    assert v2.completion_fraction > v1.completion_fraction + 0.2
    assert v2.cluster_restarts == 0
    assert v2.missing_blocks_at_deadline == 0
