#!/usr/bin/env python
"""Replay the Fall 2012 deadline meltdown — then fix it the 2013 way.

Simulates 39 students against an assignment deadline twice:

1. Version 1: one shared 8-node cluster.  Procrastination piles jobs up
   near the deadline; leaky submissions crash TaskTracker and DataNode
   daemons together; restarts take 15+ minutes of block re-scanning;
   resubmissions during recovery create under-replicated blocks.
2. Version 2+: per-student myHadoop clusters on the supercomputer.
   The same students, the same bugs — but every crash is contained.

Run:  python examples/classroom_deadline_simulation.py
"""

from repro.core.classroom import ClassroomScenario, run_classroom
from repro.util.units import HOUR, MINUTE


def scenario(platform: str) -> ClassroomScenario:
    return ClassroomScenario(
        name=f"demo-{platform}",
        platform=platform,
        num_students=39,
        window=48 * HOUR,
        buggy_probability=0.55,
        fix_probability=0.45,
        instructor_reaction_delay=45 * MINUTE,
        input_bytes=120 * 1024,
        seed=2012,
    )


def main() -> None:
    print("Simulating Fall 2012: 39 students, one shared cluster, one "
          "deadline...")
    v1 = run_classroom(scenario("dedicated"))
    print()
    print(v1.describe())
    print("\nselected timeline events:")
    interesting = [
        (t, msg)
        for t, msg in v1.timeline
        if "restart" in msg or "notified" in msg
    ][:10]
    for t, msg in interesting:
        print(f"  [{t / 3600:6.2f}h] {msg}")

    print("\n" + "-" * 68)
    print("Simulating Spring 2013: same class, per-student myHadoop "
          "clusters...")
    v2 = run_classroom(scenario("myhadoop"))
    print()
    print(v2.describe())

    print("\n" + "=" * 68)
    print(f"completion: shared cluster {v1.completion_fraction:.0%}  ->  "
          f"isolated clusters {v2.completion_fraction:.0%}")
    print("(the paper: 'only about one third of the students ... were able "
          "to complete' vs 'all of the students completed both MapReduce "
          "assignments on time')")


if __name__ == "__main__":
    main()
