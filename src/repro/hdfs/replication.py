"""Replication-health helpers.

The re-replication *mechanism* lives in the NameNode's replication sweep
(commands piggybacked on heartbeats); this module provides the analysis
view of it — the numbers the paper's second assignment asks students to
"execute and record" to see HDFS transform, store and replicate data.
Every number is a tally of :meth:`NameNode.census` states.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hdfs.namenode import NameNode
from repro.sim.engine import Simulation


@dataclass(frozen=True)
class ReplicationHealth:
    """A point-in-time summary of replica state across the cluster."""

    total_blocks: int
    fully_replicated: int
    #: Blocks below their target — *missing* ones included, as in the
    #: NameNode's own re-replication queue (``fsck`` lists them apart).
    under_replicated: int
    over_replicated: int
    missing: int
    corrupt_replicas: int
    average_replication: float

    @property
    def healthy(self) -> bool:
        return self.missing == 0 and self.under_replicated == 0


def replication_health(namenode: NameNode) -> ReplicationHealth:
    """Compute replica health from the NameNode's block map."""
    total = len(namenode.block_map)
    states = dict.fromkeys(("missing", "under", "ok", "over"), 0)
    corrupt = live_replica_sum = 0
    for meta in namenode.block_map.values():
        live, _counted, state = namenode.census(meta)
        states[state] += 1
        live_replica_sum += live
        corrupt += len(meta.corrupt_on)
    return ReplicationHealth(
        total_blocks=total,
        fully_replicated=states["ok"],
        under_replicated=states["under"] + states["missing"],
        over_replicated=states["over"],
        missing=states["missing"],
        corrupt_replicas=corrupt,
        average_replication=(live_replica_sum / total) if total else 0.0,
    )


def wait_for_full_replication(
    sim: Simulation,
    namenode: NameNode,
    timeout: float = 3600.0,
    poll: float | None = None,
) -> bool:
    """Advance the simulation until every block is fully replicated (or
    the timeout passes).  Returns True on success.

    This is how tests and benchmarks observe re-replication converging
    after a DataNode death — the recovery the paper's students
    inadvertently load-tested.
    """
    step = poll or namenode.config.replication_check_interval
    deadline = sim.now + timeout
    while sim.now < deadline:
        if replication_health(namenode).healthy:
            return True
        sim.run_for(min(step, deadline - sim.now))
    return replication_health(namenode).healthy
