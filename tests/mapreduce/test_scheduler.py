"""PendingMapQueue locality buckets."""

import pytest

from repro.cluster.topology import ClusterTopology
from repro.mapreduce.inputformat import InputSplit
from repro.mapreduce.scheduler import PendingMapQueue
from repro.mapreduce.tasks import MapTask


def make_tasks(locations_per_task):
    return [
        MapTask(
            job_id="job_0001",
            index=i,
            split=InputSplit(
                path="/in",
                block_index=i,
                start_offset=0,
                length=1024,
                locations=tuple(locs),
            ),
        )
        for i, locs in enumerate(locations_per_task)
    ]


@pytest.fixture
def topo():
    # node0..node3 on rack0, node4..node7 on rack1.
    return ClusterTopology.regular(num_nodes=8, nodes_per_rack=4)


class TestPendingMapQueue:
    def test_node_local_preferred(self, topo):
        tasks = make_tasks([("node4",), ("node0",), ("node1",)])
        queue = PendingMapQueue(topo, tasks, initial=range(3))
        assert queue.pick_for("node0") == (1, "node_local")

    def test_rack_local_when_no_node_local(self, topo):
        tasks = make_tasks([("node4",), ("node1",)])
        queue = PendingMapQueue(topo, tasks, initial=range(2))
        # node0 shares rack0 with node1 only.
        assert queue.pick_for("node0") == (1, "rack_local")

    def test_off_rack_fifo_fallback(self, topo):
        tasks = make_tasks([("node4",), ("node5",)])
        queue = PendingMapQueue(topo, tasks, initial=range(2))
        assert queue.pick_for("node0") == (0, "off_rack")
        assert queue.pick_for("node0") == (1, "off_rack")
        assert queue.pick_for("node0") is None

    def test_fifo_within_equal_rank(self, topo):
        tasks = make_tasks([("node0",), ("node0",), ("node0",)])
        queue = PendingMapQueue(topo, tasks, initial=range(3))
        picks = [queue.pick_for("node0")[0] for _ in range(3)]
        assert picks == [0, 1, 2]

    def test_requeue_goes_to_the_back(self, topo):
        tasks = make_tasks([("node0",), ("node0",)])
        queue = PendingMapQueue(topo, tasks, initial=range(2))
        assert queue.pick_for("node0")[0] == 0
        queue.add(0)  # re-queued after a failure
        assert queue.pick_for("node0")[0] == 1
        assert queue.pick_for("node0")[0] == 0

    def test_add_is_idempotent(self, topo):
        tasks = make_tasks([("node0",)])
        queue = PendingMapQueue(topo, tasks, initial=[0])
        queue.add(0)
        assert len(queue) == 1
        assert queue.pick_for("node0")[0] == 0
        assert not queue

    def test_container_protocol(self, topo):
        tasks = make_tasks([("node0",), ("node1",), ("node2",)])
        queue = PendingMapQueue(topo, tasks, initial=[2, 0, 1])
        assert len(queue) == 3
        assert 2 in queue and 1 in queue
        assert list(queue) == [2, 0, 1]  # FIFO enqueue order
        queue.pick_for("node2")
        assert 2 not in queue

    def test_unknown_replica_nodes_ignored(self, topo):
        # Split locations may name nodes outside the topology (e.g. a
        # decommissioned DataNode) — they rank off_rack, not crash.
        tasks = make_tasks([("ghost-node",)])
        queue = PendingMapQueue(topo, tasks, initial=[0])
        assert queue.pick_for("node0") == (0, "off_rack")

    def test_stranger_tracker_gets_global_head(self, topo):
        tasks = make_tasks([("node0",)])
        queue = PendingMapQueue(topo, tasks, initial=[0])
        # A tracker not in the topology cannot be node/rack local.
        assert queue.pick_for("not-a-node") == (0, "off_rack")

