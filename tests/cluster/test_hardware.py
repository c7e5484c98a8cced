"""Node specs and state."""

import pytest

from repro.cluster.hardware import CLEMSON_NODE_SPEC, Node, NodeSpec, NodeState
from repro.util.units import GB


class TestNodeSpec:
    def test_clemson_spec_matches_paper(self):
        # "Each node had dual 8-core CPUs, 64GB RAM, and 850GB HDD."
        assert CLEMSON_NODE_SPEC.cores == 16
        assert CLEMSON_NODE_SPEC.ram_bytes == 64 * GB
        assert CLEMSON_NODE_SPEC.disk_bytes == 850 * GB

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cores": 0},
            {"ram_bytes": 0},
            {"disk_bytes": -1},
            {"disk_read_bw": 0},
            {"nic_bw": -5},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NodeSpec(**kwargs)


class TestNode:
    def test_disk_provisioned_from_spec(self):
        node = Node(name="n1")
        assert node.disk.capacity == CLEMSON_NODE_SPEC.disk_bytes
        assert node.disk.free == node.disk.capacity

    def test_state_transitions(self):
        node = Node(name="n1")
        assert node.is_up
        node.state = NodeState.DOWN
        assert not node.is_up
        node.state = NodeState.UP
        assert node.is_up
