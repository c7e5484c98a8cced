"""Rack topology and Hadoop network distance."""

import pytest

from repro.cluster.hardware import Node, NodeState
from repro.cluster.topology import ClusterTopology
from repro.util.errors import ConfigError


class TestRegularTopology:
    def test_node_and_rack_counts(self):
        topo = ClusterTopology.regular(num_nodes=10, nodes_per_rack=4)
        assert len(topo) == 10
        assert topo.num_racks() == 3  # 4 + 4 + 2
        assert len(topo.racks["rack0"].nodes) == 4
        assert len(topo.racks["rack2"].nodes) == 2

    def test_invalid_counts_rejected(self):
        with pytest.raises(ConfigError):
            ClusterTopology.regular(num_nodes=0)
        with pytest.raises(ConfigError):
            ClusterTopology.regular(num_nodes=4, nodes_per_rack=0)

    def test_duplicate_node_rejected(self):
        topo = ClusterTopology()
        topo.add_node(Node(name="x"), "r0")
        with pytest.raises(ConfigError):
            topo.add_node(Node(name="x"), "r1")

    def test_unknown_node_lookup(self):
        topo = ClusterTopology.regular(num_nodes=2)
        with pytest.raises(ConfigError):
            topo.node("ghost")
        assert "ghost" not in topo
        assert "node0" in topo


class TestDistance:
    @pytest.fixture
    def topo(self):
        return ClusterTopology.regular(num_nodes=6, nodes_per_rack=3)

    def test_same_node(self, topo):
        assert topo.distance("node0", "node0") == 0

    def test_same_rack(self, topo):
        assert topo.distance("node0", "node2") == 2

    def test_cross_rack(self, topo):
        assert topo.distance("node0", "node3") == 4

    def test_symmetry(self, topo):
        for a in ("node0", "node4"):
            for b in ("node1", "node5"):
                assert topo.distance(a, b) == topo.distance(b, a)


class TestLocalityClassification:
    @pytest.fixture
    def topo(self):
        return ClusterTopology.regular(num_nodes=6, nodes_per_rack=3)

    def test_node_local_wins(self, topo):
        assert (
            topo.locality_of("node0", ["node5", "node0"]) == "node_local"
        )

    def test_rack_local(self, topo):
        assert topo.locality_of("node0", ["node2", "node4"]) == "rack_local"

    def test_off_rack(self, topo):
        assert topo.locality_of("node0", ["node3", "node5"]) == "off_rack"

    def test_no_replicas_is_off_rack(self, topo):
        assert topo.locality_of("node0", []) == "off_rack"


class TestLiveNodes:
    def test_live_excludes_down(self):
        topo = ClusterTopology.regular(num_nodes=3)
        topo.node("node1").state = NodeState.DOWN
        assert [n.name for n in topo.live_nodes()] == ["node0", "node2"]
