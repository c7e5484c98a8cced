"""Network cost model and traffic counters."""

import pytest

from repro.cluster.network import NetworkModel, TrafficCounters
from repro.cluster.topology import ClusterTopology
from repro.util.units import MB


@pytest.fixture
def net():
    topo = ClusterTopology.regular(num_nodes=6, nodes_per_rack=3)
    return NetworkModel(topology=topo, nic_bw=100 * MB, rack_oversubscription=4.0)


class TestBandwidth:
    def test_node_local_is_free(self, net):
        assert net.transfer_time("node0", "node0", 10 * MB) == 0.0
        assert net.transfer_time("node0", "node0", 100 * MB) == 0.0

    def test_rack_local_full_nic(self, net):
        elapsed = net.transfer_time("node0", "node1", 10 * MB)
        assert elapsed == pytest.approx(net.latency + 10 * MB / (100 * MB))

    def test_cross_rack_oversubscribed(self, net):
        elapsed = net.transfer_time("node0", "node3", 10 * MB)
        assert elapsed == pytest.approx(net.latency + 10 * MB / (25 * MB))

    def test_transfer_time_scales_linearly(self, net):
        t1 = net.transfer_time("node0", "node1", 10 * MB)
        t2 = net.transfer_time("node0", "node1", 20 * MB)
        assert t2 - net.latency > (t1 - net.latency) * 1.99

    def test_cross_rack_slower_than_rack_local(self, net):
        rack = net.transfer_time("node0", "node1", 50 * MB)
        cross = net.transfer_time("node0", "node3", 50 * MB)
        assert cross > rack

    def test_negative_bytes_rejected(self, net):
        with pytest.raises(ValueError):
            net.transfer_time("node0", "node1", -1)


class TestCounters:
    def test_buckets(self, net):
        net.transfer_time("node0", "node0", 100)
        net.transfer_time("node0", "node1", 200)
        net.transfer_time("node0", "node3", 300)
        counters = net.counters
        assert counters.node_local == 100
        assert counters.rack_local == 200
        assert counters.off_rack == 300
        assert counters.network_bytes == 500
        assert counters.total_bytes == 600

    def test_reset(self, net):
        net.transfer_time("node0", "node1", 200)
        net.reset_counters()
        assert net.counters.total_bytes == 0

    def test_merged(self):
        a = TrafficCounters(node_local=1, rack_local=2, off_rack=3)
        b = TrafficCounters(node_local=10, rack_local=20, off_rack=30)
        merged = a.merged(b)
        assert merged.as_dict() == {
            "node_local": 11,
            "rack_local": 22,
            "off_rack": 33,
        }


class TestValidation:
    def test_oversubscription_below_one_rejected(self):
        topo = ClusterTopology.regular(num_nodes=2)
        with pytest.raises(ValueError):
            NetworkModel(topology=topo, rack_oversubscription=0.5)

    def test_nonpositive_bw_rejected(self):
        topo = ClusterTopology.regular(num_nodes=2)
        with pytest.raises(ValueError):
            NetworkModel(topology=topo, nic_bw=0)
