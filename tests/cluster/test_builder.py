"""Figure-1 cluster builders and their scan-time models."""

import pytest

from repro.cluster.builder import build_hadoop_cluster, build_hpc_cluster
from repro.cluster.hardware import NodeSpec, NodeState
from repro.util.units import GB, MB


class TestHadoopBuilder:
    def test_default_is_paper_cluster(self):
        hadoop = build_hadoop_cluster()
        assert len(hadoop.topology) == 8
        assert hadoop.topology.num_racks() == 1
        node = hadoop.topology.node("node0")
        assert node.spec.disk_bytes == 850 * GB

    def test_scan_splits_across_nodes(self):
        hadoop = build_hadoop_cluster(num_workers=4)
        t4 = hadoop.scan_time(100 * GB)
        hadoop8 = build_hadoop_cluster(num_workers=8)
        t8 = hadoop8.scan_time(100 * GB)
        assert t8 == pytest.approx(t4 / 2)

    def test_scan_overlap_compute_dominates_when_larger(self):
        hadoop = build_hadoop_cluster(num_workers=4)
        io_only = hadoop.scan_time(1 * GB)
        assert hadoop.scan_time(1 * GB, overlap_compute=io_only * 10) == (
            pytest.approx(io_only * 10)
        )

    def test_scan_requires_live_nodes(self):
        hadoop = build_hadoop_cluster(num_workers=2)
        for node in hadoop.topology.nodes():
            node.state = NodeState.DOWN
        with pytest.raises(ValueError):
            hadoop.scan_time(GB)


class TestHpcBuilder:
    def test_compute_nodes_have_small_scratch(self):
        hpc = build_hpc_cluster(num_compute=8)
        assert hpc.topology.node("node0").spec.disk_bytes == 100 * GB

    def test_scan_flattens_at_saturation(self):
        hpc_small = build_hpc_cluster(
            num_compute=8, storage_aggregate_bw=1000 * MB
        )
        hpc_large = build_hpc_cluster(
            num_compute=64, storage_aggregate_bw=1000 * MB
        )
        # Both are past saturation (8 * 125MB/s = 1GB/s): same total time.
        assert hpc_small.scan_time(100 * GB) == pytest.approx(
            hpc_large.scan_time(100 * GB)
        )

    def test_hadoop_beats_hpc_beyond_saturation(self):
        """The Figure-1 claim: data locality wins at scale."""
        data = 10 * 1024 * GB
        n = 128
        hpc = build_hpc_cluster(num_compute=n, storage_aggregate_bw=4000 * MB)
        hadoop = build_hadoop_cluster(num_workers=n, nodes_per_rack=16)
        assert hadoop.scan_time(data) < hpc.scan_time(data)

    def test_custom_spec_respected(self):
        spec = NodeSpec(disk_bytes=10 * GB)
        hpc = build_hpc_cluster(num_compute=2, spec=spec)
        assert hpc.topology.node("node1").spec.disk_bytes == 10 * GB
