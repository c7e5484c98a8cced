"""Property-based tests on HDFS invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.hdfs.balancer import Balancer
from repro.hdfs.fsck import fsck
from repro.hdfs.namespace import Namespace, normalize
from repro.util.errors import HdfsError
from tests.conftest import make_hdfs

# Cluster construction is cheap but not free: keep example counts sane.
CLUSTER_SETTINGS = settings(max_examples=20, deadline=None)
FAST_SETTINGS = settings(max_examples=100, deadline=None)


class TestWriteReadRoundTrip:
    @CLUSTER_SETTINGS
    @given(
        payload=st.binary(min_size=0, max_size=8000),
        block_size=st.integers(min_value=64, max_value=2048),
        replication=st.integers(min_value=1, max_value=3),
    )
    def test_round_trip_exact(self, payload, block_size, replication):
        cluster = make_hdfs(
            num_datanodes=3, block_size=block_size, replication=replication
        )
        client = cluster.client()
        client.put_bytes("/f", payload)
        assert client.read_bytes("/f").data == payload

    @CLUSTER_SETTINGS
    @given(
        payload=st.binary(min_size=1, max_size=8000),
        block_size=st.integers(min_value=64, max_value=2048),
    )
    def test_block_count_is_ceiling(self, payload, block_size):
        cluster = make_hdfs(num_datanodes=3, block_size=block_size)
        client = cluster.client()
        result = client.put_bytes("/f", payload)
        assert result.blocks == math.ceil(len(payload) / block_size)
        inode = cluster.namenode.namespace.get_file("/f")
        assert sum(b.length for b in inode.blocks) == len(payload)
        assert all(b.length <= block_size for b in inode.blocks)

    @CLUSTER_SETTINGS
    @given(
        payloads=st.lists(
            st.binary(min_size=0, max_size=2000), min_size=1, max_size=5
        )
    )
    def test_du_equals_total_payload(self, payloads):
        cluster = make_hdfs(num_datanodes=3)
        client = cluster.client()
        for i, payload in enumerate(payloads):
            client.put_bytes(f"/d/f{i}", payload)
        assert client.du("/d") == sum(len(p) for p in payloads)

    @CLUSTER_SETTINGS
    @given(
        payload=st.binary(min_size=1, max_size=4000),
        replication=st.integers(min_value=1, max_value=3),
    )
    def test_replica_counts_match_factor(self, payload, replication):
        cluster = make_hdfs(num_datanodes=4, replication=replication)
        client = cluster.client()
        client.put_bytes("/f", payload)
        for meta in cluster.namenode.block_map.values():
            assert len(meta.locations) == replication
            # Replicas on distinct nodes.
            assert len(set(meta.locations)) == replication

    @CLUSTER_SETTINGS
    @given(payload=st.binary(min_size=1, max_size=4000))
    def test_stored_bytes_equals_length_times_replication(self, payload):
        cluster = make_hdfs(num_datanodes=4, replication=2)
        cluster.client().put_bytes("/f", payload)
        assert cluster.total_stored_bytes() == 2 * len(payload)


PATH_SEGMENT = st.text(alphabet="abcdefgh123", min_size=1, max_size=6)


class TestNamespaceProperties:
    @FAST_SETTINGS
    @given(segments=st.lists(PATH_SEGMENT, min_size=1, max_size=5))
    def test_mkdirs_then_exists(self, segments):
        ns = Namespace()
        path = "/" + "/".join(segments)
        ns.mkdirs(path)
        assert ns.exists(path)
        assert ns.is_dir(path)
        # Every prefix exists too.
        for i in range(1, len(segments)):
            assert ns.is_dir("/" + "/".join(segments[:i]))

    @FAST_SETTINGS
    @given(segments=st.lists(PATH_SEGMENT, min_size=1, max_size=5))
    def test_create_delete_is_identity(self, segments):
        ns = Namespace()
        path = "/" + "/".join(segments)
        ns.create_file(path, replication=1)
        assert ns.exists(path)
        ns.delete(path)
        assert not ns.exists(path)

    @FAST_SETTINGS
    @given(segments=st.lists(PATH_SEGMENT, min_size=1, max_size=4))
    def test_normalize_idempotent(self, segments):
        path = "/" + "//".join(segments)
        assert normalize(normalize(path)) == normalize(path)

    @FAST_SETTINGS
    @given(
        src=st.lists(PATH_SEGMENT, min_size=1, max_size=3),
        dst=st.lists(PATH_SEGMENT, min_size=1, max_size=3),
    )
    def test_rename_preserves_file_count(self, src, dst):
        ns = Namespace()
        src_path = "/src/" + "/".join(src)
        dst_path = "/dst/" + "/".join(dst)
        if normalize(src_path) == normalize(dst_path):
            return
        ns.create_file(src_path, replication=1)
        ns.mkdirs("/dst/" + "/".join(dst[:-1]) if len(dst) > 1 else "/dst")
        try:
            ns.rename(src_path, dst_path)
        except Exception:
            return  # collisions etc. are allowed to fail
        files = list(ns.walk_files("/"))
        assert len(files) == 1


# -- replica bookkeeping: one census, two readers, one reverse index ---------

_file = st.integers(min_value=0, max_value=5)
_node = st.integers(min_value=0, max_value=3)
_cluster_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _file, st.integers(0, 1500)),
        st.tuples(st.just("delete"), _file),
        st.tuples(st.just("rename"), _file, _file),
        st.tuples(st.just("setrep"), _file, st.integers(1, 3)),
        st.tuples(st.just("crash_datanode"), _node),
        st.tuples(st.just("restart_datanode"), _node),
        st.tuples(st.just("corrupt"), _file, _node),
        st.tuples(st.just("decommission"), _node),
        st.tuples(st.just("stop_decommission"), _node),
        st.tuples(st.just("balance")),
        st.tuples(st.just("restart_namenode")),
        st.tuples(st.just("advance"), st.sampled_from([1.0, 3.0, 10.0, 45.0, 700.0])),
    ),
    max_size=25,
)


def _apply(cluster, op) -> None:
    namenode, client = cluster.namenode, cluster.client(node="node0")
    kind, args = op[0], op[1:]
    if kind == "put":
        client.put_bytes(f"/d/f{args[0]}", b"x" * args[1], overwrite=True)
    elif kind == "delete":
        client.delete(f"/d/f{args[0]}")
    elif kind == "rename":
        client.rename(f"/d/f{args[0]}", f"/d/f{args[1]}")
    elif kind == "setrep":
        namenode.set_replication(f"/d/f{args[0]}", args[1])
    elif kind == "crash_datanode":
        cluster.crash_datanode(f"node{args[0]}")
    elif kind == "restart_datanode":
        cluster.restart_datanode(f"node{args[0]}")
    elif kind == "corrupt":
        # Damage this node's replica of the file's first block (if it
        # holds one) and let its block scanner report it.
        datanode = cluster.datanode(f"node{args[1]}")
        blocks = namenode.namespace.get_file(f"/d/f{args[0]}").blocks
        if blocks and datanode.has_block(blocks[0].block_id):
            datanode.corrupt_block(blocks[0].block_id)
        datanode.verify_all()
    elif kind == "decommission":
        namenode.start_decommission(f"node{args[0]}")
    elif kind == "stop_decommission":
        namenode.stop_decommission(f"node{args[0]}")
    elif kind == "balance":
        Balancer(cluster, threshold=1e-9).run(max_iterations=20)
    elif kind == "restart_namenode":
        namenode.restart()
    else:
        cluster.sim.run_for(args[0])


def assert_replica_bookkeeping(cluster) -> None:
    """What must hold after *every* step, settled or not."""
    namenode = cluster.namenode
    block_map = namenode.block_map
    # The reverse index is the exact inverse of ``locations``.
    for datanode in set(cluster.datanodes) | set(namenode._blocks_on):
        assert namenode._blocks_on.get(datanode, set()) == {
            bid for bid, meta in block_map.items() if datanode in meta.locations
        }, datanode
    missing = set(namenode.missing_blocks())
    below = namenode.under_replicated | missing
    assert below | namenode.over_replicated <= set(block_map)
    assert namenode._safe_blocks == sum(meta.safe for meta in block_map.values())
    # fsck, over the whole tree and file by file, counts the same blocks
    # the same way as the NameNode's own queues.
    report = fsck(namenode)
    assert (
        report.total_blocks, report.missing_blocks, report.under_replicated,
        report.over_replicated,
    ) == (
        len(block_map), len(missing), len(below - missing),
        len(namenode.over_replicated),
    )
    for path, inode in namenode.namespace.walk_files("/"):
        ids = {block.block_id for block in inode.blocks}
        report = fsck(namenode, path)
        assert (
            report.missing_blocks, report.under_replicated, report.over_replicated
        ) == (
            len(ids & missing), len(ids & below - missing),
            len(ids & namenode.over_replicated),
        ), path
    # ... and block for block, all of them say what the one census says.
    for bid, meta in block_map.items():
        assert not meta.locations & meta.corrupt_on, bid
        live, _counted, state = namenode.census(meta)
        assert meta.safe == (live >= 1), bid
        assert (bid in missing) == (state == "missing"), (bid, state)
        assert (bid in below) == (state in ("missing", "under")), (bid, state)
        assert (bid in namenode.over_replicated) == (state == "over"), (bid, state)


class TestReplicaBookkeeping:
    @settings(max_examples=60, deadline=None)
    @given(ops=_cluster_ops)
    def test_index_queues_fsck_and_health_agree_after_every_step(self, ops):
        cluster = make_hdfs(num_datanodes=4, block_size=512, replication=2)
        for op in ops:
            try:
                _apply(cluster, op)
            except HdfsError:
                pass  # refused ops (safemode, missing file) are history too
            assert_replica_bookkeeping(cluster)
        cluster.sim.run_for(1500.0)  # let deaths, copies and trims settle
        assert_replica_bookkeeping(cluster)
