"""Quotas follow their directory through rename and delete.

``NameNode.quotas`` is keyed by path, so a rename has to re-key every
quota at or under the moved path, a delete has to drop them, and a
rename has to charge the moved subtree to the quota roots it enters.
The journal replay does the same through the same helper
(``namespace.move_quotas``), so a recovered NameNode agrees with the
live one on ``quotas`` too.
"""

import pytest

from repro.hdfs.namespace import move_quotas
from repro.util.errors import QuotaExceededError
from tests.conftest import make_hdfs


def _recovered_digest(cluster) -> tuple:
    cluster.crash_namenode()
    cluster.recover_namenode()
    return cluster.namenode.namespace_digest()


class TestMoveQuotas:
    def test_rekeys_the_root_and_everything_under_it(self):
        quotas = {"/a": (1, None), "/a/b": (2, 3), "/ab": (4, None), "/c": (5, None)}
        move_quotas(quotas, "/a", "/z/a")
        assert quotas == {
            "/z/a": (1, None), "/z/a/b": (2, 3), "/ab": (4, None), "/c": (5, None)
        }

    def test_none_drops_them(self):
        quotas = {"/a": (1, None), "/a/b": (2, 3), "/ab": (4, None)}
        move_quotas(quotas, "/a", None)
        assert quotas == {"/ab": (4, None)}


class TestQuotaFollowsRename:
    def test_renamed_directory_keeps_its_quota(self):
        cluster = make_hdfs()
        client, namenode = cluster.client(), cluster.namenode
        client.mkdirs("/proj")
        namenode.set_quota("/proj", namespace_quota=2)
        client.put_bytes("/proj/a", b"1")
        client.rename("/proj", "/proj2")
        assert namenode.quotas == {"/proj2": (2, None)}
        client.put_bytes("/proj2/b", b"2")
        with pytest.raises(QuotaExceededError):
            client.put_bytes("/proj2/c", b"3")
        # The old name is an ordinary, unlimited path again.
        assert client.mkdirs("/proj/x")
        for index in range(4):
            client.put_bytes(f"/proj/x/f{index}", b"x")

    def test_nested_quotas_move_with_their_ancestor(self):
        cluster = make_hdfs()
        client, namenode = cluster.client(), cluster.namenode
        client.mkdirs("/top/mid/leaf")
        namenode.set_quota("/top/mid", namespace_quota=5)
        namenode.set_quota("/top/mid/leaf", space_quota=4096)
        client.mkdirs("/dest")
        client.rename("/top", "/dest")  # onto an existing directory: into it
        assert namenode.quotas == {
            "/dest/top/mid": (5, None),
            "/dest/top/mid/leaf": (None, 4096),
        }

    def test_deleted_directory_takes_its_quota_along(self):
        cluster = make_hdfs()
        client, namenode = cluster.client(), cluster.namenode
        client.mkdirs("/proj/sub")
        namenode.set_quota("/proj", namespace_quota=2)
        namenode.set_quota("/proj/sub", namespace_quota=1)
        client.delete("/proj", recursive=True)
        assert namenode.quotas == {}
        assert client.mkdirs("/proj/x")
        for index in range(4):
            client.put_bytes(f"/proj/x/f{index}", b"x")


class TestRenameIsChargedToTheDestination:
    def test_namespace_quota_of_the_destination(self):
        cluster = make_hdfs()
        client, namenode = cluster.client(), cluster.namenode
        client.mkdirs("/q")
        namenode.set_quota("/q", namespace_quota=1)
        client.put_bytes("/tmp1", b"1")
        client.put_bytes("/tmp2", b"2")
        client.rename("/tmp1", "/q/1")
        before = namenode.namespace_digest()
        edits = namenode.journal.edits_logged
        with pytest.raises(QuotaExceededError):
            client.rename("/tmp2", "/q/2")
        # Nothing moved, nothing journaled.
        assert namenode.namespace_digest() == before
        assert namenode.journal.edits_logged == edits
        assert client.exists("/tmp2") and not client.exists("/q/2")

    def test_a_subtree_counts_every_inode_it_brings(self):
        cluster = make_hdfs()
        client, namenode = cluster.client(), cluster.namenode
        client.mkdirs("/q")
        namenode.set_quota("/q", namespace_quota=3)
        client.put_bytes("/stage/a", b"1")
        client.put_bytes("/stage/b", b"2")
        client.put_bytes("/stage/c", b"3")
        with pytest.raises(QuotaExceededError):
            client.rename("/stage", "/q")  # 1 directory + 3 files > 3
        client.delete("/stage/c")
        client.rename("/stage", "/q")  # 1 + 2 fits exactly
        assert client.exists("/q/stage/a")

    def test_space_quota_of_the_destination(self):
        cluster = make_hdfs(replication=2, block_size=1024)
        client, namenode = cluster.client(), cluster.namenode
        client.mkdirs("/q")
        namenode.set_quota("/q", space_quota=3 * 1024)
        client.put_bytes("/big", b"x" * 2048)  # 4096 with replication
        client.put_bytes("/small", b"x" * 1024)  # 2048 with replication
        with pytest.raises(QuotaExceededError):
            client.rename("/big", "/q/big")
        client.rename("/small", "/q/small")
        with pytest.raises(QuotaExceededError):
            client.put_bytes("/q/more", b"x" * 1024)

    def test_moving_within_one_quota_root_is_free(self):
        cluster = make_hdfs()
        client, namenode = cluster.client(), cluster.namenode
        client.mkdirs("/q/in")
        namenode.set_quota("/q", namespace_quota=2)
        client.put_bytes("/q/in/f", b"1")  # the root is full now
        client.rename("/q/in/f", "/q/f")
        client.rename("/q/in", "/q/out")
        assert client.exists("/q/f") and client.exists("/q/out")


class TestJournalAgreesOnQuotas:
    def test_live_equals_replayed_after_quota_renames_and_deletes(self):
        cluster = make_hdfs()
        client, namenode = cluster.client(), cluster.namenode
        client.mkdirs("/proj/sub")
        client.mkdirs("/gone/deep")
        client.mkdirs("/q")
        namenode.set_quota("/proj", namespace_quota=4)
        namenode.set_quota("/proj/sub", space_quota=1 << 20)
        namenode.set_quota("/gone/deep", namespace_quota=9)
        namenode.set_quota("/q", namespace_quota=1)
        client.put_bytes("/proj/a", b"1")
        client.put_bytes("/tmp1", b"1")
        client.put_bytes("/tmp2", b"2")
        client.rename("/proj", "/proj2")
        client.delete("/gone", recursive=True)
        client.rename("/tmp1", "/q/1")
        with pytest.raises(QuotaExceededError):
            client.rename("/tmp2", "/q/2")
        client.mkdirs("/proj/x")
        assert namenode.quotas == {
            "/proj2": (4, None), "/proj2/sub": (None, 1 << 20), "/q": (1, None)
        }
        live = namenode.namespace_digest()
        assert _recovered_digest(cluster) == live
        # ... and from an fsimage taken half way instead of edits alone.
        cluster.dfsadmin().save_namespace()
        client.rename("/proj2", "/proj3")
        live = namenode.namespace_digest()
        assert cluster.namenode.quotas["/proj3/sub"] == (None, 1 << 20)
        assert _recovered_digest(cluster) == live

    def test_no_op_rename_writes_no_edit(self):
        cluster = make_hdfs()
        client, namenode = cluster.client(), cluster.namenode
        client.mkdirs("/proj")
        namenode.set_quota("/proj", namespace_quota=2)
        edits = namenode.journal.edits_logged
        client.rename("/proj", "/proj/.")
        assert namenode.journal.edits_logged == edits
        assert namenode.quotas == {"/proj": (2, None)}

    def test_an_old_log_with_a_no_op_rename_still_replays(self):
        # Logs written before the no-op stopped being journaled carry
        # OP_RENAME(src, src); replay must not take it for a delete.
        cluster = make_hdfs()
        client, namenode = cluster.client(), cluster.namenode
        client.mkdirs("/proj")
        namenode.set_quota("/proj", namespace_quota=2)
        namenode.journal.log_rename("/proj", "/proj")
        live = namenode.namespace_digest()
        assert _recovered_digest(cluster) == live
        assert cluster.namenode.quotas == {"/proj": (2, None)}
