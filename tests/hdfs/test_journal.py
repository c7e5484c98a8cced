"""NameNode durability: edit-log codec, fsimage, checkpoints, recovery.

The contract under test (see ``repro.hdfs.journal``): every namespace
mutation is journaled as a logical-redo record, a crashed NameNode
replays fsimage + edits back to the exact pre-crash namespace, and a
torn edit-log tail loses only the torn record — never the valid prefix.
"""

import struct

import pytest

from repro.hdfs.journal import (
    EDIT_SPECS,
    EDITS_MAGIC,
    IMAGE_MAGIC,
    OP_ADD_BLOCK,
    OP_CREATE,
    OP_MKDIRS,
    OP_SET_QUOTA,
    VERSION,
    DirJournalStorage,
    MemoryJournalStorage,
    NameNodeJournal,
    decode_edit,
    decode_image,
    edits_header,
    empty_image_state,
    encode_edit,
    encode_image,
    frame_record,
    scan_edits,
)
from repro.hdfs.namenode import NameNode
from repro.sim.engine import Simulation
from repro.util.errors import (
    ConfigError,
    HdfsError,
    JournalFormatError,
    NameNodeDownError,
)
from tests.conftest import make_hdfs

#: One representative value per field kind, for spec-driven round trips.
SAMPLE_VALUES = {
    "str": "/user/stüdent/file.txt",
    "u32": 3,
    "u64": 1_000_000_007,
    "i64": -42,
    "f64": 1234.5,
    "bool": True,
    "opt_i64": None,
}


def sample_record(op):
    return tuple(SAMPLE_VALUES[kind] for kind in EDIT_SPECS[op])


class TestEditCodec:
    @pytest.mark.parametrize("op", sorted(EDIT_SPECS))
    def test_round_trip_every_opcode(self, op):
        values = sample_record(op)
        assert decode_edit(encode_edit(op, values)) == (op, values)

    def test_unknown_opcode_rejected(self):
        with pytest.raises(JournalFormatError):
            encode_edit(99, ())
        with pytest.raises(JournalFormatError):
            decode_edit(b"\x63")

    def test_wrong_arity_rejected(self):
        with pytest.raises(JournalFormatError):
            encode_edit(OP_MKDIRS, ("/a",))

    def test_trailing_bytes_rejected(self):
        payload = encode_edit(OP_MKDIRS, ("/a", 1.0))
        with pytest.raises(JournalFormatError):
            decode_edit(payload + b"\x00")

    def test_optional_quota_presence_byte(self):
        values = ("/q", 5, None)
        assert decode_edit(encode_edit(OP_SET_QUOTA, values))[1] == values


class TestEditScan:
    def _blob(self, *records):
        out = bytearray(edits_header())
        for op, values in records:
            out += frame_record(encode_edit(op, values))
        return bytes(out)

    def test_scan_full_valid_log(self):
        records = [
            (OP_MKDIRS, ("/a", 1.0)),
            (OP_CREATE, ("/a/f", 2, 2.0)),
            (OP_ADD_BLOCK, ("/a/f", 1001, 0, 512)),
        ]
        scan = scan_edits(self._blob(*records))
        assert list(scan.records) == records
        assert scan.torn_bytes == 0

    def test_scan_stops_at_corrupt_record(self):
        blob = bytearray(
            self._blob((OP_MKDIRS, ("/a", 1.0)), (OP_MKDIRS, ("/b", 2.0)))
        )
        blob[-1] ^= 0xFF  # corrupt the second record's payload
        scan = scan_edits(bytes(blob))
        assert [op for op, _ in scan.records] == [OP_MKDIRS]
        assert scan.torn_bytes > 0
        assert scan.valid_bytes + scan.torn_bytes == len(blob)

    def test_scan_short_header_is_all_torn(self):
        scan = scan_edits(EDITS_MAGIC[:2])
        assert scan.records == () and scan.torn_bytes == 2

    def test_scan_wrong_magic_is_hard_error(self):
        blob = b"NOPE" + self._blob()[4:]
        with pytest.raises(JournalFormatError):
            scan_edits(blob)


class TestImageCodec:
    def _state(self):
        state = empty_image_state()
        ns = state.namespace
        ns.mkdirs("/user/a", mtime=1.0)
        inode = ns.create_file("/user/a/f.txt", replication=2, mtime=2.0)
        inode.under_construction = False
        state.quotas["/user"] = (10, None)
        state.decommissioning.add("node3")
        state.next_block_id = 2000
        return state

    def test_image_round_trip(self):
        state = self._state()
        decoded = decode_image(encode_image(state))
        assert decoded.namespace.dump() == state.namespace.dump()
        assert decoded.quotas == state.quotas
        assert decoded.decommissioning == state.decommissioning
        assert decoded.next_block_id == state.next_block_id

    def test_image_corruption_is_hard_error(self):
        blob = bytearray(encode_image(self._state()))
        blob[-1] ^= 0xFF
        with pytest.raises(JournalFormatError):
            decode_image(bytes(blob))

    def test_image_truncation_is_hard_error(self):
        blob = encode_image(self._state())
        with pytest.raises(JournalFormatError):
            decode_image(blob[: len(blob) - 3])


def _str(data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + data


def image_body(
    *,
    presence=b"\x00",
    kind=b"\x01",
    under_construction=b"\x00",
    name=b"/f",
    inodes=2,
    tail=b"",
) -> bytes:
    """An fsimage body written byte by byte: one quota, the root and one
    single-block file.  Each keyword replaces one field with a defect."""
    return b"".join(
        [
            struct.pack(">QI", 1001, 1),  # next block id, one quota
            _str(b"/q") + presence + b"\x00",  # path, ns / space quota
            struct.pack(">I", 0),  # no decommissioning datanodes
            struct.pack(">I", inodes),
            b"\x00" + _str(b"/") + struct.pack(">d", 0.0),  # the root
            kind + _str(name) + struct.pack(">dI", 1.0, 3),  # mtime, replication
            under_construction + struct.pack(">I", 1),  # one block
            struct.pack(">QIQ", 1000, 1, 64),
            tail,
        ]
    )


def image_blob(body: bytes) -> bytes:
    """Wrap a body in a valid header and a CRC that matches it."""
    return struct.pack(">4sI", IMAGE_MAGIC, VERSION) + frame_record(body)


class TestImageBodyDefects:
    """Corruption the CRC cannot see: a body whose checksum is right but
    whose content is not an fsimage is still a hard error."""

    def test_the_hand_written_body_is_valid(self):
        state = decode_image(image_blob(image_body()))
        assert state.next_block_id == 1001
        assert state.quotas == {"/q": (None, None)}
        inode = state.namespace.get_file("/f")
        assert (inode.replication, inode.under_construction) == (3, False)
        assert [(b.block_id, b.length) for b in inode.blocks] == [(1000, 64)]

    @pytest.mark.parametrize(
        "defect, match",
        [
            ({"kind": b"\x02"}, "unknown inode kind 2"),
            ({"under_construction": b"\x02"}, "bad bool byte 2"),
            ({"presence": b"\x02"}, "bad optional-presence byte 2"),
            ({"name": b"/\xff"}, "bad UTF-8"),
            ({"inodes": 3}, "truncated"),
            ({"tail": b"\x00"}, "trailing bytes"),
        ],
        ids=["inode-kind", "bool", "presence", "utf-8", "short-count", "trailing"],
    )
    def test_crc_valid_defect_is_hard_error(self, defect, match):
        with pytest.raises(JournalFormatError, match=match):
            decode_image(image_blob(image_body(**defect)))


class TestJournalManager:
    def _journal(self, limit=0):
        return NameNodeJournal(MemoryJournalStorage(), checkpoint_edit_limit=limit)

    def test_log_then_recover_replays(self):
        journal = self._journal()
        journal.format()
        journal.log_mkdirs("/a", 1.0)
        journal.log_create("/a/f", 2, 2.0)
        journal.log_add_block("/a/f", 1001, 0, 512)
        journal.log_complete("/a/f", 3.0)
        state = journal.recover()
        dump = dict(
            (entry[0], entry) for entry in state.namespace.dump()
        )
        assert "/a/f" in dump
        assert state.next_block_id == 1002
        assert journal.last_recovery.replayed_edits == 4
        assert journal.last_recovery.torn_bytes == 0

    def test_checkpoint_truncates_then_recovery_replays_only_the_tail(self):
        journal = self._journal()
        journal.format()
        journal.log_mkdirs("/a", 1.0)
        journal.log_mkdirs("/b", 2.0)
        # Bind a snapshot equal to what the log built so far.
        state = journal.recover()
        journal.bind(lambda: state)
        stats = journal.checkpoint()
        assert stats.edits_truncated == 2 and stats.image_inodes == 3
        journal.log_mkdirs("/c", 3.0)
        recovered = journal.recover()
        assert journal.last_recovery.replayed_edits == 1
        assert journal.last_recovery.image_inodes == 3
        paths = [path for path, *_ in recovered.namespace.dump()]
        assert paths == ["/", "/a", "/b", "/c"]

    def test_auto_checkpoint_at_edit_limit(self):
        journal = self._journal(limit=3)
        journal.bind(lambda: journal.recover())
        journal.format()
        for i in range(7):
            journal.log_mkdirs(f"/d{i}", float(i))
        assert journal.checkpoints == 2
        assert journal.edits_since_checkpoint == 1
        assert journal.edits_logged == 7

    def test_tear_tail_drops_only_the_last_record(self):
        journal = self._journal()
        journal.format()
        journal.log_mkdirs("/a", 1.0)
        journal.log_mkdirs("/b", 2.0)
        assert journal.tear_tail() > 0
        state = journal.recover()
        assert journal.last_recovery.torn_bytes > 0
        paths = [path for path, *_ in state.namespace.dump()]
        assert paths == ["/", "/a"]  # the torn record ("/b") is lost

    def test_disabled_journal_noops_and_refuses(self):
        journal = NameNodeJournal(None)
        assert not journal.enabled
        journal.log_mkdirs("/a", 1.0)  # silent no-op, never raises
        assert journal.edits_logged == 0
        assert journal.tear_tail() == 0
        assert "disabled" in journal.describe()
        with pytest.raises(HdfsError):
            journal.checkpoint()
        with pytest.raises(HdfsError):
            journal.recover()


class TestDirJournalStorage:
    def test_persists_across_storage_instances(self, tmp_path):
        directory = str(tmp_path / "name")
        journal = NameNodeJournal(DirJournalStorage(directory))
        journal.format()
        journal.log_mkdirs("/a", 1.0)
        journal.log_create("/a/f", 2, 2.0)
        reopened = NameNodeJournal(DirJournalStorage(directory))
        state = reopened.recover()
        paths = [path for path, *_ in state.namespace.dump()]
        assert paths == ["/", "/a", "/a/f"]

    def test_image_swap_is_atomic_no_tmp_left(self, tmp_path):
        directory = str(tmp_path / "name")
        storage = DirJournalStorage(directory)
        journal = NameNodeJournal(storage)
        journal.bind(empty_image_state)
        journal.format()
        journal.checkpoint()
        assert storage.read_image() is not None
        import os

        assert not os.path.exists(storage.image_path + ".tmp")
        assert not os.path.exists(storage.edits_path + ".tmp")


class TestNameNodeCrashRecovery:
    def _loaded_cluster(self, **config_kwargs):
        hdfs = make_hdfs(num_datanodes=3, **config_kwargs)
        client = hdfs.client()
        client.put_text("/user/a/one.txt", "first file body\n" * 30)
        client.put_text("/user/a/two.txt", "second file body\n" * 20)
        client.mkdirs("/user/b")
        client.rename("/user/a/two.txt", "/user/b/two.txt")
        return hdfs

    def test_crash_wipes_memory_and_rpcs_fail(self):
        hdfs = self._loaded_cluster()
        hdfs.crash_namenode()
        nn = hdfs.namenode
        assert nn.down and nn.crashes == 1
        assert len(nn.block_map) == 0 and len(nn.datanodes) == 0
        with pytest.raises(NameNodeDownError):
            nn.exists("/user/a/one.txt")
        with pytest.raises(NameNodeDownError):
            nn.mkdirs("/nope")

    #: Structures holding durable state, which recover/restart refill.
    DURABLE = {"namespace", "quotas", "decommissioning", "block_map"}

    @pytest.mark.parametrize(
        "journal,events",
        [
            (True, ("crash",)),
            (True, ("crash", "recover")),
            (True, ("restart",)),
            (False, ("restart",)),
        ],
    )
    def test_a_new_process_forgets_what_a_fresh_namenode_never_knew(
        self, journal, events
    ):
        """crash, recover and restart share one list of runtime state:
        right after each, the NameNode has exactly a fresh one's
        attributes and every runtime container is as empty as a fresh
        one's (a field reset in one of them and not the others fails
        here)."""
        hdfs = self._loaded_cluster(journal=journal)
        hdfs.crash_datanode("node0")  # queue re-replication work
        hdfs.sim.run_for(hdfs.namenode.config.dead_node_timeout * 2)
        nn = hdfs.namenode
        assert nn.datanodes and nn._blocks_on and nn.liveness.last_beat
        for event in events:
            getattr(nn, event)()
        fresh = NameNode(Simulation(), hdfs.topology, nn.config)
        assert vars(nn).keys() == vars(fresh).keys()
        for name, value in vars(fresh).items():
            if name in self.DURABLE or not isinstance(value, (dict, set, list)):
                continue
            assert len(getattr(nn, name)) == len(value) == 0, name
        assert nn.liveness.last_beat == fresh.liveness.last_beat == {}
        assert nn._safe_blocks == fresh._safe_blocks == 0
        assert nn.safemode.blocks_safe == fresh.safemode.blocks_safe == 0

    def test_recovery_restores_the_exact_namespace(self):
        hdfs = self._loaded_cluster()
        before = hdfs.namenode.namespace_digest()
        hdfs.crash_namenode()
        hdfs.recover_namenode()
        nn = hdfs.namenode
        assert not nn.down and nn.recoveries == 1
        assert not nn.safemode.active
        assert nn.namespace_digest() == before
        # And the data path works end to end on the recovered namespace.
        assert "first file" in hdfs.client().read_text("/user/a/one.txt")

    def test_abandoned_block_and_cleared_quota_replay_exactly(self):
        hdfs = self._loaded_cluster()
        nn = hdfs.namenode
        # A write whose whole pipeline failed: the block is rolled back.
        nn.create_file("/user/a/partial.txt")
        block, _targets = nn.add_block("/user/a/partial.txt", 100)
        nn.abandon_block("/user/a/partial.txt", block)
        # One quota set and then cleared (None/None), one left standing.
        nn.set_quota("/user/b", namespace_quota=10, space_quota=10_000)
        nn.set_quota("/user/a", namespace_quota=5)
        nn.set_quota("/user/b")
        assert nn.namespace.get_file("/user/a/partial.txt").blocks == []
        assert set(nn.quotas) == {"/user/a"}
        before = nn.namespace_digest()
        hdfs.crash_namenode()
        hdfs.recover_namenode()
        assert hdfs.namenode.journal.last_recovery.replayed_edits > 0
        assert hdfs.namenode.namespace_digest() == before

    def test_restart_replays_the_journal(self):
        hdfs = self._loaded_cluster()
        before = hdfs.namenode.namespace_digest()
        hdfs.restart_cluster()
        hdfs.wait_until(lambda: not hdfs.namenode.safemode.active)
        assert hdfs.namenode.namespace_digest() == before

    def test_save_namespace_bounds_replay(self):
        hdfs = self._loaded_cluster()
        stats = hdfs.namenode.save_namespace()
        assert stats.image_inodes > 0 and stats.edits_truncated > 0
        hdfs.client().mkdirs("/after-checkpoint")
        hdfs.crash_namenode()
        hdfs.recover_namenode()
        recovery = hdfs.namenode.journal.last_recovery
        assert recovery.image_inodes == stats.image_inodes
        assert 0 < recovery.replayed_edits < hdfs.namenode.journal.edits_logged
        assert hdfs.namenode.exists("/after-checkpoint")

    def test_journal_off_cluster_cannot_recover(self):
        hdfs = self._loaded_cluster(journal=False)
        assert not hdfs.namenode.journal.enabled
        hdfs.crash_namenode()
        with pytest.raises(HdfsError):
            hdfs.namenode.recover()

    def test_config_validation(self):
        from repro.hdfs.config import HdfsConfig

        with pytest.raises(ConfigError):
            HdfsConfig(journal=False, journal_dir="/tmp/nn")
        with pytest.raises(ConfigError):
            HdfsConfig(checkpoint_edit_limit=-1)

    def test_journal_dir_storage_wired_through_config(self, tmp_path):
        hdfs = self._loaded_cluster(journal_dir=str(tmp_path / "name"))
        assert isinstance(hdfs.namenode.journal.storage, DirJournalStorage)
        before = hdfs.namenode.namespace_digest()
        hdfs.crash_namenode()
        hdfs.recover_namenode()
        assert hdfs.namenode.namespace_digest() == before
