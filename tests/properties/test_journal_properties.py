"""Property tests on the NameNode journal (edit log + fsimage).

Three durability claims, each load-bearing for the crash drills:

1. the edit codec round-trips every record type exactly;
2. truncating an edit log at *any* byte offset recovers precisely the
   records whose frames survived intact — no exception, no partial
   record, no lost valid prefix;
3. a NameNode recovered after a crash holds a namespace bit-identical
   to the live one, across seeds and op mixes — and journaling itself
   never perturbs a fault-free cluster (journal on ≡ off).  Both hold
   with directory quotas in play while their directories are renamed
   and deleted (``quotas`` is part of the digest).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hdfs.fsck import fsck
from repro.hdfs.journal import (
    EDIT_SPECS,
    edits_header,
    encode_edit,
    decode_edit,
    frame_record,
    scan_edits,
)
from repro.util.errors import QuotaExceededError
from repro.util.rng import RngStream
from tests.conftest import make_hdfs

FAST_SETTINGS = settings(max_examples=100, deadline=None)

_FIELD_STRATEGIES = {
    "str": st.text(max_size=12),
    "u32": st.integers(min_value=0, max_value=2**32 - 1),
    "u64": st.integers(min_value=0, max_value=2**64 - 1),
    "i64": st.integers(min_value=-(2**63), max_value=2**63 - 1),
    "f64": st.floats(allow_nan=False),
    "bool": st.booleans(),
    "opt_i64": st.none()
    | st.integers(min_value=-(2**63), max_value=2**63 - 1),
}


def _record_strategy():
    def per_op(op):
        return st.tuples(
            *(_FIELD_STRATEGIES[kind] for kind in EDIT_SPECS[op])
        ).map(lambda values: (op, values))

    return st.one_of([per_op(op) for op in sorted(EDIT_SPECS)])


class TestEditCodecRoundTrip:
    @FAST_SETTINGS
    @given(record=_record_strategy())
    def test_round_trip(self, record):
        op, values = record
        assert decode_edit(encode_edit(op, values)) == (op, values)


class TestTornTailTolerance:
    @FAST_SETTINGS
    @given(
        records=st.lists(_record_strategy(), max_size=6),
        data=st.data(),
    )
    def test_truncation_at_any_offset_keeps_exactly_the_valid_prefix(
        self, records, data
    ):
        blob = bytearray(edits_header())
        frame_ends = []
        for op, values in records:
            blob += frame_record(encode_edit(op, values))
            frame_ends.append(len(blob))
        cut = data.draw(
            st.integers(min_value=0, max_value=len(blob)), label="cut"
        )
        scan = scan_edits(bytes(blob[:cut]))
        expected = sum(1 for end in frame_ends if end <= cut)
        assert len(scan.records) == expected
        assert list(scan.records) == records[:expected]
        assert scan.valid_bytes + scan.torn_bytes == cut


def _mutate_namespace(hdfs, seed):
    """A seed-determined mix of every journaled mutation kind."""
    rng = RngStream(seed=seed).child("journal-ops")
    client = hdfs.client()
    nn = hdfs.namenode
    for i in range(4):
        client.mkdirs(f"/d{i}")
    for i in range(3):
        size = 200 + rng.child("size", i).integers(0, 3000)
        client.put_text(f"/d{i}/f{i}.txt", "x" * size)
    client.mkdirs("/renamed")
    client.rename("/d0/f0.txt", "/renamed/f0.txt")
    client.delete("/d1/f1.txt")
    nn.set_replication("/d2/f2.txt", 1 + rng.child("repl").integers(0, 1))
    nn.set_quota("/d3", namespace_quota=50, space_quota=None)
    nn.start_decommission("node2")
    if rng.child("stop-decomm").bernoulli(0.5):
        nn.stop_decommission("node2")


@pytest.mark.parametrize("seed", [0, 7, 2013])
def test_recovered_namespace_is_bit_identical_to_live(seed):
    hdfs = make_hdfs(num_datanodes=3, seed=seed)
    _mutate_namespace(hdfs, seed)
    hdfs.sim.run_for(600.0)  # let the replication sweep settle first
    live_digest = hdfs.namenode.namespace_digest()
    live_fsck = fsck(hdfs.namenode).render()
    hdfs.crash_namenode()
    hdfs.recover_namenode()
    assert hdfs.namenode.namespace_digest() == live_digest
    hdfs.sim.run_for(600.0)  # block reports + sweep reconverge
    assert fsck(hdfs.namenode).render() == live_fsck


@pytest.mark.parametrize("seed", [1, 11])
def test_journal_on_and_off_are_bit_identical_fault_free(seed):
    digests = {}
    renders = {}
    clocks = {}
    for journal in (True, False):
        hdfs = make_hdfs(num_datanodes=3, seed=seed, journal=journal)
        _mutate_namespace(hdfs, seed)
        hdfs.sim.run_for(60.0)
        digests[journal] = hdfs.namenode.namespace_digest()
        renders[journal] = fsck(hdfs.namenode).render()
        clocks[journal] = (hdfs.sim.now, hdfs.sim.events_processed)
    assert digests[True] == digests[False]
    assert renders[True] == renders[False]
    assert clocks[True] == clocks[False]


@pytest.mark.parametrize("seed", [3, 17])
def test_torn_tail_loses_at_most_the_torn_record(seed):
    hdfs = make_hdfs(num_datanodes=3, seed=seed)
    _mutate_namespace(hdfs, seed)
    journal = hdfs.namenode.journal
    edits_before = journal.edits_logged
    assert journal.tear_tail() > 0
    hdfs.crash_namenode()
    hdfs.recover_namenode()
    recovery = journal.last_recovery
    assert recovery.torn_bytes > 0
    # Exactly one record was torn; everything before it replayed.
    assert recovery.replayed_edits == edits_before - 1


def _move_quota_directories(hdfs, seed):
    """Quotas in play while their directories are renamed and deleted:
    the replay has to re-key and drop them exactly as the live NameNode
    did, and has to refuse nothing the live one accepted."""
    rng = RngStream(seed=seed).child("quota-ops")
    client = hdfs.client()
    nn = hdfs.namenode
    for name in ("/proj/sub", "/scratch/tmp", "/inbox", "/staging"):
        client.mkdirs(name)
    nn.set_quota("/proj", namespace_quota=6 + rng.child("ns").integers(0, 3))
    nn.set_quota("/proj/sub", space_quota=1 << 20)
    nn.set_quota("/scratch/tmp", namespace_quota=3)
    nn.set_quota("/inbox", namespace_quota=1)
    client.put_text("/proj/sub/a.txt", "a" * (100 + rng.child("size").integers(0, 2000)))
    client.put_text("/staging/one.txt", "1")
    client.put_text("/staging/two.txt", "2")
    client.rename("/proj", "/archive")  # a quota root and one below it
    client.rename("/archive/sub", "/staging")  # onto a directory: into it
    client.delete("/scratch", recursive=True)  # takes /scratch/tmp's quota
    client.rename("/staging/one.txt", "/inbox")  # fills /inbox
    with pytest.raises(QuotaExceededError):
        client.rename("/staging/two.txt", "/inbox")  # refused, not journaled
    client.rename("/inbox", "/inbox/.")  # a no-op, not journaled either
    client.mkdirs("/proj/again")  # the old names are free again
    client.put_text("/scratch/tmp/x/y/z/w.txt", "w")  # deeper than the old quota
    assert set(nn.quotas) == {"/archive", "/staging/sub", "/inbox"}


@pytest.mark.parametrize("seed", [0, 7, 2013])
def test_quota_directory_renames_and_deletes_replay_bit_identically(seed):
    hdfs = make_hdfs(num_datanodes=3, seed=seed)
    _move_quota_directories(hdfs, seed)
    hdfs.sim.run_for(600.0)
    live_digest = hdfs.namenode.namespace_digest()
    live_quotas = dict(hdfs.namenode.quotas)
    hdfs.crash_namenode()
    hdfs.recover_namenode()
    assert hdfs.namenode.quotas == live_quotas
    assert hdfs.namenode.namespace_digest() == live_digest
    # Same again with the renames behind an fsimage instead of in edits.
    hdfs.dfsadmin().save_namespace()
    hdfs.client().rename("/archive", "/archive2")
    live_digest = hdfs.namenode.namespace_digest()
    hdfs.crash_namenode()
    hdfs.recover_namenode()
    assert hdfs.namenode.namespace_digest() == live_digest
    assert "/archive2" in hdfs.namenode.quotas


@pytest.mark.parametrize("seed", [1, 11])
def test_journal_on_and_off_are_bit_identical_with_quotas_in_play(seed):
    outcomes = {}
    for journal in (True, False):
        hdfs = make_hdfs(num_datanodes=3, seed=seed, journal=journal)
        _move_quota_directories(hdfs, seed)
        hdfs.sim.run_for(60.0)
        outcomes[journal] = (
            hdfs.namenode.namespace_digest(),
            fsck(hdfs.namenode).render(),
            hdfs.sim.now,
            hdfs.sim.events_processed,
        )
    assert outcomes[True] == outcomes[False]
