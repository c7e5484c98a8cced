"""The node-recursive namespace walks against the path-recursive oracle.

``Namespace.walk_all`` / ``walk_files`` / ``count`` / ``du`` /
``list_status`` / ``status`` resolve their start path once and then
follow ``children``; ``tests/hdfs/namespace_oracle.py`` keeps the old
bodies, which re-resolved every inode from the root.  Random trees —
with names that sort differently as a component than inside a path
(``a`` < ``a.b`` < ``a0``, but ``/a.b`` < ``/a/x`` < ``/a0``), random
renames (file, directory, onto an existing directory) and deletes —
must give the same paths, the same inode objects, in the same order,
and the same exception types from a bad start path.  Below that: what a
rename reports and costs, and ``dfsadmin -metasave`` byte for byte.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hdfs.block import Block
from repro.hdfs.namespace import Namespace
from repro.util.errors import FileAlreadyExists, HdfsError
from tests.conftest import make_hdfs
from tests.hdfs import namespace_oracle as oracle

SETTINGS = settings(max_examples=200, deadline=None)

#: '-' < '.' < '/' < '0' in ASCII: the names that expose a walk sorting
#: by whole path instead of by component.
NAMES = ("a", "a.b", "a0", "a-", "b", "B", "é")

_names = st.sampled_from(NAMES)
_paths = st.lists(_names, min_size=1, max_size=5).map(lambda parts: "/" + "/".join(parts))
_pick = st.integers(min_value=0, max_value=10_000)  # index into what exists
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("mkdirs"), _paths),
        st.tuples(st.just("file"), _paths, st.lists(st.integers(0, 5000), max_size=3)),
        st.tuples(st.just("rename"), _pick, st.one_of(_paths, _pick, st.tuples(_pick, _names))),
        st.tuples(st.just("delete"), _pick),
    ),
    max_size=30,
)


def _existing(ns: Namespace) -> list[str]:
    return [path for path, _ in oracle.walk_all(ns, "/")]


def _choose(ns: Namespace, pick) -> str:
    """An op's path argument: literal, an existing path, or an existing
    path plus one new component."""
    if isinstance(pick, str):
        return pick
    existing = _existing(ns)
    if isinstance(pick, tuple):
        index, name = pick
        return existing[index % len(existing)].rstrip("/") + "/" + name
    return existing[pick % len(existing)]


def _build(ops) -> Namespace:
    ns = Namespace()
    next_block = iter(range(1, 10_000))
    for op in ops:
        try:
            if op[0] == "mkdirs":
                ns.mkdirs(op[1], mtime=1.5)
            elif op[0] == "file":
                inode = ns.create_file(op[1], replication=2, mtime=2.5)
                inode.blocks = [Block(next(next_block), 1, n) for n in op[2]]
            elif op[0] == "rename":
                src = _choose(ns, op[1])
                node = ns._resolve(src)
                landed = ns.rename(src, _choose(ns, op[2]))
                if landed is not None:
                    assert ns._resolve(landed) is node
                    assert not ns.exists(src)
            else:
                ns.delete(_choose(ns, op[1]), recursive=True)
        except HdfsError:
            pass  # refused ops are part of the history too
    return ns


def _outcome(call):
    """What a call did: its value, or the type of what it raised."""
    try:
        return ("ok", call())
    except HdfsError as exc:
        return ("raised", type(exc))


def _walked(pairs) -> list[tuple[str, int]]:
    return [(path, id(inode)) for path, inode in pairs]


def assert_walks_match_oracle(ns: Namespace, path: str) -> None:
    assert _outcome(lambda: _walked(ns.walk_all(path))) == _outcome(
        lambda: _walked(oracle.walk_all(ns, path))
    )
    assert _outcome(lambda: _walked(ns.walk_files(path))) == _outcome(
        lambda: _walked(oracle.walk_files(ns, path))
    )
    assert _outcome(lambda: ns.count(path)) == _outcome(lambda: oracle.count(ns, path))
    assert _outcome(lambda: ns.du(path)) == _outcome(
        lambda: sum(inode.length for _, inode in oracle.walk_files(ns, path))
    )
    assert _outcome(lambda: ns.list_status(path)) == _outcome(
        lambda: oracle.list_status(ns, path)
    )
    assert _outcome(lambda: ns.status(path)) == _outcome(lambda: oracle.status(ns, path))


class TestWalksMatchTheOracle:
    @SETTINGS
    @given(ops=_ops)
    def test_from_the_root_and_from_every_inode(self, ops):
        ns = _build(ops)
        for path in _existing(ns):
            assert_walks_match_oracle(ns, path)

    @SETTINGS
    @given(ops=_ops, start=_paths, tail=_names)
    def test_from_missing_and_through_a_file_start_paths(self, ops, start, tail):
        ns = _build(ops)
        assert_walks_match_oracle(ns, start)  # usually missing
        assert_walks_match_oracle(ns, start + "//" + tail + "/.")  # unnormalized
        for path, _ in oracle.walk_files(ns, "/"):
            assert_walks_match_oracle(ns, path + "/" + tail)  # through a file

    def test_relative_start_path_raises_the_same(self):
        assert_walks_match_oracle(Namespace(), "relative/path")

    def test_component_order_is_not_path_order(self):
        ns = Namespace()
        for path in ("/a/x", "/a.b/x", "/a0/x", "/a-/x"):
            ns.create_file(path, replication=1)
        walked = [path for path, _ in ns.walk_files("/")]
        assert walked == ["/a/x", "/a-/x", "/a.b/x", "/a0/x"]
        assert walked != sorted(walked)
        assert_walks_match_oracle(ns, "/")


class TestRenameReportsWhereTheInodeLanded:
    def test_plain_rename(self):
        ns = Namespace()
        ns.create_file("/a/f", replication=1)
        assert ns.rename("/a/f", "/a//g/") == "/a/g"

    def test_onto_an_existing_directory_moves_into_it(self):
        ns = Namespace()
        ns.create_file("/a/f", replication=1)
        ns.mkdirs("/b")
        assert ns.rename("/a", "/b") == "/b/a"
        assert ns.rename("/b/a/f", "/b") == "/b/f"

    def test_same_path_is_a_no_op(self):
        ns = Namespace()
        ns.create_file("/a/f", replication=1)
        assert ns.rename("/a/f", "/a/./f") is None
        assert ns.exists("/a/f")

    def test_admit_sees_the_final_path_and_can_refuse(self):
        ns = Namespace()
        ns.create_file("/a/f", replication=1)
        ns.mkdirs("/b")
        seen = []
        assert ns.rename("/a/f", "/b", admit=lambda *args: seen.append(args)) == "/b/f"
        assert seen == [("/a/f", "/b/f")]

        def refuse(src, landed):
            raise FileAlreadyExists("refused")

        before = ns.dump()
        with pytest.raises(FileAlreadyExists):
            ns.rename("/b/f", "/a", admit=refuse)
        assert ns.dump() == before


class _CountingDict(dict):
    """A ``children`` dict that counts every way of looking into it."""

    touched = 0


def _counting(name):
    plain = getattr(dict, name)

    def method(self, *args):
        _CountingDict.touched += 1
        return plain(self, *args)

    return method


for _name in (
    "__getitem__", "__setitem__", "__delitem__", "__contains__", "__iter__",
    "get", "pop", "items", "keys", "values",
):
    setattr(_CountingDict, _name, _counting(_name))


def _rename_touches(num_files: int) -> int:
    """Directory lookups one ``NameNode.rename`` makes in a namespace of
    ``num_files`` files spread over 20 directories."""
    cluster = make_hdfs()
    namenode = cluster.namenode
    for index in range(num_files):
        namenode.namespace.create_file(
            f"/data/d{index % 20:02d}/f{index:05d}", replication=1
        )
    for _, inode in list(namenode.namespace.walk_all("/")):
        if inode.is_dir:
            inode.children = _CountingDict(inode.children)
    _CountingDict.touched = 0
    namenode.rename("/data/d07/f00007", "/data/d07/renamed")
    touched = _CountingDict.touched
    assert namenode.namespace.exists("/data/d07/renamed")
    assert not namenode.namespace.exists("/data/d07/f00007")
    return touched


class TestRenameCostsItsDepthNotTheNamespace:
    def test_lookups_do_not_grow_with_the_namespace(self):
        small, large = _rename_touches(200), _rename_touches(2000)
        assert small == large
        # depth 3, a handful of resolves each: a constant, nowhere near
        # the 20 directories (let alone the 2 000 files).
        assert 0 < large <= 60

    def test_rename_walks_nothing(self, monkeypatch):
        cluster = make_hdfs()
        client = cluster.client()
        for index in range(30):
            client.put_bytes(f"/data/d{index % 3}/f{index}", b"x" * 10)

        def no_walk(self, path="/"):
            raise AssertionError(f"rename walked the namespace from {path}")

        monkeypatch.setattr(Namespace, "walk_all", no_walk)
        monkeypatch.setattr(Namespace, "walk_files", no_walk)
        client.rename("/data/d1/f1", "/data/d2/moved")
        client.rename("/data/d0", "/data/d2")
        monkeypatch.undo()
        assert client.read_bytes("/data/d2/moved").data == b"x" * 10
        assert client.exists("/data/d2/d0/f0")


#: ``dfsadmin -metasave`` for the scenario below, captured from the
#: commit that still stored ``BlockMeta.file_path`` and refreshed it by
#: walking the namespace after every rename.
METASAVE_GOLDEN = """\
Blocks in memory: 8 (~1200 bytes of NameNode heap)
Journal: 25 edits logged (25 since last checkpoint), 0 checkpoints, 1 recoveries, storage=MemoryJournalStorage
blk_1001 len=1024 repl=2/2 file=/data/a.renamed on=[node0,node1]
blk_1002 len=1024 repl=2/2 file=/data/a.renamed on=[node2,node3]
blk_1003 len=452 repl=2/2 file=/data/a.renamed on=[node1,node2]
blk_1005 len=1024 repl=2/2 file=/archive/logs/y2014/jan on=[node0,node2]
blk_1006 len=1024 repl=2/2 file=/archive/logs/y2014/feb on=[node2,node3]
blk_1007 len=476 repl=2/2 file=/archive/logs/y2014/feb on=[node1,node2]
blk_1008 len=1024 repl=2/2 file=/archive/logs/y2014/b.txt on=[node0,node1]
blk_1009 len=76 repl=2/2 file=/archive/logs/y2014/b.txt on=[node1,node2]"""


def test_metasave_is_byte_identical_with_paths_derived_at_report_time():
    cluster = make_hdfs(num_datanodes=4, block_size=1024, replication=2, seed=7)
    client = cluster.client()
    client.put_bytes("/data/a.txt", b"a" * 2500)
    client.put_bytes("/data/b.txt", b"b" * 100)
    client.put_bytes("/logs/2014/jan", b"j" * 1024)
    client.put_bytes("/logs/2014/feb", b"f" * 1500)
    client.mkdirs("/archive")
    client.rename("/data/a.txt", "/data/a.renamed")  # a file
    client.rename("/logs/2014", "/logs/y2014")  # a directory
    client.rename("/logs", "/archive")  # into an existing directory
    client.put_bytes("/data/b.txt", b"B" * 1100, overwrite=True)  # overwrite
    cluster.crash_namenode()
    cluster.recover_namenode()
    client.rename("/data/b.txt", "/archive/logs/y2014/b.txt")  # after recovery
    assert cluster.dfsadmin().metasave() == METASAVE_GOLDEN
