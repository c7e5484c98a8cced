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

from repro.hdfs import namenode as namenode_module
from repro.hdfs import namespace as namespace_module
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
#: Where an op's path comes from: a literal, an existing path, or an
#: existing path plus one new component (so: onto files, into
#: directories, into itself, missing parents, through a file).
_where = st.one_of(_paths, _pick, st.tuples(_pick, _names))
#: How it is spelled: 0 as is, else one unnormalised variant.
_spelling = st.integers(min_value=0, max_value=4)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("mkdirs"), _where, _spelling),
        st.tuples(
            st.just("file"), _where, _spelling, st.booleans(),
            st.lists(st.integers(0, 5000), max_size=3),
        ),
        st.tuples(st.just("rename"), _where, _spelling, _where, _spelling),
        st.tuples(st.just("delete"), _where, _spelling, st.booleans()),
    ),
    max_size=30,
)


def _existing(ns: Namespace) -> list[str]:
    return [path for path, _ in oracle.walk_all(ns, "/")]


def _choose(ns: Namespace, pick, spelling: int) -> str:
    """An op's path argument: literal, an existing path, or an existing
    path plus one new component — in one of five spellings."""
    if isinstance(pick, str):
        path = pick
    else:
        existing = _existing(ns)
        if isinstance(pick, tuple):
            index, name = pick
            path = existing[index % len(existing)].rstrip("/") + "/" + name
        else:
            path = existing[pick % len(existing)]
    return (
        path,
        path.replace("/", "//"),
        path + "/",
        path.replace("/", "/./", 1),
        "/a/.." + path,
    )[spelling]


def _outcome(call):
    """What a call did: its value, or the type of what it raised."""
    try:
        return ("ok", call())
    except HdfsError as exc:
        return ("raised", type(exc))


def _file_fields(outcome):
    kind, inode = outcome
    if kind == "raised":
        return outcome
    return kind, (inode.name, inode.replication, inode.mtime, inode.under_construction)


def _build(ops) -> Namespace:
    """Apply ``ops`` to a namespace and, step for step, to a twin tree
    driven by the parent's bodies (``namespace_oracle``): same value or
    same exception type, same ``admit`` calls, same ``dump()``."""
    ns, twin = Namespace(), Namespace()
    next_block = iter(range(1, 10_000))
    for op in ops:
        path = _choose(twin, op[1], op[2])
        if op[0] == "mkdirs":
            got = _outcome(lambda: ns.mkdirs(path, mtime=1.5))
            want = _outcome(lambda: oracle.mkdirs(twin, path, mtime=1.5))
        elif op[0] == "file":
            made = _outcome(lambda: ns.create_file(path, 2, mtime=2.5, overwrite=op[3]))
            wanted = _outcome(
                lambda: oracle.create_file(twin, path, 2, mtime=2.5, overwrite=op[3])
            )
            got, want = _file_fields(made), _file_fields(wanted)
            if made[0] == wanted[0] == "ok":
                blocks = [Block(next(next_block), 1, n) for n in op[4]]
                made[1].blocks, wanted[1].blocks = blocks, list(blocks)
        elif op[0] == "rename":
            dst = _choose(twin, op[3], op[4])
            moved = _outcome(lambda: oracle.resolve(ns, path))
            seen, expected = [], []
            got = _outcome(lambda: ns.rename(path, dst, admit=lambda *a: seen.append(a)))
            want = _outcome(
                lambda: oracle.rename(twin, path, dst, admit=lambda *a: expected.append(a))
            )
            assert seen == expected
            if got[0] == "ok" and got[1] is not None:
                assert oracle.resolve(ns, got[1]) is moved[1]
                assert not ns.exists(path)
        else:
            got = _outcome(lambda: ns.delete(path, recursive=op[3]))
            want = _outcome(lambda: oracle.delete(twin, path, recursive=op[3]))
        assert got == want, (op, path)
        assert ns.dump() == twin.dump(), (op, path)
    return ns


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


class _RootDict(_CountingDict):
    """The root's ``children``: a walk from ``/`` to anything below it
    looks in here exactly once, so touches here count walks."""

    walks = 0


def _counting(name):
    plain = getattr(dict, name)

    def method(self, *args):
        _CountingDict.touched += 1
        if isinstance(self, _RootDict):
            _RootDict.walks += 1
        return plain(self, *args)

    return method


for _name in (
    "__getitem__", "__setitem__", "__delitem__", "__contains__", "__iter__",
    "get", "pop", "items", "keys", "values",
):
    setattr(_CountingDict, _name, _counting(_name))


def _rpc_costs(monkeypatch, num_files: int) -> dict[str, tuple[int, int, int]]:
    """``{rpc: (walks from the root, normalize calls, directory
    lookups)}`` for one call of each NameNode RPC at depth 3, in a
    namespace of ``num_files`` files spread over 20 directories."""
    cluster = make_hdfs()
    namenode = cluster.namenode
    for index in range(num_files):
        namenode.namespace.create_file(
            f"/data/d{index % 20:02d}/f{index:05d}", replication=1
        )
    for _, inode in list(namenode.namespace.walk_all("/")):
        if inode.is_dir:
            kind = _RootDict if inode is namenode.namespace.root else _CountingDict
            inode.children = kind(inode.children)
    normalized = []

    def counting_normalize(path, plain=namespace_module.normalize):
        normalized.append(path)
        return plain(path)

    monkeypatch.setattr(namespace_module, "normalize", counting_normalize)
    monkeypatch.setattr(namenode_module, "normalize", counting_normalize)
    costs = {}

    def measure(rpc, call):
        _CountingDict.touched = _RootDict.walks = 0
        del normalized[:]
        result = call()
        costs[rpc] = (_RootDict.walks, len(normalized), _CountingDict.touched)
        return result

    measure("rename", lambda: namenode.rename("/data/d07/f00007", "/data/d07/renamed"))
    measure("create", lambda: namenode.create_file("/data/d07/fresh"))
    block, _targets = measure(
        "add_block", lambda: namenode.add_block("/data/d07/fresh", 10)
    )
    measure("abandon_block", lambda: namenode.abandon_block("/data/d07/fresh", block))
    measure("complete_file", lambda: namenode.complete_file("/data/d07/fresh"))
    measure("overwrite", lambda: namenode.create_file("/data/d07/fresh", overwrite=True))
    measure("set_replication", lambda: namenode.set_replication("/data/d07/f00027", 2))
    measure("status", lambda: namenode.status("/data/d07/f00027"))
    measure("get_block_locations", lambda: namenode.get_block_locations("/data/d07/f00027"))
    measure("mkdirs", lambda: namenode.mkdirs("/data/d07/sub"))
    measure("delete", lambda: namenode.delete("/data/d07/f00027"))
    monkeypatch.undo()
    assert namenode.namespace.exists("/data/d07/renamed")
    assert not namenode.namespace.exists("/data/d07/f00007")
    assert not namenode.namespace.exists("/data/d07/f00027")
    return costs


class TestRenameCostsItsDepthNotTheNamespace:
    def test_lookups_do_not_grow_with_the_namespace(self, monkeypatch):
        small, large = _rpc_costs(monkeypatch, 200), _rpc_costs(monkeypatch, 2000)
        assert small == large
        # One walk per path argument at depth 3 plus the unlink and the
        # link: a constant, nowhere near the 20 directories (let alone
        # the 2 000 files).  (The parent made 7-8 walks, ~25 lookups.)
        assert 0 < large["rename"][2] <= 8

    def test_one_walk_per_path_argument_per_rpc(self, monkeypatch):
        """(walks, normalizes) per RPC.  The parent: rename 7-8 walks
        and 16-17 normalizes, a fresh create 3 and 6, an overwriting
        create 6 and 14, add_block 1 and 3, delete 1 and 5."""
        costs = {rpc: cost[:2] for rpc, cost in _rpc_costs(monkeypatch, 200).items()}
        walks, normalizes = costs.pop("rename")
        assert walks <= 3 and normalizes <= 2 * 2  # two path arguments
        walks, normalizes = costs.pop("overwrite")  # the delete + the create
        assert walks <= 2 and normalizes <= 2 * 2
        assert len(costs) == 9
        for rpc, (walks, normalizes) in costs.items():
            assert walks == 1 and normalizes <= 2, (rpc, walks, normalizes)

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
