"""Namespace (inode tree) semantics."""

import pytest

from repro.hdfs.block import Block
from repro.hdfs.namespace import Namespace, normalize
from repro.util.errors import (
    DirectoryNotEmpty,
    FileAlreadyExists,
    FileNotFoundInHdfs,
    IsADirectory,
    NotADirectory,
)


class TestPathNormalization:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("/", "/"),
            ("/a//b", "/a/b"),
            ("/a/./b", "/a/b"),
            ("/a/b/../c", "/a/c"),
            ("/a/b/", "/a/b"),
            ("//", "/"),  # normpath alone keeps two leading slashes
            ("//a//b", "/a/b"),
        ],
    )
    def test_normalize(self, raw, expected):
        assert normalize(raw) == expected

    def test_relative_rejected(self):
        with pytest.raises(FileNotFoundInHdfs):
            normalize("relative/path")


class TestDirectories:
    def test_mkdirs_creates_parents(self):
        ns = Namespace()
        ns.mkdirs("/a/b/c")
        assert ns.is_dir("/a")
        assert ns.is_dir("/a/b/c")

    def test_mkdirs_idempotent(self):
        ns = Namespace()
        ns.mkdirs("/a")
        assert ns.mkdirs("/a")

    def test_mkdirs_through_file_rejected(self):
        ns = Namespace()
        ns.create_file("/a/file", replication=1)
        with pytest.raises(NotADirectory):
            ns.mkdirs("/a/file/sub")

    def test_root_always_exists(self):
        ns = Namespace()
        assert ns.exists("/")
        assert ns.is_dir("/")


class TestFiles:
    def test_create_sets_under_construction(self):
        ns = Namespace()
        inode = ns.create_file("/data/f", replication=3)
        assert inode.under_construction
        assert inode.replication == 3
        assert inode.length == 0

    def test_create_existing_without_overwrite(self):
        ns = Namespace()
        ns.create_file("/f", replication=1)
        with pytest.raises(FileAlreadyExists):
            ns.create_file("/f", replication=1)

    def test_create_with_overwrite(self):
        ns = Namespace()
        ns.create_file("/f", replication=1)
        ns.create_file("/f", replication=2, overwrite=True)
        assert ns.get_file("/f").replication == 2

    def test_create_over_directory_rejected(self):
        ns = Namespace()
        ns.mkdirs("/d")
        with pytest.raises(IsADirectory):
            ns.create_file("/d", replication=1)

    def test_length_sums_blocks(self):
        ns = Namespace()
        inode = ns.create_file("/f", replication=1)
        inode.blocks.append(Block(1, 1, 100))
        inode.blocks.append(Block(2, 1, 50))
        assert inode.length == 150

    def test_get_file_on_directory_raises(self):
        ns = Namespace()
        ns.mkdirs("/d")
        with pytest.raises(IsADirectory):
            ns.get_file("/d")


class TestDelete:
    def test_delete_file_returns_blocks(self):
        ns = Namespace()
        inode = ns.create_file("/f", replication=1)
        inode.blocks.append(Block(9, 1, 10))
        freed = ns.delete("/f")
        assert [b.block_id for b in freed] == [9]
        assert not ns.exists("/f")

    def test_delete_nonempty_dir_requires_recursive(self):
        ns = Namespace()
        ns.create_file("/d/f", replication=1)
        with pytest.raises(DirectoryNotEmpty):
            ns.delete("/d")
        freed = ns.delete("/d", recursive=True)
        assert freed == []  # file had no blocks
        assert not ns.exists("/d")

    def test_recursive_delete_collects_all_blocks(self):
        ns = Namespace()
        f1 = ns.create_file("/d/a", replication=1)
        f2 = ns.create_file("/d/sub/b", replication=1)
        f1.blocks.append(Block(1, 1, 5))
        f2.blocks.append(Block(2, 1, 5))
        freed = {b.block_id for b in ns.delete("/d", recursive=True)}
        assert freed == {1, 2}

    def test_delete_missing_raises(self):
        ns = Namespace()
        with pytest.raises(FileNotFoundInHdfs):
            ns.delete("/nope")

    def test_delete_root_rejected(self):
        ns = Namespace()
        with pytest.raises(IsADirectory):
            ns.delete("/")


class TestRename:
    def test_simple_rename(self):
        ns = Namespace()
        ns.create_file("/a", replication=1)
        ns.rename("/a", "/b")
        assert ns.exists("/b") and not ns.exists("/a")

    def test_rename_into_directory(self):
        ns = Namespace()
        ns.create_file("/f", replication=1)
        ns.mkdirs("/d")
        ns.rename("/f", "/d")
        assert ns.exists("/d/f")

    def test_rename_onto_existing_file_rejected(self):
        ns = Namespace()
        ns.create_file("/a", replication=1)
        ns.create_file("/b", replication=1)
        with pytest.raises(FileAlreadyExists):
            ns.rename("/a", "/b")

    def test_rename_into_itself_rejected(self):
        ns = Namespace()
        ns.mkdirs("/d")
        with pytest.raises(NotADirectory):
            ns.rename("/d", "/d/sub")

    def test_rename_to_missing_parent_rejected(self):
        ns = Namespace()
        ns.create_file("/a", replication=1)
        with pytest.raises(FileNotFoundInHdfs):
            ns.rename("/a", "/missing/b")


class TestListingAndStats:
    def test_list_status_sorted(self):
        ns = Namespace()
        ns.create_file("/d/z", replication=1)
        ns.create_file("/d/a", replication=1)
        names = [s.path for s in ns.list_status("/d")]
        assert names == ["/d/a", "/d/z"]

    def test_list_status_of_file_returns_self(self):
        ns = Namespace()
        ns.create_file("/f", replication=1)
        statuses = ns.list_status("/f")
        assert len(statuses) == 1 and statuses[0].path == "/f"

    def test_walk_files(self):
        ns = Namespace()
        ns.create_file("/a/x", replication=1)
        ns.create_file("/a/b/y", replication=1)
        ns.mkdirs("/empty")
        paths = [p for p, _ in ns.walk_files("/")]
        assert paths == ["/a/b/y", "/a/x"]

    def test_du_and_count(self):
        ns = Namespace()
        f = ns.create_file("/d/f", replication=1)
        f.blocks.append(Block(1, 1, 100))
        ns.create_file("/d/sub/g", replication=1)
        assert ns.du("/d") == 100
        dirs, files, nbytes = ns.count("/d")
        assert (dirs, files, nbytes) == (2, 2, 100)

    def test_ls_line_format(self):
        ns = Namespace()
        f = ns.create_file("/f", replication=3)
        f.blocks.append(Block(1, 1, 42))
        line = ns.status("/f").ls_line()
        assert line.startswith("-rw-r--r--")
        assert "42" in line and "/f" in line
        ns.mkdirs("/d")
        assert ns.status("/d").ls_line().startswith("drw")
