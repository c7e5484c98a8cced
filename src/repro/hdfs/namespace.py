"""The HDFS namespace: an in-memory inode tree of directories and files.

This is the "HDFS Abstractions: Directories/Files" layer of the paper's
Figure 2 — the part of HDFS that looks like a file system, kept entirely
in NameNode memory and mapped onto blocks below it.
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.hdfs.block import Block
from repro.util.errors import (
    DirectoryNotEmpty,
    FileAlreadyExists,
    FileNotFoundInHdfs,
    IsADirectory,
    NotADirectory,
)


def normalize(path: str) -> str:
    """Normalize an absolute HDFS path (``"/a//b/./c" -> "/a/b/c"``)."""
    if not path.startswith("/"):
        raise FileNotFoundInHdfs(f"HDFS paths must be absolute: {path!r}")
    norm = posixpath.normpath(path)
    return "/" if norm in ("", "/", ".") else norm


def split_path(path: str) -> tuple[str, str]:
    """Return ``(parent, basename)`` of a normalized path."""
    norm = normalize(path)
    if norm == "/":
        raise FileNotFoundInHdfs("the root directory has no parent")
    parent, base = posixpath.split(norm)
    return parent, base


def move_quotas(quotas: dict[str, tuple], src: str, dst: str | None) -> None:
    """Quotas follow their directory: re-key every quota at or under the
    normalized ``src`` to the same place under ``dst`` (``None``: deleted,
    drop them).  Shared by the live NameNode and the journal replay."""
    for root in [r for r in quotas if r == src or r.startswith(src + "/")]:
        value = quotas.pop(root)
        if dst is not None:
            quotas[dst + root[len(src):]] = value


@dataclass
class INodeFile:
    """A file: an ordered list of blocks plus attributes."""

    name: str
    replication: int
    blocks: list[Block] = field(default_factory=list)
    mtime: float = 0.0
    under_construction: bool = False

    @property
    def length(self) -> int:
        return sum(b.length for b in self.blocks)

    @property
    def is_dir(self) -> bool:
        return False


@dataclass
class INodeDirectory:
    """A directory: named children."""

    name: str
    children: dict[str, "INodeFile | INodeDirectory"] = field(default_factory=dict)
    mtime: float = 0.0

    @property
    def is_dir(self) -> bool:
        return True


INode = INodeFile | INodeDirectory


@dataclass(frozen=True)
class FileStatus:
    """What ``hadoop fs -ls`` shows for one entry."""

    path: str
    is_dir: bool
    length: int
    replication: int
    block_count: int
    mtime: float

    def ls_line(self) -> str:
        kind = "d" if self.is_dir else "-"
        rep = "-" if self.is_dir else str(self.replication)
        return f"{kind}rw-r--r--  {rep:>3}  {self.length:>12}  {self.path}"


class Namespace:
    """The inode tree with POSIX-ish operations.

    >>> ns = Namespace()
    >>> ns.mkdirs("/user/alice")
    True
    >>> ns.exists("/user/alice")
    True
    """

    def __init__(self) -> None:
        self.root = INodeDirectory(name="")

    # -- resolution ----------------------------------------------------
    def _resolve(self, path: str) -> INode:
        norm = normalize(path)
        node: INode = self.root
        if norm == "/":
            return node
        for part in norm.strip("/").split("/"):
            if not isinstance(node, INodeDirectory):
                raise NotADirectory(f"{part!r} reached through a file in {path!r}")
            try:
                node = node.children[part]
            except KeyError:
                raise FileNotFoundInHdfs(path) from None
        return node

    def exists(self, path: str) -> bool:
        try:
            self._resolve(path)
            return True
        except (FileNotFoundInHdfs, NotADirectory):
            return False

    def is_dir(self, path: str) -> bool:
        return self.exists(path) and self._resolve(path).is_dir

    def get_file(self, path: str) -> INodeFile:
        node = self._resolve(path)
        if node.is_dir:
            raise IsADirectory(path)
        return node  # type: ignore[return-value]

    def get_dir(self, path: str) -> INodeDirectory:
        node = self._resolve(path)
        if not node.is_dir:
            raise NotADirectory(path)
        return node  # type: ignore[return-value]

    # -- mutation ------------------------------------------------------
    def mkdirs(self, path: str, mtime: float = 0.0) -> bool:
        """Create a directory and any missing parents (``mkdir -p``)."""
        norm = normalize(path)
        node: INodeDirectory = self.root
        if norm == "/":
            return True
        for part in norm.strip("/").split("/"):
            child = node.children.get(part)
            if child is None:
                child = INodeDirectory(name=part, mtime=mtime)
                node.children[part] = child
            elif not child.is_dir:
                raise NotADirectory(f"{path!r}: {part!r} is a file")
            node = child  # type: ignore[assignment]
        return True

    def create_file(
        self, path: str, replication: int, mtime: float = 0.0, overwrite: bool = False
    ) -> INodeFile:
        parent_path, base = split_path(path)
        self.mkdirs(parent_path, mtime=mtime)
        parent = self.get_dir(parent_path)
        existing = parent.children.get(base)
        if existing is not None:
            if existing.is_dir:
                raise IsADirectory(path)
            if not overwrite:
                raise FileAlreadyExists(path)
        inode = INodeFile(
            name=base, replication=replication, mtime=mtime, under_construction=True
        )
        parent.children[base] = inode
        return inode

    def delete(self, path: str, recursive: bool = False) -> list[Block]:
        """Remove a path; returns the blocks freed for invalidation."""
        norm = normalize(path)
        if norm == "/":
            raise IsADirectory("cannot delete the root directory")
        parent_path, base = split_path(norm)
        parent = self.get_dir(parent_path)
        if base not in parent.children:
            raise FileNotFoundInHdfs(path)
        node = parent.children[base]
        if node.is_dir and node.children and not recursive:  # type: ignore[union-attr]
            raise DirectoryNotEmpty(path)
        freed: list[Block] = list(self._collect_blocks(node))
        del parent.children[base]
        return freed

    def rename(
        self, src: str, dst: str, admit: Callable[[str, str], None] | None = None
    ) -> str | None:
        """Move ``src`` to ``dst``; returns the path the inode landed at
        (``None`` for the ``src == dst`` no-op).  ``admit(src, landed)``
        runs after every namespace check and before anything moves; if
        it raises, nothing has changed (the NameNode's quota check)."""
        src_norm, dst_norm = normalize(src), normalize(dst)
        if dst_norm == src_norm:
            return None
        if dst_norm.startswith(src_norm + "/"):
            raise NotADirectory(f"cannot move {src!r} into itself")
        node = self._resolve(src_norm)
        # Moving onto an existing directory moves *into* it (fs -mv semantics).
        if self.is_dir(dst_norm):
            dst_norm = posixpath.join(dst_norm, node.name)
        if self.exists(dst_norm):
            raise FileAlreadyExists(dst)
        src_parent, src_base = split_path(src_norm)
        dst_parent, dst_base = split_path(dst_norm)
        if not self.is_dir(dst_parent):
            raise FileNotFoundInHdfs(f"rename target parent missing: {dst_parent}")
        if admit is not None:
            admit(src_norm, dst_norm)
        del self.get_dir(src_parent).children[src_base]
        node.name = dst_base
        self.get_dir(dst_parent).children[dst_base] = node
        return dst_norm

    # -- listing / traversal -------------------------------------------
    def _collect_blocks(self, node: INode) -> Iterator[Block]:
        if node.is_dir:
            for child in node.children.values():  # type: ignore[union-attr]
                yield from self._collect_blocks(child)
        else:
            yield from node.blocks  # type: ignore[union-attr]

    @staticmethod
    def _status_of(path: str, node: INode) -> FileStatus:
        if node.is_dir:
            return FileStatus(path, True, 0, 0, 0, node.mtime)
        return FileStatus(
            path, False, node.length, node.replication, len(node.blocks), node.mtime
        )

    def status(self, path: str) -> FileStatus:
        return self._status_of(normalize(path), self._resolve(path))

    def list_status(self, path: str) -> list[FileStatus]:
        """Children of a directory (or the file itself), sorted by name."""
        node = self._resolve(path)
        norm = normalize(path)
        if not node.is_dir:
            return [self._status_of(norm, node)]
        prefix = norm.rstrip("/") + "/"
        return [
            self._status_of(prefix + name, child)
            for name, child in sorted(node.children.items())
        ]

    def walk_all(self, path: str = "/") -> Iterator[tuple[str, INode]]:
        """Preorder walk of *every* inode under ``path`` — directories
        included, children sorted by name.  Parents always precede their
        children, which is what makes this the fsimage serialization
        order (the decoder can rebuild the tree in one forward pass).

        The start path is resolved once; below it the walk follows
        ``children``, so it costs O(inodes under ``path``) at any depth.
        """
        stack = [(normalize(path), self._resolve(path))]
        while stack:
            walked, node = stack.pop()
            yield walked, node
            if node.is_dir:
                prefix = walked.rstrip("/") + "/"
                stack.extend(
                    (prefix + name, child)
                    for name, child in sorted(node.children.items(), reverse=True)
                )

    def dump(self) -> tuple:
        """A canonical, hashable snapshot of the whole tree.

        Used by the journal identity properties: two namespaces are
        equal iff their dumps are equal (paths, mtimes, replication,
        construction state, and exact block lists).
        """
        out = []
        for walked_path, inode in self.walk_all("/"):
            if inode.is_dir:
                out.append((walked_path, "dir", inode.mtime))
            else:
                out.append(
                    (
                        walked_path,
                        "file",
                        inode.replication,  # type: ignore[union-attr]
                        inode.mtime,
                        inode.under_construction,  # type: ignore[union-attr]
                        tuple(
                            (b.block_id, b.generation, b.length)
                            for b in inode.blocks  # type: ignore[union-attr]
                        ),
                    )
                )
        return tuple(out)

    def walk_files(self, path: str = "/") -> Iterator[tuple[str, INodeFile]]:
        """Yield ``(path, inode)`` for every file under ``path``."""
        return (pair for pair in self.walk_all(path) if not pair[1].is_dir)  # type: ignore[misc]

    def du(self, path: str) -> int:
        """Total bytes (pre-replication) under a path."""
        return sum(inode.length for _, inode in self.walk_files(path))

    def count(self, path: str) -> tuple[int, int, int]:
        """``(dirs, files, bytes)`` under a path — ``hadoop fs -count``."""
        inodes = [inode for _, inode in self.walk_all(path)]
        files = [inode for inode in inodes if not inode.is_dir]
        return len(inodes) - len(files), len(files), sum(f.length for f in files)
