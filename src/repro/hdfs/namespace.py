"""The HDFS namespace: an in-memory inode tree of directories and files.

This is the "HDFS Abstractions: Directories/Files" layer of the paper's
Figure 2 — the part of HDFS that looks like a file system, kept entirely
in NameNode memory and mapped onto blocks below it.  Every lookup and
every mutator makes one walk down the tree per path argument
(:meth:`Namespace._descend`); paths may arrive unnormalised.
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
    # normpath keeps exactly two leading slashes (POSIX lets them mean
    # something); HDFS has one root.
    norm = posixpath.normpath(path).lstrip("/")
    return "/" + norm


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
    def _descend(
        self, norm: str
    ) -> tuple[INodeDirectory, list[str], INode | None]:
        """The one walk down ``children``: follow a normalized path from
        the root as far as the tree goes.  Returns the deepest directory
        reached, the components still below it, and the inode at
        ``norm`` (``None`` if nothing is there) — so ``(parent, [base],
        inode)`` whenever the parent exists, ``(root, [], root)`` for
        the root.  A file on the way raises :class:`NotADirectory`."""
        node = self.root
        if norm == "/":
            return node, [], node
        parts = norm[1:].split("/")
        for depth, part in enumerate(parts[:-1]):
            child = node.children.get(part)
            if child is None:
                return node, parts[depth:], None
            if not child.is_dir:
                raise NotADirectory(f"{part!r} reached through a file in {norm!r}")
            node = child  # type: ignore[assignment]
        return node, parts[-1:], node.children.get(parts[-1])

    def _inode(self, path: str) -> tuple[str, INode]:
        """``(normalized path, inode)`` of a path that must exist."""
        norm = normalize(path)
        node = self._descend(norm)[2]
        if node is None:
            raise FileNotFoundInHdfs(path)
        return norm, node

    def _find(self, path: str) -> INode | None:
        try:
            return self._descend(normalize(path))[2]
        except (FileNotFoundInHdfs, NotADirectory):
            return None

    def exists(self, path: str) -> bool:
        return self._find(path) is not None

    def is_dir(self, path: str) -> bool:
        node = self._find(path)
        return node is not None and node.is_dir

    def get_file(self, path: str) -> INodeFile:
        node = self._inode(path)[1]
        if node.is_dir:
            raise IsADirectory(path)
        return node  # type: ignore[return-value]

    def get_dir(self, path: str) -> INodeDirectory:
        node = self._inode(path)[1]
        if not node.is_dir:
            raise NotADirectory(path)
        return node  # type: ignore[return-value]

    # -- mutation ------------------------------------------------------
    # ``admit`` hooks run after every namespace check and before anything
    # changes; if one raises, nothing has (the NameNode's quota checks).
    @staticmethod
    def _make_dirs(
        node: INodeDirectory, names: list[str], mtime: float
    ) -> INodeDirectory:
        for name in names:
            child = INodeDirectory(name=name, mtime=mtime)
            node.children[name] = child
            node = child
        return node

    def mkdirs(
        self,
        path: str,
        mtime: float = 0.0,
        admit: Callable[[str, None], None] | None = None,
    ) -> bool:
        """Create a directory and any missing parents (``mkdir -p``).
        ``admit(path, None)`` runs only if something will be created."""
        norm = normalize(path)
        node, rest, existing = self._descend(norm)
        if existing is None:
            if admit is not None:
                admit(norm, None)
            self._make_dirs(node, rest, mtime)
        elif not existing.is_dir:
            raise NotADirectory(f"{path!r} is a file")
        return True

    def create_file(
        self,
        path: str,
        replication: int,
        mtime: float = 0.0,
        overwrite: bool = False,
        admit: Callable[[str, INodeFile | None], None] | None = None,
    ) -> INodeFile:
        """Create an empty under-construction file (and missing parents).
        ``admit(path, existing)`` sees the file about to be replaced, or
        ``None`` for a new path; it may delete ``existing`` itself."""
        norm = normalize(path)
        node, rest, existing = self._descend(norm)
        if not rest:
            raise FileNotFoundInHdfs("the root directory has no parent")
        if existing is not None:
            if existing.is_dir:
                raise IsADirectory(path)
            if not overwrite:
                raise FileAlreadyExists(path)
        if admit is not None:
            admit(norm, existing)  # type: ignore[arg-type]
        base = rest[-1]
        inode = INodeFile(
            name=base, replication=replication, mtime=mtime, under_construction=True
        )
        self._make_dirs(node, rest[:-1], mtime).children[base] = inode
        return inode

    def delete(self, path: str, recursive: bool = False) -> list[Block]:
        """Remove a path; returns the blocks freed for invalidation."""
        parent, rest, node = self._descend(normalize(path))
        if not rest:
            raise IsADirectory("cannot delete the root directory")
        if node is None:
            raise FileNotFoundInHdfs(path)
        if node.is_dir and node.children and not recursive:  # type: ignore[union-attr]
            raise DirectoryNotEmpty(path)
        freed: list[Block] = list(self._collect_blocks(node))
        del parent.children[rest[0]]
        return freed

    def rename(
        self, src: str, dst: str, admit: Callable[[str, str], None] | None = None
    ) -> str | None:
        """Move ``src`` to ``dst``; returns the path the inode landed at
        (``None`` for the ``src == dst`` no-op), which is what
        ``admit(src, landed)`` is shown."""
        src_norm, dst_norm = normalize(src), normalize(dst)
        if dst_norm == src_norm:
            return None
        if dst_norm.startswith(src_norm + "/"):
            raise NotADirectory(f"cannot move {src!r} into itself")
        src_parent, src_rest, node = self._descend(src_norm)
        if node is None:
            raise FileNotFoundInHdfs(src)
        try:
            dst_parent, dst_rest, target = self._descend(dst_norm)
        except NotADirectory:
            raise FileNotFoundInHdfs(f"rename target parent missing: {dst!r}") from None
        # Moving onto an existing directory moves *into* it (fs -mv semantics).
        if target is not None and target.is_dir and node is not self.root:
            dst_parent, dst_rest = target, [node.name]  # type: ignore[assignment]
            dst_norm = dst_norm.rstrip("/") + "/" + node.name
            target = dst_parent.children.get(node.name)
        if target is not None:
            raise FileAlreadyExists(dst)
        if node is self.root:
            raise FileNotFoundInHdfs("the root directory has no parent")
        if len(dst_rest) != 1:
            raise FileNotFoundInHdfs(f"rename target parent missing: {dst!r}")
        if admit is not None:
            admit(src_norm, dst_norm)
        del src_parent.children[src_rest[0]]
        node.name = dst_rest[0]
        dst_parent.children[node.name] = node
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
        return self._status_of(*self._inode(path))

    def list_status(self, path: str) -> list[FileStatus]:
        """Children of a directory (or the file itself), sorted by name."""
        norm, node = self._inode(path)
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
        stack = [self._inode(path)]
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
