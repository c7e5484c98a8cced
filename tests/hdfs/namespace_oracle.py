"""Reference oracle: the namespace as it was, one resolve per question.

Two generations of old bodies live here, both driven on a plain
:class:`Namespace` used only as a tree holder (``ns.root``):

* the path-recursive walks ``status``, ``list_status``, ``walk_all``,
  ``walk_files`` and ``count`` had before the node-recursive rewrite —
  every step builds the child's path with ``posixpath.join`` and
  resolves it again from the root;
* the lookups and mutators ``resolve`` / ``exists`` / ``is_dir`` /
  ``get_file`` / ``get_dir`` / ``mkdirs`` / ``create_file`` / ``delete``
  / ``rename`` had before the one-descent rewrite — each stacked on
  ``resolve`` and ``split_path``, so ``is_dir`` walked twice and a
  rename seven or eight times.

They define what the one-descent namespace must reproduce exactly
(paths, inode identity, order, return values, exception types, what
``admit`` is shown); ``test_namespace_walk.py`` compares the two.  Not
collected by pytest (no ``test_`` prefix).
"""

from __future__ import annotations

import posixpath
from typing import Callable, Iterator

from repro.hdfs.block import Block
from repro.hdfs.namespace import (
    FileStatus,
    INode,
    INodeDirectory,
    INodeFile,
    Namespace,
    normalize,
)
from repro.util.errors import (
    DirectoryNotEmpty,
    FileAlreadyExists,
    FileNotFoundInHdfs,
    IsADirectory,
    NotADirectory,
)


def split_path(path: str) -> tuple[str, str]:
    norm = normalize(path)
    if norm == "/":
        raise FileNotFoundInHdfs("the root directory has no parent")
    parent, base = posixpath.split(norm)
    return parent, base


def resolve(ns: Namespace, path: str) -> INode:
    norm = normalize(path)
    node: INode = ns.root
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


def exists(ns: Namespace, path: str) -> bool:
    try:
        resolve(ns, path)
        return True
    except (FileNotFoundInHdfs, NotADirectory):
        return False


def is_dir(ns: Namespace, path: str) -> bool:
    return exists(ns, path) and resolve(ns, path).is_dir


def get_file(ns: Namespace, path: str) -> INodeFile:
    node = resolve(ns, path)
    if node.is_dir:
        raise IsADirectory(path)
    return node  # type: ignore[return-value]


def get_dir(ns: Namespace, path: str) -> INodeDirectory:
    node = resolve(ns, path)
    if not node.is_dir:
        raise NotADirectory(path)
    return node  # type: ignore[return-value]


def mkdirs(ns: Namespace, path: str, mtime: float = 0.0) -> bool:
    norm = normalize(path)
    node: INodeDirectory = ns.root
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
    ns: Namespace,
    path: str,
    replication: int,
    mtime: float = 0.0,
    overwrite: bool = False,
) -> INodeFile:
    parent_path, base = split_path(path)
    mkdirs(ns, parent_path, mtime=mtime)
    parent = get_dir(ns, parent_path)
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


def _collect_blocks(node: INode) -> Iterator[Block]:
    if node.is_dir:
        for child in node.children.values():  # type: ignore[union-attr]
            yield from _collect_blocks(child)
    else:
        yield from node.blocks  # type: ignore[union-attr]


def delete(ns: Namespace, path: str, recursive: bool = False) -> list[Block]:
    norm = normalize(path)
    if norm == "/":
        raise IsADirectory("cannot delete the root directory")
    parent_path, base = split_path(norm)
    parent = get_dir(ns, parent_path)
    if base not in parent.children:
        raise FileNotFoundInHdfs(path)
    node = parent.children[base]
    if node.is_dir and node.children and not recursive:  # type: ignore[union-attr]
        raise DirectoryNotEmpty(path)
    freed: list[Block] = list(_collect_blocks(node))
    del parent.children[base]
    return freed


def rename(
    ns: Namespace,
    src: str,
    dst: str,
    admit: Callable[[str, str], None] | None = None,
) -> str | None:
    src_norm, dst_norm = normalize(src), normalize(dst)
    if dst_norm == src_norm:
        return None
    if dst_norm.startswith(src_norm + "/"):
        raise NotADirectory(f"cannot move {src!r} into itself")
    node = resolve(ns, src_norm)
    # Moving onto an existing directory moves *into* it (fs -mv semantics).
    if is_dir(ns, dst_norm):
        dst_norm = posixpath.join(dst_norm, node.name)
    if exists(ns, dst_norm):
        raise FileAlreadyExists(dst)
    src_parent, src_base = split_path(src_norm)
    dst_parent, dst_base = split_path(dst_norm)
    if not is_dir(ns, dst_parent):
        raise FileNotFoundInHdfs(f"rename target parent missing: {dst_parent}")
    if admit is not None:
        admit(src_norm, dst_norm)
    del get_dir(ns, src_parent).children[src_base]
    node.name = dst_base
    get_dir(ns, dst_parent).children[dst_base] = node
    return dst_norm


def status(ns: Namespace, path: str) -> FileStatus:
    node = resolve(ns, path)
    norm = normalize(path)
    if node.is_dir:
        return FileStatus(norm, True, 0, 0, 0, node.mtime)
    return FileStatus(
        norm, False, node.length, node.replication, len(node.blocks), node.mtime
    )


def list_status(ns: Namespace, path: str) -> list[FileStatus]:
    node = resolve(ns, path)
    norm = normalize(path)
    if not node.is_dir:
        return [status(ns, norm)]
    out = []
    for name in sorted(node.children):
        child_path = posixpath.join(norm, name)
        out.append(status(ns, child_path))
    return out


def walk_all(ns: Namespace, path: str = "/") -> Iterator[tuple[str, INode]]:
    node = resolve(ns, path)
    norm = normalize(path)
    yield norm, node
    if node.is_dir:
        for name in sorted(node.children):
            yield from walk_all(ns, posixpath.join(norm, name))


def walk_files(ns: Namespace, path: str = "/") -> Iterator[tuple[str, INodeFile]]:
    node = resolve(ns, path)
    norm = normalize(path)
    if not node.is_dir:
        yield norm, node
        return
    for name in sorted(node.children):
        yield from walk_files(ns, posixpath.join(norm, name))


def count(ns: Namespace, path: str) -> tuple[int, int, int]:
    node = resolve(ns, path)
    if not node.is_dir:
        return (0, 1, node.length)
    dirs, files, nbytes = 1, 0, 0
    for name in sorted(node.children):
        d, f, b = count(ns, posixpath.join(normalize(path), name))
        dirs, files, nbytes = dirs + d, files + f, nbytes + b
    return dirs, files, nbytes
