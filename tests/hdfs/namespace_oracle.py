"""Reference oracle: the path-recursive namespace walks, as they were.

These are the bodies ``Namespace.status``, ``list_status``,
``walk_all``, ``walk_files`` and ``count`` had before the node-recursive
rewrite — every step builds the child's path with ``posixpath.join``
and resolves it again from the root.  They define what the one-resolve
walk must reproduce exactly (paths, inode identity, order, exception
types); ``test_namespace_walk.py`` compares the two.  Not collected by
pytest (no ``test_`` prefix).
"""

from __future__ import annotations

import posixpath
from typing import Iterator

from repro.hdfs.namespace import FileStatus, INode, INodeFile, Namespace, normalize


def status(ns: Namespace, path: str) -> FileStatus:
    node = ns._resolve(path)
    norm = normalize(path)
    if node.is_dir:
        return FileStatus(norm, True, 0, 0, 0, node.mtime)
    return FileStatus(
        norm, False, node.length, node.replication, len(node.blocks), node.mtime
    )


def list_status(ns: Namespace, path: str) -> list[FileStatus]:
    node = ns._resolve(path)
    norm = normalize(path)
    if not node.is_dir:
        return [status(ns, norm)]
    out = []
    for name in sorted(node.children):
        child_path = posixpath.join(norm, name)
        out.append(status(ns, child_path))
    return out


def walk_all(ns: Namespace, path: str = "/") -> Iterator[tuple[str, INode]]:
    node = ns._resolve(path)
    norm = normalize(path)
    yield norm, node
    if node.is_dir:
        for name in sorted(node.children):
            yield from walk_all(ns, posixpath.join(norm, name))


def walk_files(ns: Namespace, path: str = "/") -> Iterator[tuple[str, INodeFile]]:
    node = ns._resolve(path)
    norm = normalize(path)
    if not node.is_dir:
        yield norm, node
        return
    for name in sorted(node.children):
        yield from walk_files(ns, posixpath.join(norm, name))


def count(ns: Namespace, path: str) -> tuple[int, int, int]:
    node = ns._resolve(path)
    if not node.is_dir:
        return (0, 1, node.length)
    dirs, files, nbytes = 1, 0, 0
    for name in sorted(node.children):
        d, f, b = count(ns, posixpath.join(normalize(path), name))
        dirs, files, nbytes = dirs + d, files + f, nbytes + b
    return dirs, files, nbytes
