"""``hadoop fs`` — the shell commands the assignments exercise.

The second assignment "requires students to execute and record the
output of a number of Hadoop shell commands to observe how HDFS
transforms, stores, replicates, and abstracts the actual data"; this
module provides those commands with Hadoop 1.x argument conventions.

Commands return a :class:`ShellResult` (exit code + captured output)
rather than printing, so graders and tests can assert on them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hdfs.client import DFSClient
from repro.hdfs.localfs import LinuxFileSystem
from repro.util.errors import HdfsError, ReproError


@dataclass
class ShellResult:
    """Exit code and captured stdout of one shell command."""

    code: int
    output: str

    @property
    def ok(self) -> bool:
        return self.code == 0


class FsShell:
    """Dispatcher for ``hadoop fs <command>`` invocations."""

    def __init__(self, client: DFSClient, localfs: LinuxFileSystem | None = None):
        self.client = client
        self.localfs = localfs or LinuxFileSystem()
        self._commands = {
            "-ls": self._ls,
            "-lsr": self._lsr,
            "-mkdir": self._mkdir,
            "-put": self._put,
            "-copyFromLocal": self._put,
            "-get": self._get,
            "-copyToLocal": self._get,
            "-cat": self._cat,
            "-text": self._cat,
            "-tail": self._tail,
            "-rm": self._rm,
            "-rmr": self._rmr,
            "-mv": self._mv,
            "-cp": self._cp,
            "-du": self._du,
            "-dus": self._dus,
            "-count": self._count,
            "-setrep": self._setrep,
            "-stat": self._stat,
            "-test": self._test,
            "-touchz": self._touchz,
        }

    def run(self, *args: str) -> ShellResult:
        """Run one command, e.g. ``shell.run("-put", local, hdfs)``."""
        if not args:
            return ShellResult(1, "Usage: hadoop fs <command> [args]")
        command, rest = args[0], list(args[1:])
        handler = self._commands.get(command)
        if handler is None:
            return ShellResult(
                1, f"{command}: Unknown command\n"
                f"Supported: {' '.join(sorted(self._commands))}"
            )
        try:
            return handler(rest)
        except ReproError as exc:
            return ShellResult(1, f"{command}: {exc}")

    # ------------------------------------------------------------------
    def _ls(self, args: list[str]) -> ShellResult:
        path = args[0] if args else "/"
        statuses = self.client.list_status(path)
        lines = [f"Found {len(statuses)} items"]
        lines += [s.ls_line() for s in statuses]
        return ShellResult(0, "\n".join(lines))

    def _lsr(self, args: list[str]) -> ShellResult:
        path = args[0] if args else "/"
        lines: list[str] = []

        def walk(p: str) -> None:
            for status in self.client.list_status(p):
                lines.append(status.ls_line())
                if status.is_dir:
                    walk(status.path)

        if self.client.status(path).is_dir:
            walk(path)
        else:
            lines.append(self.client.status(path).ls_line())
        return ShellResult(0, "\n".join(lines))

    def _mkdir(self, args: list[str]) -> ShellResult:
        if not args:
            return ShellResult(1, "-mkdir: missing path")
        self.client.mkdirs(args[0])
        return ShellResult(0, "")

    def _put(self, args: list[str]) -> ShellResult:
        if len(args) != 2:
            return ShellResult(1, "-put: expected <localsrc> <dst>")
        local, dst = args
        if self.client.exists(dst) and self.client.status(dst).is_dir:
            dst = dst.rstrip("/") + "/" + local.rsplit("/", 1)[-1]
        self.client.copy_from_local(self.localfs, local, dst)
        return ShellResult(0, "")

    def _get(self, args: list[str]) -> ShellResult:
        if len(args) != 2:
            return ShellResult(1, "-get: expected <src> <localdst>")
        src, local = args
        self.client.copy_to_local(self.localfs, src, local)
        return ShellResult(0, "")

    def _cat(self, args: list[str]) -> ShellResult:
        if not args:
            return ShellResult(1, "-cat: missing path")
        chunks = [self.client.read_text(path) for path in args]
        return ShellResult(0, "".join(chunks))

    def _tail(self, args: list[str]) -> ShellResult:
        if not args:
            return ShellResult(1, "-tail: missing path")
        data = self.client.read_bytes(args[0]).data
        return ShellResult(0, data[-1024:].decode("utf-8", errors="replace"))

    def _rm(self, args: list[str]) -> ShellResult:
        if not args:
            return ShellResult(1, "-rm: missing path")
        status = self.client.status(args[0])
        if status.is_dir:
            return ShellResult(1, f"-rm: {args[0]} is a directory (use -rmr)")
        self.client.delete(args[0])
        return ShellResult(0, f"Deleted {args[0]}")

    def _rmr(self, args: list[str]) -> ShellResult:
        if not args:
            return ShellResult(1, "-rmr: missing path")
        self.client.delete(args[0], recursive=True)
        return ShellResult(0, f"Deleted {args[0]}")

    def _mv(self, args: list[str]) -> ShellResult:
        if len(args) != 2:
            return ShellResult(1, "-mv: expected <src> <dst>")
        self.client.rename(args[0], args[1])
        return ShellResult(0, "")

    def _cp(self, args: list[str]) -> ShellResult:
        if len(args) != 2:
            return ShellResult(1, "-cp: expected <src> <dst>")
        data = self.client.read_bytes(args[0]).data
        self.client.put_bytes(args[1], data)
        return ShellResult(0, "")

    def _du(self, args: list[str]) -> ShellResult:
        path = args[0] if args else "/"
        lines = []
        for status in self.client.list_status(path):
            size = self.client.du(status.path)
            lines.append(f"{size:<14} {status.path}")
        return ShellResult(0, "\n".join(lines))

    def _dus(self, args: list[str]) -> ShellResult:
        path = args[0] if args else "/"
        return ShellResult(0, f"{path}\t{self.client.du(path)}")

    def _count(self, args: list[str]) -> ShellResult:
        path = args[0] if args else "/"
        dirs, files, nbytes = self.client.namenode.namespace.count(path)
        return ShellResult(0, f"{dirs:>12} {files:>12} {nbytes:>16} {path}")

    def _setrep(self, args: list[str]) -> ShellResult:
        args = [a for a in args if a != "-w"]  # -w (wait) is a no-op here
        if len(args) != 2:
            return ShellResult(1, "-setrep: expected [-w] <rep> <path>")
        rep, path = int(args[0]), args[1]
        self.client.set_replication(path, rep)
        return ShellResult(0, f"Replication {rep} set: {path}")

    def _stat(self, args: list[str]) -> ShellResult:
        if not args:
            return ShellResult(1, "-stat: missing path")
        s = self.client.status(args[0])
        kind = "directory" if s.is_dir else "regular file"
        return ShellResult(
            0,
            f"{s.path}: {kind}, length={s.length}, "
            f"replication={s.replication}, blocks={s.block_count}",
        )

    def _test(self, args: list[str]) -> ShellResult:
        if len(args) != 2 or args[0] not in ("-e", "-d", "-z"):
            return ShellResult(1, "-test: expected -e|-d|-z <path>")
        flag, path = args
        try:
            if flag == "-e":
                ok = self.client.exists(path)
            elif flag == "-d":
                ok = self.client.exists(path) and self.client.status(path).is_dir
            else:
                ok = self.client.exists(path) and self.client.status(path).length == 0
        except HdfsError:
            ok = False
        return ShellResult(0 if ok else 1, "")

    def _touchz(self, args: list[str]) -> ShellResult:
        if not args:
            return ShellResult(1, "-touchz: missing path")
        self.client.put_bytes(args[0], b"")
        return ShellResult(0, "")
