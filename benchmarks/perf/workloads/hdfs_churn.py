"""``hdfs_churn``: HDFS alone — writes beside reads beside metadata.

One closed-loop client against an eight-DataNode cluster replays a
seeded script of mixed operations over a preloaded file population,
with an ``fsck`` and a ``dfsadmin -saveNamespace`` at fixed intervals,
and finally crashes the NameNode and recovers it from the journal.  No
MapReduce code runs, so a read-path gain that taxes writes, metadata
operations or journal replay shows here and nowhere else.

The script (which operation, on which path, at which offset) is drawn
from the seed during set-up against a model of the namespace; the timed
body only executes it.  The seed decides the order of operations, their
targets and the file contents; how many operations of each kind run,
and how many bytes are written, are the same for every seed, so runs
with different seeds time the same amount of work.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from benchmarks.perf.workloads import Outcome, Workload
from repro.hdfs.cluster import HdfsCluster
from repro.hdfs.config import HdfsConfig
from repro.hdfs.fsck import fsck
from repro.util.rng import RngStream

KIB = 1024
NUM_DATANODES = 8
BLOCK_SIZE = 128 * KIB
REPLICATION = 3
PRELOAD_FILES = 600
MIXED_OPS = 6000
ADMIN_EVERY = 1000
MIN_FILE = 16 * KIB
MAX_FILE = 256 * KIB
PREAD_BYTES = 8 * KIB
NUM_DIRS = 16

# Span names double as operation kinds.
READ = "hdfs.client.read"
PREAD = "hdfs.client.pread"
PUT = "hdfs.client.put"
RENAME = "hdfs.client.rename"
DELETE = "hdfs.client.delete"
LS = "hdfs.client.ls"
STATUS = "hdfs.client.status"
FSCK = "hdfs.client.fsck"
CHECKPOINT = "hdfs.client.checkpoint"
RECOVER = "hdfs.client.recover"

#: Operation mix, in twentieths: 40 % read, 20 % pread, 15 % put,
#: 5 % rename, 10 % delete, 10 % ls/status.
_MIX = ((READ, 8), (PREAD, 4), (PUT, 3), (RENAME, 1), (DELETE, 2), (LS, 1), (STATUS, 1))


@dataclass
class _Context:
    cluster: HdfsCluster
    client: object
    #: One random blob; every file's content is a slice of it.
    blob: bytes
    #: (kind, path-or-None, a, b) — see :meth:`HdfsChurn.body`.
    script: list[tuple]
    #: Surviving path -> (blob offset, length) once the script has run.
    survivors: dict[str, tuple[int, int]]


@dataclass
class _Run:
    sim_s: float
    sim_events: int
    completed: int


class HdfsChurn(Workload):
    name = "hdfs_churn"
    work_unit = "op"

    def setup(self) -> _Context:
        gen = RngStream(self.seed).child("perf", self.name).rng
        blob = gen.bytes(4 * MAX_FILE)
        cluster = HdfsCluster(
            num_datanodes=NUM_DATANODES,
            config=HdfsConfig(block_size=BLOCK_SIZE, replication=REPLICATION),
            seed=self.seed,
        )
        client = cluster.client()
        for index in range(NUM_DIRS):
            client.mkdirs(f"/churn/d{index:02d}")

        preload = self.scaled(PRELOAD_FILES, floor=20)
        mixed = self.scaled(MIXED_OPS, floor=100) // 20 * 20
        admin_every = self.scaled(ADMIN_EVERY, floor=50)
        kinds = [kind for kind, share in _MIX for _ in range(share * mixed // 20)]
        gen.shuffle(kinds)
        # Evenly spaced sizes in shuffled order: same bytes for any seed.
        sizes = np.linspace(MIN_FILE, MAX_FILE, preload + kinds.count(PUT)).astype(int)
        gen.shuffle(sizes)

        files: dict[str, tuple[int, int]] = {}
        names: list[str] = []
        serial = itertools.count()

        def new_file() -> tuple[str, int, int]:
            created = next(serial)
            size = int(sizes[created])
            offset = int(gen.integers(0, len(blob) - size))
            path = f"/churn/d{created % NUM_DIRS:02d}/f{created:06d}"
            files[path] = (offset, size)
            names.append(path)
            return path, offset, size

        for _ in range(preload):
            path, offset, size = new_file()
            client.put_bytes(path, blob[offset : offset + size])

        script: list[tuple] = []
        for op_index, kind in enumerate(kinds):
            if kind == PUT:
                script.append((PUT, *new_file()))
            elif kind == LS:
                directory = int(gen.integers(0, NUM_DIRS))
                script.append((LS, f"/churn/d{directory:02d}", 0, 0))
            else:
                slot = int(gen.integers(0, len(names)))
                path = names[slot]
                if kind == PREAD:
                    at = int(gen.integers(0, files[path][1]))
                    script.append((PREAD, path, at, PREAD_BYTES))
                elif kind == RENAME:
                    renamed = path + "r"
                    files[renamed] = files.pop(path)
                    names[slot] = renamed
                    script.append((RENAME, path, renamed, 0))
                elif kind == DELETE:
                    del files[path]
                    names[slot] = names[-1]
                    names.pop()
                    script.append((DELETE, path, 0, 0))
                else:  # READ, STATUS
                    script.append((kind, path, 0, 0))
            if (op_index + 1) % admin_every == 0:
                script.append((FSCK, None, 0, 0))
                script.append((CHECKPOINT, None, 0, 0))
        script.append((RECOVER, None, 0, 0))
        return _Context(
            cluster=cluster, client=client, blob=blob, script=script, survivors=files
        )

    def body(self, ctx: _Context, span) -> _Run:
        cluster, client, blob = ctx.cluster, ctx.client, ctx.blob
        sim = cluster.sim
        sim_start, events_start = sim.now, sim.events_processed
        completed = 0
        for kind, path, a, b in ctx.script:
            with span(kind):
                if kind == READ:
                    client.read_bytes(path)
                elif kind == PREAD:
                    client.open(path).pread(a, b)
                elif kind == PUT:
                    client.put_bytes(path, blob[a : a + b])
                elif kind == RENAME:
                    client.rename(path, a)
                elif kind == DELETE:
                    client.delete(path)
                elif kind == LS:
                    client.list_status(path)
                elif kind == STATUS:
                    client.status(path)
                elif kind == FSCK:
                    fsck(cluster.namenode)
                elif kind == CHECKPOINT:
                    cluster.dfsadmin().save_namespace()
                else:
                    cluster.crash_namenode()
                    cluster.recover_namenode()
            completed += 1
        return _Run(
            sim_s=sim.now - sim_start,
            sim_events=sim.events_processed - events_start,
            completed=completed,
        )

    def check(self, ctx: _Context, raw: _Run) -> Outcome:
        errors = []
        health = fsck(ctx.cluster.namenode)
        if not health.healthy:
            errors.append(f"hdfs_churn: fsck after recovery is {health.status}")
        if health.total_files != len(ctx.survivors):
            errors.append(
                f"hdfs_churn: {health.total_files} files survive, "
                f"model says {len(ctx.survivors)}"
            )
        for path, (offset, size) in ctx.survivors.items():
            if ctx.client.read_bytes(path).data != ctx.blob[offset : offset + size]:
                errors.append(f"hdfs_churn: {path} differs from what was written")
                break
        attempted = len(ctx.script)
        failed = attempted - raw.completed
        return Outcome(
            work=attempted,
            sim_s=raw.sim_s,
            sim_events=raw.sim_events,
            attempted=attempted,
            failed=max(failed, 1) if errors else failed,
            errors=errors,
            witness=(raw.sim_events, attempted, len(ctx.survivors)),
        )

    def layer_facts(self, ctx: _Context, raw: _Run) -> dict[str, float]:
        hits = misses = evictions = 0
        for datanode in ctx.cluster.datanodes.values():
            stats = datanode.cache.stats()
            hits += stats["hits"]
            misses += stats["misses"]
            evictions += stats["evictions"]
        user_bytes = sum(size for _offset, size in ctx.survivors.values())
        return {
            "hdfs.blockcache.hit_ratio": hits / max(1, hits + misses),
            "hdfs.blockcache.evictions": evictions,
            "hdfs.stored_bytes_per_user_byte": (
                ctx.cluster.total_stored_bytes() / max(1, user_bytes)
            ),
        }

    def input_chunks(self, ctx: _Context):
        yield ctx.blob
        yield repr(ctx.script).encode()
