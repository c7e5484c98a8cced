"""The NameNode: namespace, block map, liveness, replication management.

Per the paper's Figure 2: *"Block metadata lives in memory"* — the
NameNode holds the directory tree (:class:`~repro.hdfs.namespace.Namespace`)
and a block map from block id to expected replication and current
locations.  DataNodes report in; the NameNode never calls them — all
control flows back through heartbeat responses
(:class:`~repro.hdfs.protocol.HeartbeatResponse`).  Each question the
master answers has one home here: a path is normalised once per RPC and
walked once by the namespace; a block's health is :meth:`NameNode.census`
(``fsck``, ``replication_health`` and ``dfsadmin`` read it too); who is
alive is ``liveness``, a :class:`~repro.sim.engine.LivenessTable`; and
``locations`` change only in ``_add_replica`` / ``_drop_replica``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.cluster.topology import ClusterTopology
from repro.hdfs.block import Block, BlockIdGenerator
from repro.hdfs.config import HdfsConfig
from repro.hdfs.journal import (
    CheckpointStats,
    DirJournalStorage,
    ImageState,
    MemoryJournalStorage,
    NameNodeJournal,
    empty_image_state,
)
from repro.hdfs.namespace import FileStatus, move_quotas, normalize
from repro.hdfs.placement import ReplicaPlacementPolicy
from repro.hdfs.protocol import (
    BlockReport,
    Command,
    DatanodeInfo,
    HeartbeatResponse,
    InvalidateCommand,
    ReplicateCommand,
)
from repro.hdfs.safemode import SafeMode
from repro.sim.engine import LivenessTable, Simulation
from repro.util.errors import (
    BlockNotFoundError,
    FileNotFoundInHdfs,
    HdfsError,
    NameNodeDownError,
    QuotaExceededError,
    ReplicationError,
)
from repro.util.rng import RngStream


#: Blocks one replication sweep may schedule for re-replication.
MAX_REPLICATION_STREAMS = 2
#: Replicas that must land for a block write to succeed, and that a
#: block needs to count as reported in safe mode.
MIN_REPLICAS = 1
#: NameNode heap consumed per block record (block metadata lives in
#: memory — Figure 2's caption).  ~150 bytes in Hadoop lore.
BYTES_PER_BLOCK = 150


@dataclass
class BlockMeta:
    """NameNode-side record for one block.  It names no file: reports
    derive a block's path from the namespace, so renames never come here."""

    block: Block
    expected_replication: int
    locations: set[str] = field(default_factory=set)
    corrupt_on: set[str] = field(default_factory=set)
    #: Cached "counts toward safemode" bit (>= MIN_REPLICAS live
    #: replicas); maintained by NameNode._check_replication so safemode
    #: updates are O(1) instead of an O(#blocks) rescan per event.
    safe: bool = False


@dataclass
class LocatedBlock:
    """A block plus its replica locations, nearest-first for a reader."""

    block: Block
    locations: list[str]


class NameNode:
    """The HDFS master."""

    def __init__(
        self,
        sim: Simulation,
        topology: ClusterTopology,
        config: HdfsConfig | None = None,
        rng: RngStream | None = None,
    ):
        self.sim = sim
        self.topology = topology
        self.config = config or HdfsConfig()
        self.rng = rng or RngStream(seed=0).child("namenode")
        self.placement = ReplicaPlacementPolicy(topology, self.rng.child("placement"))
        self._block_ids = BlockIdGenerator()
        # Everything a process death takes with it is built by these
        # two, here and in crash()/restart(), so the lists cannot drift.
        self._install_state(empty_image_state())
        self._forget_datanodes()
        #: True between crash() and recover(): the process is gone, every
        #: RPC is refused, and only the journal remembers the namespace.
        self.down = False
        # The fsimage + edit-log pair.  Disabled journaling keeps a no-op
        # journal object so mutators never branch on config.
        if self.config.journal:
            storage = (
                DirJournalStorage(self.config.journal_dir)
                if self.config.journal_dir
                else MemoryJournalStorage()
            )
            self.journal = NameNodeJournal(
                storage, checkpoint_edit_limit=self.config.checkpoint_edit_limit
            )
        else:
            self.journal = NameNodeJournal(None)
        self.journal.bind(self._image_state)
        self.journal.format()
        self.restarts = 0
        self.crashes = 0
        self.recoveries = 0
        self.heartbeats_processed = 0
        self.sim.wheel(self.config.heartbeat_interval).subscribe(
            self._check_liveness
        )
        self.sim.wheel(self.config.replication_check_interval).subscribe(
            self._replication_sweep
        )
        # A freshly formatted NameNode has no blocks to wait for.
        self._update_safemode()

    # ------------------------------------------------------------------
    # monitors
    def _check_liveness(self) -> None:
        """Declare DataNodes dead after prolonged heartbeat silence."""
        if self.down:
            return
        for name in self.liveness.expired(self.sim.now):
            self._remove_location_everywhere(name)
            self.sim.bus.publish(
                "hdfs.namenode.node_dead", self.sim.now, datanode=name
            )

    def _blocks_of(self, datanode: str) -> list[BlockMeta]:
        """Every block with a replica on ``datanode``, in id order."""
        return [
            self.block_map[block_id]
            for block_id in sorted(self._blocks_on.get(datanode, ()))
        ]

    def _remove_location_everywhere(self, datanode: str) -> None:
        for meta in self._blocks_of(datanode):
            self._drop_replica(meta, datanode, invalidate=False)
        self._update_safemode()

    def _readable_replicas(self, meta: BlockMeta) -> list[str]:
        """Where a reader or a re-replication may copy this block from:
        live, not known corrupt, in name order."""
        return sorted((meta.locations & self.liveness.alive) - meta.corrupt_on)

    def _replication_sweep(self) -> None:
        """Queue re-replication / deletion work, a few blocks per sweep."""
        if self.down or self.safemode.active:
            return
        streams = 0
        for block_id in sorted(self.under_replicated):
            if streams >= MAX_REPLICATION_STREAMS:
                break
            meta = self.block_map.get(block_id)
            if meta is None:
                self.under_replicated.discard(block_id)
                continue
            live_sources = self._readable_replicas(meta)
            if not live_sources:
                continue  # missing block: nothing to copy from
            candidates = self._eligible_targets(meta.block.length)
            targets = self.placement.choose_targets(
                1, candidates, exclude=meta.locations
            )
            if not targets:
                continue
            source = live_sources[0]
            self._pending_commands[source].append(
                ReplicateCommand(block_id=block_id, target=targets[0])
            )
            streams += 1
        # Trim over-replicated blocks (e.g., a dead node came back).
        for block_id in sorted(self.over_replicated):
            meta = self.block_map.get(block_id)
            if meta is None or self.census(meta)[2] != "over":
                self.over_replicated.discard(block_id)
                continue
            # Tie-break free space by name: set iteration order is hash-
            # randomized, and the stable sort would otherwise leak it into
            # which replica gets invalidated (run-to-run nondeterminism).
            extra = sorted(
                meta.locations, key=lambda d: (self._free_space_of(d), d)
            )[0]
            self._drop_replica(meta, extra)

    def _free_space_of(self, datanode: str) -> int:
        info = self.datanodes.get(datanode)
        return info.remaining if info else 0

    def _eligible_targets(self, block_length: int) -> list[str]:
        return [
            name
            for name, info in self.datanodes.items()
            if name in self.liveness.alive
            and name not in self.decommissioning
            and info.remaining >= block_length
        ]

    # ------------------------------------------------------------------
    # quotas
    def set_quota(
        self,
        path: str,
        namespace_quota: int | None = None,
        space_quota: int | None = None,
    ) -> None:
        """Set (or clear, with None/None) quotas on a directory."""
        self._check_down("set a quota")
        norm = normalize(path)
        self.namespace.get_dir(norm)  # must exist and be a dir
        if namespace_quota is not None and namespace_quota < 1:
            raise QuotaExceededError("namespace quota must be >= 1")
        if space_quota is not None and space_quota < 0:
            raise QuotaExceededError("space quota must be >= 0")
        if namespace_quota is None and space_quota is None:
            self.quotas.pop(norm, None)
        else:
            self.quotas[norm] = (namespace_quota, space_quota)
        self.journal.log_set_quota(norm, namespace_quota, space_quota)

    def _quota_roots_for(self, norm: str) -> list[str]:
        return [
            root
            for root in self.quotas
            if norm == root or norm.startswith(root.rstrip("/") + "/")
        ]

    def _namespace_usage(self, root: str) -> int:
        dirs, files, _bytes = self.namespace.count(root)
        return dirs - 1 + files  # the quota root itself doesn't count

    def _space_usage(self, root: str) -> int:
        total = 0
        for _path, inode in self.namespace.walk_files(root):
            total += inode.length * inode.replication
        return total

    def _check_namespace_quota(
        self, new_path: str, added: int = 1, roots: list[str] | None = None
    ) -> None:
        for root in self._quota_roots_for(new_path) if roots is None else roots:
            quota, _space = self.quotas[root]
            if quota is not None and self._namespace_usage(root) + added > quota:
                raise QuotaExceededError(
                    f"namespace quota of {root} exceeded: "
                    f"quota={quota}, trying to add {new_path}"
                )

    def _check_space_quota(
        self, path: str, added_bytes: int, roots: list[str] | None = None
    ) -> None:
        for root in self._quota_roots_for(path) if roots is None else roots:
            _ns, space = self.quotas[root]
            if space is not None and self._space_usage(root) + added_bytes > space:
                raise QuotaExceededError(
                    f"space quota of {root} exceeded: quota={space} bytes "
                    f"(with replication), adding {added_bytes}"
                )

    # ------------------------------------------------------------------
    # decommissioning
    def start_decommission(self, datanode: str) -> None:
        """Begin draining a DataNode: no new replicas land on it, and
        its existing replicas are copied elsewhere by the replication
        monitor.  Reads keep working throughout."""
        self._check_down("start decommissioning")
        if datanode not in self.datanodes:
            raise HdfsError(f"unknown DataNode {datanode!r}")
        self.decommissioning.add(datanode)
        self.journal.log_decommission_start(datanode)
        for meta in self._blocks_of(datanode):
            self._check_replication(meta)
        self.sim.bus.publish(
            "hdfs.namenode.decommission_started", self.sim.now,
            datanode=datanode,
        )

    def decommission_complete(self, datanode: str) -> bool:
        """True when every block on the node is safe without it."""
        if datanode not in self.decommissioning:
            return False
        for meta in self._blocks_of(datanode):
            if self.census(meta)[1] < min(
                meta.expected_replication, len(self._eligible_targets(0)) or 1
            ):
                return False
        return True

    def stop_decommission(self, datanode: str) -> None:
        self._check_down("stop decommissioning")
        self.decommissioning.discard(datanode)
        self.journal.log_decommission_stop(datanode)
        for meta in self._blocks_of(datanode):
            self._check_replication(meta)

    # ------------------------------------------------------------------
    # namespace operations (client RPCs)
    def mkdirs(self, path: str) -> bool:
        self._check_down("mkdirs")
        self.safemode.check("mkdirs")
        norm = normalize(path)
        created = self.namespace.mkdirs(
            norm, mtime=self.sim.now, admit=self._admit_create
        )
        self.journal.log_mkdirs(norm, self.sim.now)
        return created

    def _admit_create(self, norm: str, existing) -> None:
        """Before ``mkdirs`` / ``create_file`` change anything: a file
        about to be overwritten is deleted (journals its own OP_DELETE),
        then the new path is charged to its quota roots."""
        if existing is not None:
            self.delete(norm)
        self._check_namespace_quota(norm)

    def create_file(
        self,
        path: str,
        replication: int | None = None,
        overwrite: bool = False,
    ) -> None:
        self._check_down("create a file")
        self.safemode.check("create")
        rep = replication if replication is not None else self.config.replication
        if rep < 1:
            raise ReplicationError(f"replication must be >= 1, got {rep}")
        norm = normalize(path)
        self.namespace.create_file(
            norm,
            replication=rep,
            mtime=self.sim.now,
            overwrite=overwrite,
            admit=self._admit_create,
        )
        self.journal.log_create(norm, rep, self.sim.now)

    def add_block(
        self,
        path: str,
        length: int,
        writer: str | None = None,
        exclude: tuple[str, ...] = (),
    ) -> tuple[Block, list[str]]:
        """Allocate the next block of an under-construction file and
        choose pipeline targets for it."""
        self._check_down("add a block")
        self.safemode.check("add block")
        norm = normalize(path)
        inode = self.namespace.get_file(norm)
        if not inode.under_construction:
            raise HdfsError(f"{path} is not under construction")
        self._check_space_quota(norm, length * inode.replication)
        candidates = self._eligible_targets(length)
        targets = self.placement.choose_targets(
            inode.replication, candidates, writer=writer, exclude=exclude
        )
        if len(targets) < MIN_REPLICAS:
            raise ReplicationError(
                f"could only place {len(targets)} of {inode.replication} "
                f"replicas for a new block of {path} "
                f"({len(candidates)} eligible DataNodes)"
            )
        # Allocate the id only once placement has succeeded: a failed
        # allocation would burn an id no journal record explains, and a
        # replayed NameNode's id counter would drift from the live one.
        block = Block(
            block_id=self._block_ids.next_id(), generation=1, length=length
        )
        inode.blocks.append(block)
        self.block_map[block.block_id] = BlockMeta(
            block=block,
            expected_replication=inode.replication,
        )
        self.journal.log_add_block(
            norm, block.block_id, block.generation, block.length
        )
        return block, targets

    def abandon_block(self, path: str, block: Block) -> None:
        """Roll back a block whose pipeline completely failed."""
        self._check_down("abandon a block")
        norm = normalize(path)
        inode = self.namespace.get_file(norm)
        inode.blocks = [b for b in inode.blocks if b.block_id != block.block_id]
        self._forget_block(block.block_id)
        self.journal.log_abandon_block(norm, block.block_id)
        self._update_safemode()

    def complete_file(self, path: str) -> None:
        self._check_down("complete a file")
        norm = normalize(path)
        inode = self.namespace.get_file(norm)
        for block in inode.blocks:
            meta = self.block_map[block.block_id]
            live = self.census(meta)[0]
            if live < MIN_REPLICAS:
                raise ReplicationError(
                    f"block blk_{block.block_id} of {path} has only "
                    f"{live} replicas at completion"
                )
            self._check_replication(meta)
        inode.under_construction = False
        inode.mtime = self.sim.now
        self.journal.log_complete(norm, self.sim.now)
        self._update_safemode()
        self.sim.bus.publish(
            "hdfs.namenode.file_completed",
            self.sim.now,
            path=path,
            blocks=len(inode.blocks),
            length=inode.length,
        )

    def get_block_locations(
        self,
        path: str,
        client_node: str | None = None,
        block_index: int | None = None,
    ) -> list[LocatedBlock]:
        """Blocks of a file with live replica locations, nearest-first.

        ``block_index`` locates just that block (``[]`` past the end) —
        Hadoop's ``getBlockLocations(src, offset, length)`` in block
        units, so a task reading one block does not pay for all of them.
        """
        self._check_down("locate blocks")
        blocks = self.namespace.get_file(path).blocks
        if block_index is not None:
            blocks = blocks[block_index : block_index + 1]
        located = []
        for block in blocks:
            meta = self.block_map[block.block_id]
            live = self._readable_replicas(meta)
            if client_node is not None and client_node in self.topology:
                live.sort(key=lambda d: (self.topology.distance(client_node, d), d))
            located.append(LocatedBlock(block=block, locations=live))
        return located

    def delete(self, path: str, recursive: bool = False) -> bool:
        self._check_down("delete")
        self.safemode.check("delete")
        norm = normalize(path)
        freed = self.namespace.delete(norm, recursive=recursive)
        move_quotas(self.quotas, norm, None)
        self.journal.log_delete(norm, recursive)
        for block in freed:
            self._forget_block(block.block_id)
        self._update_safemode()
        return True

    def rename(self, src: str, dst: str) -> None:
        self._check_down("rename")
        self.safemode.check("rename")
        src, dst = normalize(src), normalize(dst)
        landed = self.namespace.rename(src, dst, admit=self._admit_rename)
        if landed is not None:  # src == dst moved nothing: nothing to redo
            move_quotas(self.quotas, src, landed)
            self.journal.log_rename(src, dst)

    def _admit_rename(self, src: str, landed: str) -> None:
        """Charge the moved subtree to the quota roots it enters (those
        above ``landed`` but not above ``src``) before anything moves."""
        unchanged = self._quota_roots_for(src)
        entered = [r for r in self._quota_roots_for(landed) if r not in unchanged]
        if entered:
            dirs, files, _bytes = self.namespace.count(src)
            self._check_namespace_quota(landed, dirs + files, entered)
            self._check_space_quota(landed, self._space_usage(src), entered)

    def set_replication(self, path: str, replication: int) -> None:
        self._check_down("setrep")
        self.safemode.check("setrep")
        if replication < 1:
            raise ReplicationError("replication must be >= 1")
        norm = normalize(path)
        inode = self.namespace.get_file(norm)
        if replication > inode.replication:
            self._check_space_quota(
                norm, inode.length * (replication - inode.replication)
            )
        inode.replication = replication
        self.journal.log_set_replication(norm, replication)
        for block in inode.blocks:
            meta = self.block_map[block.block_id]
            meta.expected_replication = replication
            self._check_replication(meta)

    # read-only namespace passthroughs
    def exists(self, path: str) -> bool:
        self._check_down("stat")
        return self.namespace.exists(path)

    def status(self, path: str) -> FileStatus:
        self._check_down("stat")
        return self.namespace.status(path)

    def list_status(self, path: str) -> list[FileStatus]:
        self._check_down("list")
        return self.namespace.list_status(path)

    # ------------------------------------------------------------------
    # DataNode RPCs
    def register_datanode(self, info: DatanodeInfo) -> None:
        if self.down:
            return
        self.datanodes[info.name] = info
        self.liveness.beat(info.name, self.sim.now)
        self.sim.bus.publish(
            "hdfs.namenode.registered", self.sim.now, datanode=info.name
        )

    def heartbeat(self, info: DatanodeInfo) -> HeartbeatResponse:
        if self.down:
            # A dead process answers nothing; the DataNode simply retries
            # on its next interval and re-registers after recovery.
            return HeartbeatResponse()
        self.heartbeats_processed += 1
        if self.sim.faults.namenode_heartbeat_crash(self):
            self.crash()
            return HeartbeatResponse()
        if info.name not in self.datanodes:
            # Never registered, or forgotten by a restart.
            return HeartbeatResponse(re_register=True)
        was_dead = info.name not in self.liveness.alive
        self.datanodes[info.name] = info
        self.liveness.beat(info.name, self.sim.now)
        if was_dead:
            # A returning node must resend its block report.
            return HeartbeatResponse(re_register=True)
        commands = tuple(self._pending_commands.pop(info.name, ()))
        return HeartbeatResponse(commands=commands)

    def process_block_report(self, report: BlockReport) -> None:
        if self.down:
            return
        name = report.datanode
        orphans: list[int] = []
        for block_id in report.block_ids:
            meta = self.block_map.get(block_id)
            if meta is None:
                orphans.append(block_id)  # deleted while the node was away
                continue
            self._add_replica(meta, name)
        for block_id in report.corrupt_ids:
            self.report_bad_block(block_id, name)
        if orphans:
            self._pending_commands[name].append(
                InvalidateCommand(block_ids=tuple(orphans))
            )
        self._update_safemode()

    def block_received(self, datanode: str, block: Block) -> None:
        """A DataNode confirms one replica landed (pipeline or copy)."""
        if self.down:
            # The confirmation is lost with the process; the replica is
            # re-announced by the node's block report after recovery.
            return
        meta = self.block_map.get(block.block_id)
        if meta is None:
            raise BlockNotFoundError(f"blk_{block.block_id} unknown to NameNode")
        self._add_replica(meta, datanode)
        self._update_safemode()

    def report_bad_block(self, block_id: int, datanode: str) -> None:
        """A reader or scanner found a corrupt replica."""
        if self.down:
            return
        meta = self.block_map.get(block_id)
        if meta is None:
            return
        meta.corrupt_on.add(datanode)
        self._drop_replica(meta, datanode)
        self.sim.bus.publish(
            "hdfs.namenode.corrupt_replica",
            self.sim.now,
            block_id=block_id,
            datanode=datanode,
        )

    # ------------------------------------------------------------------
    # replication bookkeeping
    def _add_replica(self, meta: BlockMeta, datanode: str) -> None:
        """A DataNode reported or confirmed a good replica.  This and
        :meth:`_drop_replica` are the one mutation path for
        ``locations``, keeping the reverse index and the queues exact."""
        if datanode not in meta.locations:
            meta.locations.add(datanode)
            self._blocks_on[datanode].add(meta.block.block_id)
        meta.corrupt_on.discard(datanode)
        self._check_replication(meta)

    def _drop_replica(
        self, meta: BlockMeta, datanode: str, invalidate: bool = True
    ) -> None:
        """A replica is no longer wanted where it is (corrupt, surplus,
        or moved away by the balancer): forget it and have the DataNode
        delete it, unless the caller already has."""
        if datanode in meta.locations:
            meta.locations.discard(datanode)
            self._blocks_on[datanode].discard(meta.block.block_id)
        if invalidate:
            self._pending_commands[datanode].append(
                InvalidateCommand(block_ids=(meta.block.block_id,))
            )
        self._check_replication(meta)

    def _forget_block(self, block_id: int) -> None:
        """A block leaves the block map (its file was deleted or the
        write abandoned): unhook every index and invalidate its replicas."""
        meta = self.block_map.pop(block_id, None)
        self.under_replicated.discard(block_id)
        self.over_replicated.discard(block_id)
        if meta is None:
            return
        if meta.safe:
            meta.safe = False
            self._safe_blocks -= 1
        # sorted(): keep _pending_commands keyed in a deterministic
        # order regardless of set hash order (mrlint MRE101).
        for dn in sorted(meta.locations):
            self._blocks_on[dn].discard(block_id)
            self._pending_commands[dn].append(
                InvalidateCommand(block_ids=(block_id,))
            )

    def census(self, meta: BlockMeta) -> tuple[int, int, str]:
        """The one definition of a block's health: ``(live, counted,
        state)``.  ``live`` replicas sit on DataNodes believed alive;
        ``counted`` leaves out those on decommissioning nodes, which
        still serve reads but do not count toward the target (the block
        must become safe without them before the node can leave).
        ``state`` is exclusive: ``"missing"`` (no live replica), else
        ``"under"`` / ``"ok"`` / ``"over"`` by ``counted`` against
        ``expected_replication``."""
        alive = meta.locations & self.liveness.alive
        live, counted = len(alive), len(alive - self.decommissioning)
        if live == 0:
            return 0, 0, "missing"
        if counted < meta.expected_replication:
            return live, counted, "under"
        if counted > meta.expected_replication:
            return live, counted, "over"
        return live, counted, "ok"

    def _check_replication(self, meta: BlockMeta) -> None:
        """Act on the block's census after any change to it: set its
        safemode bit (the only place ``_safe_blocks`` moves while the
        block is mapped) and file it in the queue its state calls for —
        a missing block waits in ``under_replicated`` for a source."""
        live, _counted, state = self.census(meta)
        safe = live >= MIN_REPLICAS
        if safe != meta.safe:
            meta.safe = safe
            self._safe_blocks += 1 if safe else -1
        block_id = meta.block.block_id
        if state in ("missing", "under"):
            self.under_replicated.add(block_id)
        else:
            self.under_replicated.discard(block_id)
        if state == "over":
            self.over_replicated.add(block_id)
        else:
            self.over_replicated.discard(block_id)

    def missing_blocks(self) -> list[int]:
        """Blocks with zero live replicas — data loss until a node returns."""
        return sorted(
            block_id
            for block_id, meta in self.block_map.items()
            if self.census(meta)[2] == "missing"
        )

    # ------------------------------------------------------------------
    # safe mode
    def _update_safemode(self) -> None:
        if self.down:
            return
        # O(1): the safe-block census is maintained incrementally by
        # _check_replication at every replica/liveness mutation.
        self.safemode.set_block_totals(len(self.block_map), self._safe_blocks)
        exit_time = self.safemode.maybe_schedule_exit(self.sim.now)
        if exit_time is not None:
            self.sim.schedule_at(exit_time, self._try_leave_safemode)

    def _try_leave_safemode(self) -> None:
        if self.down:
            return
        if self.safemode.try_exit(self.sim.now):
            self.sim.bus.publish("hdfs.namenode.safemode_off", self.sim.now)

    # ------------------------------------------------------------------
    # durability: crash, recovery, checkpoints (the war-story path)
    def _check_down(self, operation: str) -> None:
        if self.down:
            raise NameNodeDownError(
                f"cannot {operation}: the NameNode is down "
                "(crashed; awaiting journal recovery)"
            )

    def _image_state(self) -> ImageState:
        """Snapshot the durable half of this NameNode for the fsimage.

        Replica locations, registrations and pending commands are
        deliberately absent: they are runtime state, rebuilt from
        DataNode block reports while recovery waits out safemode.
        """
        return ImageState(
            namespace=self.namespace,
            quotas=dict(self.quotas),
            decommissioning=set(self.decommissioning),
            next_block_id=self._block_ids.peek(),
        )

    def _install_state(self, state: ImageState) -> None:
        """Adopt durable state and build every structure derived from
        it.  The block map comes from the namespace walk (every block's
        expected replication is its file's); replica locations start
        empty and refill from block reports."""
        self.namespace = state.namespace
        #: Directory quotas: path -> (namespace quota | None,
        #: space quota in bytes x replication | None).  Survives restart
        #: (it's namespace metadata, like the fsimage).
        self.quotas: dict[str, tuple[int | None, int | None]] = dict(
            state.quotas
        )
        #: DataNodes being drained: no new replicas are placed on them.
        self.decommissioning: set[str] = set(state.decommissioning)
        self._block_ids.restore(state.next_block_id)
        self.block_map: dict[int, BlockMeta] = {
            block.block_id: BlockMeta(
                block=block, expected_replication=inode.replication
            )
            for _path, inode in self.namespace.walk_files("/")
            for block in inode.blocks
        }
        self._pending_commands: dict[str, list[Command]] = defaultdict(list)
        self.under_replicated: set[int] = set()
        self.over_replicated: set[int] = set()
        #: Reverse replica index: datanode -> block ids with a replica
        #: there.  Keeps node-scoped operations (death, decommission)
        #: O(blocks on that node) instead of O(all blocks).
        self._blocks_on: dict[str, set[int]] = defaultdict(set)
        #: Count of blocks whose ``safe`` bit is set (O(1) safemode).
        self._safe_blocks = 0

    def _forget_datanodes(self) -> None:
        """Drop registrations, the liveness table and safemode progress:
        what any NameNode process start — first, restart or crash —
        begins without.  A forgotten node's next heartbeat finds no
        descriptor and is told to re-register."""
        #: The latest report of every registered DataNode, and the
        #: heartbeat table that says which of them are alive.
        self.datanodes: dict[str, DatanodeInfo] = {}
        self.liveness = LivenessTable(self.config.dead_node_timeout)
        self.safemode = SafeMode()

    def crash(self) -> None:
        """Kill the NameNode process.  Every in-memory structure — the
        namespace, the block map, registrations, pending commands — is
        gone; only the journal (fsimage + edit log) survives.  With
        journaling disabled this is the paper's nightmare scenario: the
        cluster's metadata exists nowhere."""
        if self.down:
            return
        self.down = True
        self.crashes += 1
        self._install_state(empty_image_state())
        self._forget_datanodes()
        self.sim.bus.publish("hdfs.namenode.crashed", self.sim.now)

    def recover(self) -> None:
        """Bring a crashed NameNode back from its journal: load the
        fsimage, replay the edit log's valid prefix, enter safemode, and
        wait for DataNodes to re-register and re-report their blocks
        (their next heartbeat gets ``re_register=True`` because the
        descriptor table died with the process)."""
        if not self.down:
            return
        self._install_state(self.journal.recover())
        self.down = False
        self.recoveries += 1
        self._update_safemode()
        self.sim.bus.publish("hdfs.namenode.recovered", self.sim.now)

    def save_namespace(self) -> CheckpointStats:
        """``dfsadmin -saveNamespace``: roll a checkpoint — encode a new
        fsimage from live state, swap it in, truncate the edit log."""
        self._check_down("save the namespace")
        return self.journal.checkpoint()

    def namespace_digest(self) -> tuple:
        """Canonical durable-state snapshot: identical digests mean the
        journal reproduced the namespace exactly (identity tests)."""
        return (
            self.namespace.dump(),
            tuple(sorted(self.quotas.items())),
            tuple(sorted(self.decommissioning)),
            self._block_ids.peek(),
            tuple(
                (
                    block_id,
                    self.block_map[block_id].block,
                    self.block_map[block_id].expected_replication,
                )
                for block_id in sorted(self.block_map)
            ),
        )

    def restart(self) -> None:
        """Restart the NameNode: replica locations and DataNode
        registrations are runtime state and are always lost — the
        NameNode re-enters safe mode until DataNodes re-register and
        re-report, which is why the paper's cluster took 15+ minutes to
        come back.  With journaling on, the namespace itself is *also*
        dropped and rebuilt from fsimage + edits (restart IS recovery,
        proving the journal captures everything); with it off, the
        in-heap namespace survives the way the pre-journal repro
        pretended the fsimage worked."""
        self.restarts += 1
        self._install_state(
            self.journal.recover()
            if self.journal.enabled
            else self._image_state()
        )
        self._forget_datanodes()
        self._update_safemode()
        self.sim.bus.publish("hdfs.namenode.restarted", self.sim.now)

    # ------------------------------------------------------------------
    # metrics / observability
    def heap_used_bytes(self) -> int:
        """Estimated NameNode heap held by block metadata (Figure 2:
        'Block metadata lives in memory')."""
        return len(self.block_map) * BYTES_PER_BLOCK

    def capacity_report(self) -> dict[str, int]:
        # Audited for the per-heartbeat O(#blocks) pattern fixed in
        # DataNode.used_bytes: these sums are over per-node info records
        # already maintained by heartbeats (O(#datanodes)), and the
        # report is built on demand — nothing to precompute here.
        live = [
            info
            for name, info in self.datanodes.items()
            if name in self.liveness.alive
        ]
        return {
            "capacity": sum(d.capacity for d in live),
            "used": sum(d.used for d in live),
            "remaining": sum(d.remaining for d in live),
            "live_datanodes": len(live),
            "dead_datanodes": len(self.datanodes) - len(live),
            "under_replicated": len(self.under_replicated),
            "missing": len(self.missing_blocks()),
            "blocks": len(self.block_map),
        }
