"""The serial, no-HDFS job runner — assignment 1's execution mode.

"The corresponding assignment only required the students to use
Hadoop/MapReduce API libraries to develop and test MapReduce code on the
standard Linux command line interface without using a supporting
HDFS/MapReduce infrastructure."  This runner is that mode: the same
:class:`~repro.mapreduce.api.Job` objects, run serially over a
:class:`~repro.hdfs.localfs.LinuxFileSystem`, producing the same answers
and counters plus a *serial* simulated runtime — which is how the course
(and our Claim-C1 benchmark) shows efficient vs. inefficient
implementations differing by an order of magnitude even before HDFS
enters the picture.

Task attempts are built exactly as a TaskTracker builds them (see
:mod:`repro.mapreduce.runtime`); only the file system, the one "node"
and the absence of a scheduler differ.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.hdfs.localfs import LinuxFileSystem
from repro.mapreduce.api import Job
from repro.mapreduce.backend import ExecutionBackend, resolve_backend
from repro.mapreduce.config import MapReduceConfig
from repro.mapreduce.counters import PERF, Counters
from repro.mapreduce.inputformat import InputSplit
from repro.mapreduce.outputformat import TextOutputFormat, part_file_name
from repro.mapreduce.runtime import (
    execute_map,
    job_input_format,
    map_attempt_work,
    prefetch_split,
    reduce_attempt_work,
)
from repro.mapreduce.shuffle import MapOutput
from repro.util.errors import FileNotFoundInHdfs, JobSubmissionError, OutputExistsError


@dataclass
class LocalJobResult:
    """Outcome of a serial run."""

    job_name: str
    counters: Counters
    output_path: str
    localfs: LinuxFileSystem
    #: Simulated wall-clock of the *serial* execution (sum of all task
    #: durations — nothing overlaps on one workstation).
    simulated_seconds: float
    num_splits: int
    pairs: list[tuple[str, str]] = field(default_factory=list)
    #: Runtime-sanitizer violation messages, in task order (empty
    #: unless the runner's MapReduceConfig enables ``sanitize``).
    sanitizer_violations: list[str] = field(default_factory=list)

    def output_dict(self) -> dict[str, str]:
        return dict(self.pairs)


class LocalJobRunner:
    """Run jobs serially against a local (Linux) file system."""

    #: Pseudo-block size used to exercise split logic even locally.
    DEFAULT_SPLIT_SIZE = 16 * 1024 * 1024
    #: The workstation's one disk, bytes per simulated second.
    LOCAL_DISK_BW = 100 * 1024 * 1024

    def __init__(
        self,
        localfs: LinuxFileSystem | None = None,
        split_size: int | None = None,
        backend: ExecutionBackend | None = None,
        mr_config: MapReduceConfig | None = None,
    ):
        self.localfs = localfs or LinuxFileSystem()
        self.mr_config = mr_config or MapReduceConfig()
        self.split_size = split_size or self.DEFAULT_SPLIT_SIZE
        self.backend = resolve_backend(backend)

    def close(self) -> None:
        """Release backend resources (worker pools, if any)."""
        self.backend.shutdown()

    def __enter__(self) -> "LocalJobRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _splits_for(self, job: Job, paths: list[str]) -> list[InputSplit]:
        input_format = job_input_format(job)
        splits: list[InputSplit] = []
        for path in paths:
            length = self.localfs.size(path)
            sizes = []
            offset = 0
            while offset < length:
                sizes.append(min(self.split_size, length - offset))
                offset += sizes[-1]
            if not sizes:
                sizes = [0]
            splits.extend(
                input_format.splits_for_file(
                    path, sizes, [("local",)] * len(sizes)
                )
            )
        return splits

    def _fetch(
        self, path: str, block_index: int, max_bytes: int | None, offset: int = 0
    ):
        data = self.localfs.read_file(path)
        start = block_index * self.split_size
        if start >= len(data) and block_index > 0:
            raise IndexError(block_index)
        chunk = data[start : start + self.split_size]
        if offset:
            chunk = chunk[offset:]
        if max_bytes is not None:
            chunk = chunk[:max_bytes]
        return chunk, len(chunk) / self.LOCAL_DISK_BW

    def _side_reader(self, path: str):
        data = self.localfs.read_file(path)
        cost = self.mr_config.cost
        elapsed = (
            cost.side_open_overhead
            + len(data) / self.LOCAL_DISK_BW
            + len(data) * cost.side_read_per_byte
        )
        return data.decode("utf-8"), elapsed

    # ------------------------------------------------------------------
    def run(
        self,
        job: Job,
        input_paths: list[str] | str,
        output_path: str,
    ) -> LocalJobResult:
        """Run one job to completion, serially."""
        if isinstance(input_paths, str):
            input_paths = [input_paths]
        files: list[str] = []
        for path in input_paths:
            if self.localfs.is_dir(path):
                files.extend(self.localfs.walk(path))
            elif self.localfs.exists(path):
                files.append(path)
            else:
                raise FileNotFoundInHdfs(f"input not found: {path}")
        if not files:
            raise JobSubmissionError(f"no input files under {input_paths}")
        if self.localfs.exists(output_path):
            raise OutputExistsError(f"output {output_path} already exists")

        splits = self._splits_for(job, files)
        self.backend.decide(sum(split.length for split in splits))
        # Pooled execution applies only to share-nothing jobs; the rest
        # run inline.  Completion callbacks fire in submission order, so
        # counters merge and ``elapsed`` sums in exactly the serial
        # order — results are bit-identical.
        pooled = self.backend.parallel and not job.shares_node_state
        # One shm scope per run: the parent mints the token, workers
        # publish segments under it, and the finally below guarantees
        # every segment is unlinked even when the run raises (including
        # KeyboardInterrupt surfacing through join_all).
        shm_scope = None
        if pooled and self.mr_config.shuffle_transport == "shm":
            from repro.mapreduce import shm

            shm_scope = shm.ShmScope()
        try:
            return self._run_tasks(job, splits, output_path, pooled, shm_scope)
        finally:
            if shm_scope is not None:
                shm_scope.release()

    def _run_tasks(
        self,
        job: Job,
        splits: list[InputSplit],
        output_path: str,
        pooled: bool,
        shm_scope,
    ) -> LocalJobResult:
        counters = Counters()
        node_cache: dict = {}  # one workstation == one shared "JVM"
        elapsed = 0.0
        map_outputs: list[MapOutput] = []
        violations: list[str] = []

        def map_done(index: int, handle) -> None:
            nonlocal elapsed
            execution = handle.result()
            execution.output.task_index = index
            counters.merge(execution.counters)
            elapsed += execution.duration
            violations.extend(execution.violations)
            if shm_scope is not None:
                shm_scope.adopt_output(execution.output)
            map_outputs.append(execution.output)
            if execution.perf:
                PERF.merge(execution.perf)

        for index, split in enumerate(splits):
            attempt = dict(
                job=job,
                split=split,
                prefetched=prefetch_split(job, split, self._fetch),
                mr_config=self.mr_config,
                task_node="local",
                disk_write_bw=self.LOCAL_DISK_BW,
            )
            if pooled:
                work = functools.partial(
                    map_attempt_work,
                    **attempt,
                    shm_token=None if shm_scope is None else shm_scope.token,
                )
            else:
                work = functools.partial(
                    execute_map,
                    **attempt,
                    side_reader=self._side_reader,
                    node_cache=node_cache,
                )
            self.backend.submit(
                work,
                functools.partial(map_done, index),
                inline=not pooled,
            )
        self.backend.join_all()  # all map outputs in hand, serial order

        all_pairs: list[tuple[str, str]] = []

        def reduce_done(partition: int, handle) -> None:
            nonlocal elapsed
            execution, text = handle.result()
            counters.merge(execution.counters)
            if execution.perf:
                PERF.merge(execution.perf)
            elapsed += execution.duration
            violations.extend(execution.violations)
            part_path = f"{output_path}/{part_file_name(partition)}"
            self.localfs.write_file(part_path, text)
            elapsed += len(text) / self.LOCAL_DISK_BW
            all_pairs.extend(TextOutputFormat.parse(text))

        for partition in range(job.conf.num_reduces):
            # Frozen outputs slim to this partition's blob before
            # crossing the process boundary (slice_for is a no-op —
            # returns self — on unframed object-form outputs).
            shipped = [out.slice_for(partition) for out in map_outputs]
            work = functools.partial(
                reduce_attempt_work,
                job,
                shipped,
                partition,
                "local",
                self.mr_config,
            )
            if not pooled:
                work = functools.partial(
                    work, side_reader=self._side_reader, node_cache=node_cache
                )
            self.backend.submit(
                work,
                functools.partial(reduce_done, partition),
                inline=not pooled,
            )
        self.backend.join_all()

        self.localfs.write_file(f"{output_path}/_SUCCESS", b"")
        return LocalJobResult(
            job_name=job.name,
            counters=counters,
            output_path=output_path,
            localfs=self.localfs,
            simulated_seconds=elapsed,
            num_splits=len(splits),
            pairs=all_pairs,
            sanitizer_violations=violations,
        )
